"""One rule for a value that leaves the double range: qcore.finite returns
a value that is finite, or every element of which is, and otherwise
raises NonConvergence "<name> overflowed".  The q-products, scalar and
array, and the direct sums ask it, so an overflow fails a suite entry
(NonConvergence) instead of skipping it as an unmet hypothesis
(DomainError), and scalar and array poch agree."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qultra import (INFINITY, NonConvergence, SpectralPoint, UltraParams,
                    generating_rhs, poch, run_suite, shifted_orthogonality_rhs)
from qultra.qcore import finite, poch_ratio


def test_finite_returns_the_value_or_names_it():
    for value in (1.5, 2 - 3j, np.complex128(1e300), np.array([1.0, 2j])):
        assert finite(value, "v") is value
    for value in (math.inf, complex(1, math.nan), np.array([1.0, math.inf]),
                  np.array([[0.5], [complex(math.nan, 0)]])):
        with pytest.raises(NonConvergence, match="^v overflowed$"):
            finite(value, "v")


def test_q_products_report_an_overflow_as_non_convergence():
    # each side of the ratio is 2^-1074 from its pole, as in (a; q)_-1 of
    # tests/test_qcore.py, so the paired quotient leaves the range
    with pytest.raises(NonConvergence, match=r"^poch_ratio overflowed$"):
        poch_ratio(0.5 + 5e-324j, 0.25, 0.5, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (1e200, np.array([1e200, 0.5])):
            with pytest.raises(NonConvergence, match=r"^\(a; q\)_inf overflowed$"):
                poch(a, 0.5, INFINITY)


def _outcome(call):
    """("value",) for a finite complex value or array, else the error's
    type and message; a numpy warning is an error of its own."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = complex(np.ravel(call())[0])
        except Exception as exc:    # the error is the outcome
            return type(exc).__name__, str(exc)
    assert cmath.isfinite(value)
    return ("value",)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_a=st.floats(math.log(1e-3), math.log(1e300)),
       phase=st.floats(-math.pi, math.pi),
       q=st.sampled_from([0.3, 0.5, 0.9, -0.5, 0.5j, 0.4 + 0.3j]))
# the scalar product raised, while the array product returned nan after
# numpy overflow warnings
@example(log_a=math.log(1e200), phase=0.0, q=0.5)
def test_scalar_and_array_poch_give_one_outcome(log_a, phase, q):
    a = cmath.rect(math.exp(log_a), phase)
    assert (_outcome(lambda: poch(a, q, INFINITY))
            == _outcome(lambda: poch(np.array([a]), q, INFINITY)))


def test_an_overflowing_product_fails_its_suite_entry():
    # at gamma = 1e12 the constant terms' and the shifted norm's products
    # leave the double range: that fails an entry, it is no unmet hypothesis
    report = run_suite({"q": 0.7, "gamma": 1e12})
    overflowed = [e for e in report.entries if "overflowed" in e.note]
    assert {e.identity_name for e in overflowed} >= {
        "bilateral_cn_constant_terms", "shifted_orthogonality_diagonal",
        "shifted_orthogonality_offdiagonal", "shifted_orthogonality_scaling"}
    for entry in overflowed:
        assert not entry.skipped and not entry.passed, entry
        assert entry.note.startswith("NonConvergence: "), entry


def test_shifted_rhs_reports_each_overflowing_product_alike():
    # (q gamma; q)^4 overflows at the first set, (q gamma; q)_inf itself at
    # the second
    for qbg, name in (((0.9, 2.15, 900.0), r"\(q g; q\)\^4"),
                      ((0.7, 0.8, 1e12), r"\(a; q\)_inf")):
        q, beta, gamma = qbg
        with pytest.raises(NonConvergence, match=f"^{name} overflowed"):
            shifted_orthogonality_rhs(UltraParams(beta, gamma, q))


@pytest.mark.parametrize("t", [0.97, np.array([0.97, 0.98])])
def test_generating_constant_names_the_square_that_overflows(t):
    # (q gamma; q)_inf (q/(beta gamma); q)_inf is 7.8e172, whose square was
    # a bare OverflowError
    with pytest.raises(NonConvergence, match=r"^\(q gamma, q/\(beta gamma\); q\)\^2 "
                       r"overflowed at \(7\.75"):
        generating_rhs("bilateral", t, SpectralPoint(1.0), UltraParams(0.99, 1000.0, 0.95))

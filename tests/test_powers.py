"""One rule for powers of a caller's n that leave the double range: every
q^n, z^n, t^n and (beta/q)^n is formed through qcore.power, so such a
power is a NonConvergence that names it, never a bare OverflowError or
ZeroDivisionError.  And one rule for n itself, qcore.index: every public
function of n refuses a non-integer n with a DomainError."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qultra import (DEFAULT_POLICY, DomainError, NonConvergence, QSeriesError,
                    RegionError, SpectralPoint, UltraParams, WeightParams,
                    bilateral_cn, bilateral_cn_continued, bilateral_cn_psi_form,
                    bilateral_cn_range, bilateral_delta_integral, classical_cn,
                    constant_term, dq_action_residual, generating_rhs,
                    linearization_residual, orthogonality_diagonal,
                    orthogonality_entry, poch, recurrence_gap, recurrence_residual,
                    shifted_orthogonality_pair, shifted_orthogonality_rhs,
                    special_value_c0, special_value_cm1, symmetry_gap,
                    symmetry_residual)
from qultra.qcore import poch_ratio, power

E1 = cmath.exp(1j)

# each takes (n, z, params, t)
CALLS = {
    "bilateral_cn": lambda n, z, P, t: bilateral_cn(n, SpectralPoint(z), P),
    "bilateral_cn_range": lambda n, z, P, t: bilateral_cn_range(
        n - 1, n + 1, SpectralPoint(z), P),
    "bilateral_cn_continued": lambda n, z, P, t: bilateral_cn_continued(n, z, P),
    "bilateral_cn_psi_form": lambda n, z, P, t: bilateral_cn_psi_form(
        n, SpectralPoint(z), P),
    "recurrence_residual": lambda n, z, P, t: recurrence_residual(
        "bilateral", n, SpectralPoint(z), P),
    "symmetry_residual": lambda n, z, P, t: symmetry_residual(n, SpectralPoint(z), P),
    "dq_action_residual": lambda n, z, P, t: dq_action_residual(
        "bilateral", n, SpectralPoint(z), P),
    "constant_term": lambda n, z, P, t: constant_term(n, P),
    "special_value_c0": lambda n, z, P, t: special_value_c0(P),
    "special_value_cm1": lambda n, z, P, t: special_value_cm1(P),
    "generating_rhs": lambda n, z, P, t: generating_rhs(
        "bilateral", t, SpectralPoint(z), P),
    "classical_cn": lambda n, z, P, t: classical_cn(n, SpectralPoint(z), P.beta, P.q),
    "shifted_orthogonality_rhs": lambda n, z, P, t: shifted_orthogonality_rhs(
        P, DEFAULT_POLICY, n),
}

# every public function of n: the entries of CALLS that take one, and nine more
INDEXED = {name: call for name, call in CALLS.items()
           if name not in ("special_value_c0", "special_value_cm1", "generating_rhs")}
INDEXED.update({
    "poch": lambda n, z, P, t: poch(P.beta, P.q, n),
    "poch_ratio": lambda n, z, P, t: poch_ratio(P.beta, P.gamma, P.q, n),
    "orthogonality_diagonal": lambda n, z, P, t: orthogonality_diagonal(
        n, WeightParams(P.beta.real, P.q.real)),
    "recurrence_gap": lambda n, z, P, t: recurrence_gap(n, SpectralPoint(z), P, 1, 1, 1),
    "symmetry_gap": lambda n, z, P, t: symmetry_gap(n, P, 1, 1),
    "orthogonality_entry": lambda n, z, P, t: orthogonality_entry(
        0, n, WeightParams(P.beta.real, P.q.real)),
    "linearization_residual": lambda n, z, P, t: linearization_residual(
        1, n, SpectralPoint(z), P.beta, P.q),
    "bilateral_delta_integral": lambda n, z, P, t: bilateral_delta_integral(
        n, P.beta.real, P.q.real),
    "shifted_orthogonality_pair": lambda n, z, P, t: shifted_orthogonality_pair(n, n, P),
})


def _polar(lo: float, hi: float):
    """Complex numbers with log-uniform modulus in [lo, hi] and any phase."""
    return st.builds(lambda r, a: cmath.rect(math.exp(r), a),
                     st.floats(math.log(lo), math.log(hi)), st.floats(-math.pi, math.pi))


def _parameter():
    """Real and complex beta and gamma, moduli from 1e-2 to 1e3."""
    real = st.builds(lambda s, r: s * math.exp(r), st.sampled_from([1.0, -1.0]),
                     st.floats(math.log(1e-2), math.log(1e3)))
    return real | _polar(1e-2, 1e3)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(CALLS)),
       q=st.sampled_from([0.3, 0.5, 0.7, 0.9, -0.5, 0.5j]) | _polar(0.05, 0.95),
       beta=_parameter(), gamma=_parameter(),
       z=st.sampled_from([E1]) | _polar(1e-3, 1e3),
       n=st.integers(-3000, 3000), t=_polar(0.05, 2.0))
# q^{-n} overflows at n = 700, and underflows to 0 at n = -700, where the
# 2psi2's region check then divided by it
@example(name="bilateral_cn_psi_form", q=0.3, beta=0.8, gamma=0.7, z=E1, n=700, t=0.6)
@example(name="bilateral_cn_psi_form", q=0.3, beta=0.8, gamma=0.7, z=E1, n=-700, t=0.6)
# (beta/q)^n and (beta^2 gamma/q)^n
@example(name="symmetry_residual", q=0.3, beta=0.8, gamma=0.7, z=E1, n=800, t=0.6)
@example(name="shifted_orthogonality_rhs", q=0.3, beta=0.8, gamma=0.7, z=E1, n=2000,
         t=0.6)
# on a far row of the recurrence band's search, the modulus of a power of z
# is above the largest double while its parts are not
@example(name="bilateral_cn", q=0.5j, beta=33.23633309969444 - 10.504407012088448j,
         gamma=82.83120184172542 + 376.724485879355j,
         z=0.0006721997267927133 + 0.00024460233425914436j, n=0, t=0.6)
# 1 - beta = 0 in the stated product's denominator
@example(name="special_value_cm1", q=0.3, beta=1.0, gamma=0.7, z=E1, n=0, t=0.6)
def test_every_call_returns_or_raises_a_qseries_error(name, q, beta, gamma, z, n, t):
    try:
        params = UltraParams(beta, gamma, q)
        CALLS[name](n, z, params, t)
    except QSeriesError:
        pass


@pytest.mark.parametrize("x, n", [(-0.5, 3), (0.3 + 0j, -0.5), (0.5, 1100), (2.0, 1023),
                                  (0.3 + 0.1j, 600)])
def test_power_is_the_plain_power_where_python_forms_it(x, n):
    # 0.5^1100 underflows to 0.0 and (0.3 + 0.1i)^600 is about 1e-300: both
    # are doubles, so neither is an error
    got = power(x, n, "x^n")
    assert type(got) is type(x ** n) and repr(got) == repr(x ** n)


# float and complex overflow, x^-90 over an x^90 that underflowed to 0,
# 0^-1, and a modulus above the largest double whose parts are doubles
@pytest.mark.parametrize("x, n", [(0.3, -700), (0.3 + 0j, -700), (2.5 + 1j, 800),
                                  (1e-4 + 0j, -90), (0.0, -1),
                                  (complex(1.5e308, 1.5e308), 1)])
def test_power_out_of_the_double_range_is_a_non_convergence_naming_it(x, n):
    with pytest.raises(NonConvergence, match="^" + re.escape(f"x^n overflowed at {x!r} ** {n}")
                       + "$"):
        power(x, n, "x^n")


def test_the_powers_of_the_relations_name_themselves():
    params, p = UltraParams(0.8, 0.7, 0.3), SpectralPoint.from_theta(1.0)
    for call, name in ((lambda: bilateral_cn_psi_form(700, p, params), "q^{-n}"),
                       (lambda: symmetry_residual(800, p, params), "(beta/q)^n"),
                       (lambda: shifted_orthogonality_rhs(params, DEFAULT_POLICY, 2000),
                        "(beta^2 gamma/q)^n")):
        with pytest.raises(NonConvergence, match="^" + re.escape(name) + " overflowed"):
            call()
    with pytest.raises(NonConvergence, match=r"^q\^\{-n\}/gamma = 0j at n = -700"):
        bilateral_cn_psi_form(-700, p, params)


def test_a_non_integer_index_is_a_domain_error():
    # int() would truncate 2.5 to 2 and return C_2 bit for bit
    params, p = UltraParams(0.8, 0.7, 0.3), SpectralPoint.from_theta(1.0)
    for call in (lambda: bilateral_cn(2.5, p, params),
                 lambda: bilateral_cn_range(0.5, 2.5, p, params),
                 lambda: bilateral_cn_range(0, 2.0, p, params),
                 lambda: bilateral_cn_continued(2.5, 0.5 + 0.1j, params)):
        with pytest.raises(DomainError, match="integer"):
            call()
    want = bilateral_cn(2, p, params).value
    assert bilateral_cn(np.int64(2), p, params).value == want
    assert (bilateral_cn_range(np.int32(0), np.int64(2), p, params).values.tobytes()
            == bilateral_cn_range(0, 2, p, params).values.tobytes())
    assert bilateral_cn_continued(np.int64(2), 0.5 + 0.1j, params).n == 2


def _bits(x):
    """The numbers of a result, as reprs and array bytes, bit for bit."""
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    if hasattr(x, "__dataclass_fields__"):
        return [_bits(getattr(x, f)) for f in x.__dataclass_fields__]
    return x.tobytes() if isinstance(x, np.ndarray) else repr(x)


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_every_function_of_n_asks_the_one_index_rule(name):
    params = UltraParams(0.8, 0.7, 0.3)
    # int() truncated 2.5 and 2.0 to 2, numpy raised a bare TypeError, and
    # some functions computed z^2.5 or took 2.5 as odd
    for n in (2.5, np.float64(2.0)):
        with pytest.raises(DomainError, match="^indices must be integers, got "):
            INDEXED[name](n, E1, params, 0.6)
    # any integer type is the Python int, bit for bit
    want = _bits(INDEXED[name](2, E1, params, 0.6))
    assert _bits(INDEXED[name](np.int64(2), E1, params, 0.6)) == want


def test_the_index_rule_states_each_bound_and_types_two_bare_exceptions():
    w = WeightParams(0.8, 0.3)
    # a PoleError about (a; q)_-1 before
    with pytest.raises(DomainError, match="^orthogonality_diagonal needs n >= 0$"):
        orthogonality_diagonal(-1, w)
    with pytest.raises(DomainError, match="^index sequences must be nonempty, 1-D "):
        orthogonality_entry([[1, 2], [3]], [1, 2], w)
    with pytest.raises(DomainError, match=re.escape("got [1.5, 2]")):
        orthogonality_entry([1.5, 2], [1, 2], w)
    # (q gamma; q)_inf^4 overflowed in a bare OverflowError
    with pytest.raises(NonConvergence, match=r"^\(q g; q\)\^4 overflowed at "):
        shifted_orthogonality_rhs(UltraParams(2.15, 900.0, 0.9))
    # the 2psi2's region check divided by a1 a2 z, which underflowed to 0:
    # b_i / a_i pair up instead, and the point is far outside the annulus
    with pytest.raises(RegionError, match=r"^2psi2 requires .* got 17081\.89"):
        bilateral_cn_psi_form(-1058, SpectralPoint(-160 + 210j),
                              UltraParams(0.79 - 1.88j, -17.0, 0.5j))

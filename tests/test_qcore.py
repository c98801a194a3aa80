import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qultra import (DEFAULT_POLICY, DomainError, NonConvergence, PoleError,
                    SpectralPoint, TruncationPolicy, poch, poch_multi, poch_pm)
from qultra.qcore import (INFINITY, CompensatedSum, _product_bound_terms,
                          is_q_power, poch_ratio, poch_recip)

Q = 0.3


def test_poch_empty_product():
    assert poch(0.7 + 0.2j, Q, 0) == 1.0


def test_poch_two_factors_by_hand():
    # (1 - 0.5)(1 - 0.15) = 0.425
    assert poch(0.5, Q, 2) == pytest.approx(0.425, abs=1e-15)


def test_poch_negative_single_factor():
    # 1 / (1 - 0.5/0.3) = -1.5
    assert poch(0.5, Q, -1) == pytest.approx(-1.5, abs=1e-14)


def test_poch_infinite_frozen_oracle():
    # independent high-precision product (40-digit arithmetic, 400 factors)
    assert complex(poch(0.5, Q, INFINITY)).real == pytest.approx(
        0.39808220430187766356, rel=1e-14)


def test_poch_multi_singleton_and_pair():
    assert poch_multi([0.4], Q, 3) == poch(0.4, Q, 3)
    assert poch_multi([0.5, 0.2], Q, 1) == pytest.approx(0.5 * 0.8, abs=1e-15)


def test_poch_multi_infinite_frozen_oracle():
    got = poch_multi([0.5, 0.2, 0.1], Q, INFINITY)
    assert got.real == pytest.approx(0.25139454992286484156, rel=1e-13)


def test_poch_pm_zero_parameter_is_one():
    p = SpectralPoint.from_theta(0.7)
    assert poch_pm(0.0, p, Q) == 1.0


def test_poch_pm_unit_point_squares():
    p = SpectralPoint(1.0 + 0j)
    assert poch_pm(0.4, p, Q) == pytest.approx(poch(0.4, Q, INFINITY) ** 2, rel=1e-14)


def test_poch_pm_frozen_oracle():
    p = SpectralPoint.from_theta(1.0)
    got = poch_pm(0.4, p, Q)
    assert got.real == pytest.approx(0.60944215894173398352, rel=1e-13)
    assert abs(got.imag) < 1e-15


def test_poch_pm_z_inversion():
    # z -> 1/z maps the factor pair {t z, t/z} to itself; the only
    # difference is the rounding of the inverted input coordinate
    p = SpectralPoint.from_theta(0.9)
    a = poch_pm(0.3 + 0.1j, p, Q)
    b = poch_pm(0.3 + 0.1j, p.inverse(), Q)
    assert a == pytest.approx(b, rel=5e-16)


def test_poch_pole_reports_index():
    with pytest.raises(PoleError):
        poch(Q ** 2, Q, -3)  # factor 1 - a q^-2 vanishes


def test_poch_repeated_calls_identical():
    vals = {poch(0.37 + 0.11j, Q, INFINITY) for _ in range(5)}
    assert len(vals) == 1


@pytest.mark.parametrize("k", range(-8, 9))
def test_poch_shift_identity(k):
    a, q = 0.62 + 0.21j, 0.3 + 0.1j
    lhs = poch(a, q, k + 1)
    rhs = poch(a, q, k) * (1 - a * q ** k)
    assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("k", range(-5, 6))
def test_poch_splitting_identity(k):
    a = 0.45 + 0.3j
    lhs = poch(a, Q, k) * poch(a * Q ** k, Q, INFINITY)
    assert lhs == pytest.approx(poch(a, Q, INFINITY), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(re=st.floats(-0.9, 0.9), im=st.floats(-0.9, 0.9),
       q=st.floats(0.05, 0.9), k=st.integers(-6, 6))
def test_poch_shift_identity_random(re, im, q, k):
    a = complex(re, im)
    try:
        rhs = poch(a, q, k) * (1 - a * q ** k)
    except PoleError:
        # only a = q^j with 1 <= j <= -k is a pole of (a; q)_k
        assert is_q_power(a, q) in range(1, -k + 1)
        return
    lhs = poch(a, q, k + 1)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def _loop_bound_terms(a_mag, q_mag, policy):
    """The factor count of poch(a, q, inf) by a step loop: the first J with
    |a| |q|^j < rel_tol (1 - |q|) for tail_window consecutive j < J, the
    running product formed by repeated multiplication; None past max_terms."""
    bound = policy.rel_tol * (1.0 - q_mag)
    est, hits = a_mag, 0
    for j in range(policy.max_terms):
        hits = hits + 1 if est < bound else 0
        if hits >= policy.tail_window:
            return j + 1
        est *= q_mag
    return None


def test_product_bound_terms_matches_the_loop():
    rng = np.random.default_rng(20251018)
    policies = [DEFAULT_POLICY, TruncationPolicy(rel_tol=1e-10, tail_window=5),
                TruncationPolicy(max_terms=40)]
    for policy in policies:
        pairs = [(float(10 ** rng.uniform(-20, 20)), float(rng.uniform(1e-3, 0.999)))
                 for _ in range(3000)]
        pairs += [(0.0, 0.5), (policy.rel_tol * 0.7, 0.3), (1e300, 0.999)]
        for a, q in pairs:
            want = _loop_bound_terms(a, q, policy)
            try:
                got = _product_bound_terms(a, q, policy)
            except NonConvergence:
                got = None
            if got != want:
                # allowed only at a tie: at the first j where the counts
                # disagree, |a| |q|^j equals the bound up to rounding
                j = min(c for c in (got, want) if c is not None) - policy.tail_window
                bound = policy.rel_tol * (1.0 - q)
                assert math.isclose(a * q ** j, bound, rel_tol=1e-12), (a, q, got, want)


def test_poch_ratio_matches_quotient():
    for k in (-5, -1, 0, 3):
        want = poch(0.56, Q, k) / poch(0.21, Q, k)
        assert poch_ratio(0.56, 0.21, Q, k) == pytest.approx(want, rel=1e-13)


def test_poch_ratio_survives_deep_negative_index():
    # each side alone overflows near k = -36; the paired ratio is tame
    val = poch_ratio(0.56, 0.21, Q, -40)
    assert math.isfinite(abs(val))


def test_poch_recip_is_zero_on_truncation_lattice():
    # 1/(q; q)_{-2} = (q^{-1}; q)_2 contains the factor (1 - q^0) = 0
    assert poch_recip(Q, Q, -2) == 0.0


def test_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(rel_tol=0.0)
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=2, tail_window=5)


def test_base_validation():
    with pytest.raises(DomainError):
        poch(0.5, 1.2, 2)
    with pytest.raises(DomainError):
        poch(0.5, 0.0, 2)


def test_spectral_point_from_x_branches():
    p = SpectralPoint.from_x(0.25)
    assert abs(p.z) == pytest.approx(1.0, abs=1e-15)
    assert p.x == pytest.approx(0.25, abs=1e-15)
    p = SpectralPoint.from_x(1.75)
    assert p.z.imag == 0.0 and p.z.real > 1.0
    assert p.x == pytest.approx(1.75, abs=1e-14)
    p = SpectralPoint.from_x(-2.0)
    assert p.x == pytest.approx(-2.0, abs=1e-14)


def test_spectral_point_rejects_zero():
    with pytest.raises(DomainError):
        SpectralPoint(0.0)


def test_poch_array_matches_scalars():
    arr = np.array([0.2 + 0.1j, -0.4, 0.8j])
    got = poch(arr, Q, INFINITY)
    for a, v in zip(arr, got):
        assert v == pytest.approx(poch(complex(a), Q, INFINITY), rel=1e-14)
    # A scalar and a one-element array run the same loop body, in Python
    # complex and in numpy arithmetic.  Sums, products with a real factor and
    # the final reciprocal (a numpy division for both) round alike, so real a
    # agrees to the bit.  numpy may fuse the multiply-adds of a product of two
    # complex arrays (on CPUs with FMA) while Python does not, so complex a
    # agrees to rounding only.
    terms = [1.0 + 0j, 2.5 - 1e-17j, -1e-3 + 3.0j, 1e16 + 0j, -1e16 + 1j]
    acc, acc1 = CompensatedSum(), CompensatedSum(np.zeros(1))
    for t in terms:
        acc.add(t)
        acc1.add(np.array([t]))
    assert type(acc.value) is complex
    assert acc.value == acc1.value[0]
    for a in (-2.5, 3.7, -0.6, 1.3 + 0.4j, -1.7 - 2.2j):
        exact = isinstance(a, float)
        pairs = [(poch(a, Q, k), poch(np.array([a]), Q, k)[0])
                 for k in (INFINITY, 0, 5, -5)]
        pairs += [(poch_recip(a, Q, k), poch_recip(np.array([a]), Q, k)[0])
                  for k in (5, -5)]
        for scalar, element in pairs:
            assert type(scalar) is complex
            if exact:
                assert scalar == element
            else:
                assert scalar == pytest.approx(element, rel=1e-15)


def test_is_q_power_detection():
    assert is_q_power(Q ** -2, Q) == -2
    assert is_q_power(1.0, Q) == 0
    assert is_q_power(0.7, Q) is None

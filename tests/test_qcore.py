import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qultra import (DEFAULT_POLICY, DomainError, NonConvergence, PoleError,
                    SpectralPoint, TruncationPolicy, check_base, poch,
                    poch_multi, poch_pm)
from qultra.qcore import (INFINITY, TAIL_WINDOW, CompensatedSum,
                          _product_bound_terms, is_q_power, poch_ratio)
from qultra.verify import CONFIG_DEFAULTS

Q = CONFIG_DEFAULTS["q"]


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


def _poch_product(factors, q, k, policy=None):
    """poch_multi as a product of poch calls, each error named by factor."""
    out = 1.0 + 0j
    for i, a in enumerate(factors):
        try:
            out = out * poch(a, q, k, policy)
        except (PoleError, NonConvergence) as exc:
            raise type(exc)(f"factor {i} (a = {a}): {exc}") from exc
    return out


def test_poch_multi_is_the_product_of_poch_calls_bit_for_bit():
    # poch_multi checks q once and runs scalar k = inf factors on poch's
    # loop directly; values, types and errors stay those of poch, except
    # that a bad q raises even when there are no factors
    rng = np.random.default_rng(16)
    tight = TruncationPolicy(max_terms=20)
    for _ in range(300):
        q = (complex(*rng.uniform(-0.9, 0.9, 2)) if rng.random() < 0.5
             else rng.uniform(0.05, 0.95))
        size = int(rng.integers(0, 5))
        factors = list(rng.uniform(-3, 3, size) + 1j * rng.uniform(-3, 3, size))
        factors = [complex(a) if rng.random() < 0.5 else np.complex128(a) for a in factors]
        if size and rng.random() < 0.2:
            factors[-1] = complex("nan")
        for k in (INFINITY, 3, -2):
            for policy in (None, tight):
                outcomes = []
                for fn in (poch_multi, _poch_product):
                    try:
                        v = fn(factors, q, k, policy)
                        outcomes.append((type(v), v.real.hex(), v.imag.hex()))
                    except Exception as exc:  # the error is the outcome
                        outcomes.append((type(exc), str(exc)))
                if not factors and not abs(q) < 1:
                    assert outcomes[0][0] is DomainError
                    continue
                assert outcomes[0] == outcomes[1], (factors, q, k, policy)


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


def _poch_exact(a, q, k):
    """(a; q)_k for these double inputs, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        a, q = mpmath.mpc(a), mpmath.mpf(q)
        if k >= 0:
            return mpmath.fprod(1 - a * q ** j for j in range(k))
        den = mpmath.fprod(1 - a / q ** j for j in range(1, -k + 1))
        return mpmath.inf if den == 0 else 1 / den


def _poch_condition(a, q, k):
    """How much the rounding of each factor's a q^j (k >= 0) or q^j
    (k < 0) can move (a; q)_k, relative: the sum of |a q^j| / |1 - a q^j|
    over its factors, or of |q^j| / |q^j - a| for k < 0."""
    if k >= 0:
        parts = [(a * q ** j, 1 - a * q ** j) for j in range(k)]
    else:
        parts = [(q ** j, q ** j - a) for j in range(1, -k + 1)]
    return sum(abs(x) / abs(y) if y else math.inf for x, y in parts)


@settings(max_examples=30, deadline=None)
@given(re=st.floats(-0.9, 0.9), im=st.floats(-0.9, 0.9),
       q=st.floats(0.05, 0.9), k=st.integers(-6, 6))
# a subnormal distance from the pole a = q: (a; q)_{-1} exceeds the
# double range, and poch rightly raises NonConvergence
@example(re=0.5, im=5e-324, q=0.5, k=-1)
# a is 2.2e-16 from the pole a = q, as far as q^{-1} rounds: the shift
# identity (a; q)_0 = (a; q)_{-1} (1 - a q^{-1}) gives 1 against 1 + 0.31i,
# while both values match the exact products
@example(re=0.6098835307633215, im=2.2e-16, q=0.6098835307633215, k=-1)
# a subnormal distance from the pole a = q again, but with four more
# factors the product is back in the double range (see the test below)
@example(re=0.25, im=2.2e-311, q=0.25, k=-5)
def test_poch_shift_identity_random(re, im, q, k):
    a = complex(re, im)
    try:
        values = [poch(a, q, j) for j in (k, k + 1)]
    except PoleError:
        # only a = q^j with 1 <= j <= -k is a pole of (a; q)_k
        assert is_q_power(a, q) in range(1, -k + 1)
        return
    except NonConvergence:
        # overflow is right only where a true value leaves the double range
        assert max(abs(_poch_exact(a, q, k)),
                   abs(_poch_exact(a, q, k + 1))) > sys.float_info.max
        return
    for j, value in zip((k, k + 1), values):
        exact = complex(_poch_exact(a, q, j))
        tol = 1e-11 + 8 * sys.float_info.epsilon * _poch_condition(a, q, j)
        # from tol = 1 on, a rounded q^j can reach the pole: no digit holds
        assert tol >= 1 or abs(value - exact) <= tol * abs(exact)


@pytest.mark.parametrize("k", [-5, -4])
def test_poch_past_a_factor_out_of_the_double_range(k):
    # the first factor q/(q - a) of (a; q)_-5 is 1.1e310, while the
    # product, 6.1e-6 + 1.57e304i, is a double: no partial product of
    # the rescaled loop leaves the range, where the in-order loop overflows
    a = 0.25 + 2.2e-311j
    got, want = poch(a, 0.25, k), complex(_poch_exact(a, 0.25, k))
    assert abs(got - want) <= 4 * sys.float_info.epsilon * abs(want)
    assert got.real == pytest.approx(want.real, rel=1e-13)


@pytest.mark.parametrize("a", [0.5 + 5e-324j])
def test_poch_overflow_raises_without_a_warning(a):
    # 1 / (1 - a/q) leaves the double range; the typed error is the only signal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match=r"^\(a; q\)_-1 overflowed"):
            poch(a, 0.5, -1)


def test_poch_infinite_overflow_raises():
    # the k = inf product leaves the double range, as a finite k can
    with pytest.raises(NonConvergence, match="overflowed"):
        poch(1e200, 0.5, math.inf)
    with pytest.raises(NonConvergence, match="overflowed"):
        poch_multi([0.5, 1e200], 0.5, INFINITY)


@pytest.mark.parametrize("a,q", [(0.91, 0.3), (0.56, 0.3), (0.4 + 0.7j, 0.5),
                                 (2.5, 0.7)])
def test_poch_negative_index_underflows_towards_zero(a, q):
    # (a; q)_{-m} = prod_{j=1}^{m} q^j / (q^j - a) shrinks like q^{m^2/2}:
    # at (0.91, 0.3) it is 3.29e-310 (subnormal) at m = 34 and -1.8e-328
    # at m = 35, below the double range, where 1 / (a q^{-m}; q)_m overflows
    for m in range(1, 80):
        got = poch(a, q, -m)
        with mpmath.workdps(40):
            am, qm = mpmath.mpc(a), mpmath.mpf(q)
            want = mpmath.fprod(qm ** j / (qm ** j - am) for j in range(1, m + 1))
            want = complex(want)    # rounds below the double range to 0
        assert abs(got - want) <= 1e-13 * abs(want) + 1e-320, (m, got, want)
    assert poch(0.91, 0.3, -34) == pytest.approx(3.290792075524276e-310, rel=1e-10)
    assert poch(0.91, 0.3, -35) == 0


def test_poch_negative_index_pole_still_raises():
    with pytest.raises(PoleError, match=r"^\(a; q\)_-3: factor 1 - a q\^-2 vanishes"):
        poch(Q ** 2, Q, -3)
    # the loop poch shares with poch_ratio keeps each caller's name
    with pytest.raises(PoleError, match=r"^poch_ratio: factor 1 - a q\^-2 vanishes"):
        poch_ratio(Q ** 2, 0.5, Q, -3)
    with pytest.raises(PoleError, match=r"^poch_ratio: factor 1 - b q\^1 vanishes"):
        poch_ratio(0.3, 2.0, 0.5, 3)


def _plain_product(a, q, k):
    """(a; q)_k as a bare product, the reference for poch's finite k:
    1 - a q^j factors for k >= 0, q^j / (q^j - a) for k < 0."""
    out = 1.0 + 0j
    if k >= 0:
        qj = 1.0 + 0j
        for _ in range(k):
            out *= 1.0 - a * qj
            qj *= q
    else:
        v = q
        for _ in range(-k):
            out *= v / (v - a)
            v *= q
    return out


def test_poch_finite_is_the_plain_product_bit_for_bit():
    # dividing each factor by poch_ratio's b = 0 denominator moves no bit,
    # not even the sign of a zero
    rng = np.random.default_rng(29)
    for i in range(3000):
        q = complex([0.3, 0.91, 0.5 - 0.2j, -0.4][i % 4])
        k = int(rng.integers(-30, 31))
        if i % 3:
            a = complex(*rng.uniform(-3, 3, 2))
        else:                           # a zero factor: a = q^-j, exactly 1 at j = 0
            a = complex(q ** -int(rng.integers(0, 12)))
        try:
            got = poch(a, q, k)
        except (PoleError, NonConvergence):
            continue
        assert repr(got) == repr(_plain_product(a, q, k)), (a, q, k)


def _loop_bound_terms(a_mag, q_mag, policy):
    """The factor count of poch(a, q, inf) by a step loop: the first J with
    |a| |q|^j < rel_tol (1 - |q|) for TAIL_WINDOW consecutive j < J, the
    running product formed by repeated multiplication; None past max_terms."""
    bound = policy.rel_tol * (1.0 - q_mag)
    est, hits = a_mag, 0
    for j in range(policy.max_terms):
        hits = hits + 1 if est < bound else 0
        if hits >= TAIL_WINDOW:
            return j + 1
        est *= q_mag
    return None


def test_product_bound_terms_matches_the_loop():
    rng = np.random.default_rng(20251018)
    policies = [DEFAULT_POLICY, TruncationPolicy(rel_tol=1e-10),
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
                j = min(c for c in (got, want) if c is not None) - TAIL_WINDOW
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


def test_policy_validation():
    # rel_tol = inf would overflow the direct sum's budget, and rel_tol >= 1
    # accepts a term as large as the sum
    for rel_tol in (0.0, math.inf, 1.0, 2.0):
        with pytest.raises(DomainError):
            TruncationPolicy(rel_tol=rel_tol)
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=2)


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


@pytest.mark.parametrize("z", [complex(math.inf, 0), complex(0, math.nan)])
def test_spectral_point_rejects_a_non_finite_scalar(z):
    with pytest.raises(DomainError, match="^spectral point requires finite z$"):
        SpectralPoint(z)


def test_poch_array_matches_scalars():
    arr = np.array([0.2 + 0.1j, -0.4, 0.8j])
    got = poch(arr, Q, INFINITY)
    for a, v in zip(arr, got):
        assert v == pytest.approx(poch(complex(a), Q, INFINITY), rel=1e-14)
    # A scalar and a one-element array run the same operations, in Python
    # complex and in numpy arithmetic (an array's infinite product is a table
    # of its factors, a q^j by repeated multiplication, multiplied in order).
    # Sums and products with a real factor round alike, so real a agrees to
    # the bit.  numpy may fuse the multiply-adds of a product of two complex
    # arrays (on CPUs with FMA) while Python does not, so complex a agrees
    # to rounding only.
    terms = [1.0 + 0j, 2.5 - 1e-17j, -1e-3 + 3.0j, 1e16 + 0j, -1e16 + 1j]
    acc, acc1 = CompensatedSum(), CompensatedSum(np.zeros(1))
    for t in terms:
        acc.add(t)
        acc1.add(np.array([t]))
    assert type(acc.value) is complex
    assert acc.value == acc1.value[0]
    for a in (-2.5, 3.7, -0.6, 1.3 + 0.4j, -1.7 - 2.2j):
        scalar = poch(a, Q, INFINITY)
        element = poch(np.array([a]), Q, INFINITY)[0]
        assert type(scalar) is complex
        if isinstance(a, float):
            assert scalar == element
        else:
            assert scalar == pytest.approx(element, rel=1e-15)
    for k in (0, 5, -5):
        assert type(poch(-2.5, Q, k)) is complex


def test_poch_array_needs_infinite_index():
    # finite products are scalar kernels: an array there is outside input
    with pytest.raises(DomainError):
        poch(np.array([0.5]), Q, 3)


def test_poch_infinite_array_table_matches_scalars():
    """The array product is one table of factors.  It equals the per-factor
    array loop it replaced at real q (bit for bit) and at complex q (to
    rounding: cumprod and the loop's multiply may fuse differently), and an
    element-wise scalar poch wherever both truncate at the same factor,
    as on arrays of one modulus; across moduli the truncations differ, by
    up to rel_tol."""
    from qultra.qcore import _product_bound_terms
    rng = np.random.default_rng(11)
    for shape in ((200,), (4, 25)):
        size = int(np.prod(shape))
        a = (10.0 ** rng.uniform(-3, 3, size)
             * np.exp(1j * rng.uniform(-math.pi, math.pi, size))).reshape(shape)
        for q in (Q, 0.7, 0.5 + 0.3j):
            got = poch(a, q, INFINITY)
            assert got.shape == shape
            loop, term = np.ones_like(a), a
            for _ in range(_product_bound_terms(np.abs(a).max(), abs(q), DEFAULT_POLICY)):
                loop, term = loop * (1.0 - term), term * complex(q)
            if isinstance(q, float):
                np.testing.assert_array_equal(got, loop)
            assert np.max(np.abs(got - loop) / np.abs(loop)) <= 1e-14
    for q in (Q, 0.7):
        for mod in 10.0 ** np.linspace(-3, 3, 13):
            a = mod * np.exp(1j * rng.uniform(-math.pi, math.pi, 50))
            got = poch(a, q, INFINITY)
            want = np.array([poch(complex(v), q, INFINITY) for v in a])
            # numpy fuses the multiply-adds of a complex product, Python
            # does not: about 100 factors at q = 0.7 differ by 2.9e-15
            assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-15, (q, mod)
    empty = poch(np.array([], dtype=complex), Q, INFINITY)
    assert empty.shape == (0,) and empty.dtype == complex


def test_is_q_power_detection():
    assert is_q_power(Q ** -2, Q) == -2
    assert is_q_power(1.0, Q) == 0
    assert is_q_power(0.7, Q) is None
    assert is_q_power(5e-324, Q) is None            # q^618.3: no q^m is formed


def test_is_q_power_of_a_value_out_of_the_double_range_is_none():
    for value in (1e200 * 1e200, -1e160 * 1e160, complex(math.inf, math.inf)):
        assert is_q_power(value, Q) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(r=st.floats(0.05, 0.95), phase=st.floats(-math.pi, math.pi),
       t=st.floats(-1.0, 1.0))
@example(r=0.5, phase=math.pi, t=0.0101)        # q = -0.5, m = 10
@example(r=0.5, phase=2.0, t=-0.0031)           # q = 0.5 e^{2i}, m = -3
def test_is_q_power_finds_every_power_of_every_base(r, phase, t):
    # m arg q wraps past pi for negative and complex q: the test reduces
    # the phase mod 2 pi, and m runs over all of 1e-300 <= |q|^m <= 1e300
    q = cmath.rect(r, phase)
    m = int(t * 300 * math.log(10) / -math.log(r))
    assert is_q_power(q ** m, q) == m
    assert is_q_power(q ** m * cmath.exp(1e-6j), q) is None
    for value in (5e-324, complex(5e-324, -5e-324), 1e-310j, 1.7e308,
                  complex(-1.7e308, 1.7e308)):
        power = is_q_power(value, q)                # it never raises
        assert power is None or isinstance(power, int)


def test_input_checks():
    for q in (math.inf, math.nan, complex(0.3, math.inf)):
        with pytest.raises(DomainError, match="base q must be finite"):
            check_base(q)
    with pytest.raises(DomainError, match="spectral point requires z != 0"):
        SpectralPoint(np.array([1.0, 0.0]))
    with pytest.raises(DomainError, match="spectral point requires finite z"):
        SpectralPoint(np.array([1.0, np.nan]))
    with pytest.raises(DomainError, match="poch requires finite a"):
        poch(np.array([0.5, np.inf]), Q, INFINITY)

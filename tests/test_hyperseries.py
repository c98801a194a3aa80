import numpy as np
import pytest

from qultra import (BILATERAL, DEFAULT_POLICY, UNILATERAL, DomainError,
                    NonConvergence, PoleError, RegionError, SeriesSpec,
                    SpectralPoint, TruncationPolicy, UltraParams, bilateral_cn,
                    closed_form, poch, poch_multi, sum_phi, sum_psi,
                    transform_residual)
from qultra.hyperseries import _TAIL_FLOOR, terminates_above, terminates_below
from qultra.qcore import (GROWTH_SLACK, INFINITY, TAIL_WINDOW,
                          CompensatedSum)
from qultra.ultraspherical import (_PoleRings, bilateral_cn_range,
                                   direct_region_mask)
from qultra.verify import CONFIG_DEFAULTS

Q = CONFIG_DEFAULTS["q"]


def phi(upper, lower, z, q=Q, **kw):
    return sum_phi(SeriesSpec(UNILATERAL, upper, lower, q, z), **kw)[0]


def psi(upper, lower, z, q=Q, **kw):
    return sum_psi(SeriesSpec(BILATERAL, upper, lower, q, z), **kw)[0]


def test_phi_argument_zero():
    assert phi((0.5, 0.4), (0.6,), 0.0) == 1.0


def test_phi_terminating_two_terms():
    # upper q^{-1}: 1 + (1 - q^{-1}) z / (1 - q)
    z = 0.37
    want = 1 + (1 - Q ** -1) * z / (1 - Q)
    assert phi((Q ** -1,), (), z) == pytest.approx(want, rel=1e-14)


def test_phi_terminating_matches_naive_sum():
    # exact agreement with term-by-term evaluation, no truncation error
    n = 6
    upper, lower, z = (Q ** -n, 0.8), (0.5,), 1.7
    got = phi(upper, lower, z)
    naive = 0j
    for k in range(n + 1):
        term = (poch(upper[0], Q, k) * poch(upper[1], Q, k)
                / (poch(Q, Q, k) * poch(lower[0], Q, k))) * z ** k
        naive += term
    assert got == pytest.approx(naive, rel=1e-13)


def test_phi_q_gauss_value():
    # 2phi1(beta^2, beta; q beta; q, q/beta^2) has a closed product value
    beta = 0.8
    got = phi((beta ** 2, beta), (Q * beta,), Q / beta ** 2)
    want = (poch_multi([Q / beta, Q], Q, INFINITY)
            / poch_multi([Q * beta, Q / beta ** 2], Q, INFINITY))
    assert got == pytest.approx(want, rel=1e-10)
    assert closed_form("q_gauss", (beta ** 2, beta, Q * beta), Q) == pytest.approx(
        want, rel=1e-13)


def test_phi_region_error():
    with pytest.raises(RegionError):
        phi((0.5, 0.4), (0.6,), 1.2)  # r = s + 1 and |z| >= 1


def test_psi_ramanujan():
    a, b, z = 0.9, 0.2, 0.5
    got = psi((a,), (b,), z)
    want = closed_form("ramanujan_1psi1", (a, b, z), Q)
    assert got == pytest.approx(want, rel=1e-10)


def test_psi_terminating_below_reduces_to_phi():
    # lower parameter q kills every k < 0 term
    a, z = Q ** -3, 0.8
    got = psi((a, 0.5), (0.4, Q), z)
    want = phi((a, 0.5), (0.4,), z)
    assert got == pytest.approx(want, rel=1e-12)


def test_psi_region_error_on_argument():
    with pytest.raises(RegionError):
        psi((0.9, 0.8), (0.1, 0.2), 1.1)


def test_psi_region_error_on_annulus():
    # |b1 b2 / (a1 a2 z)| >= 1
    with pytest.raises(RegionError):
        psi((0.2, 0.1), (0.9, 0.8), 0.3)


def test_psi_zero_argument_rejected():
    with pytest.raises(DomainError):
        psi((0.9,), (0.2,), 0.0)


def test_psi_split_independence():
    # a deeper truncation changes the value by less than rel_tol
    a, b, z = 0.9 + 0.2j, 0.15, 0.5j
    spec = SeriesSpec(BILATERAL, (a,), (b,), Q, z)
    v1 = sum_psi(spec)[0]
    v2 = sum_psi(spec, TruncationPolicy(rel_tol=1e-16))[0]
    assert abs(v1 - v2) <= 1e-13 * abs(v1)


def test_psi_ramanujan_annulus_grid():
    rng = np.random.default_rng(7)
    for _ in range(12):
        a = rng.uniform(0.5, 1.1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = a * rng.uniform(0.05, 0.3)
        z = rng.uniform(0.4, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        got = psi((a,), (b,), z)
        want = closed_form("ramanujan_1psi1", (a, b, z), Q)
        assert got == pytest.approx(want, rel=1e-12)


def test_closed_form_q_binomial_zero_a():
    z = 0.45
    got = closed_form("q_binomial", (0.0, z), Q)
    assert got == pytest.approx(1.0 / poch(z, Q, INFINITY), rel=1e-13)


def test_closed_form_ramanujan_reduces_to_binomial_at_b_eq_q():
    # the 1psi1 terminates below at b = q, leaving the q-binomial sum
    a, z = 0.8, 0.5
    got = closed_form("ramanujan_1psi1", (a, Q, z), Q)
    want = closed_form("q_binomial", (a, z), Q)
    assert got == pytest.approx(want, rel=1e-12)


def test_closed_form_q_kummer_matches_series():
    a, b, c = 0.5, 0.9, 0.8
    got = closed_form("q_kummer_2psi2", (a, b, c), Q)
    ser = psi((b, c), (a * Q / b, a * Q / c), -a * Q / (b * c))
    assert got == pytest.approx(ser, rel=1e-11)


def test_closed_form_3psi3_a_matches_series():
    beta, gamma = 0.8, 0.7
    b, c, d = beta * gamma, 1 / gamma, Q ** 0.5
    got = closed_form("bailey_3psi3_a", (b, c, d), Q)
    ser = psi((b, c, d), (Q / b, Q / c, Q / d), Q / (b * c * d))
    assert got == pytest.approx(ser, rel=1e-9)


def test_closed_form_3psi3_b_matches_series():
    b, c, d = 0.9, 0.7, 1.1
    got = closed_form("bailey_3psi3_b", (b, c, d), Q)
    ser = psi((b, c, d), (Q ** 2 / b, Q ** 2 / c, Q ** 2 / d),
              Q ** 2 / (b * c * d))
    assert got == pytest.approx(ser, rel=1e-11)


def test_closed_form_region_errors():
    with pytest.raises(RegionError):
        closed_form("q_binomial", (0.5, 1.1), Q)
    with pytest.raises(RegionError):
        closed_form("ramanujan_1psi1", (0.9, 0.6, 0.5), Q)  # |b/a| > |z|
    with pytest.raises(DomainError):
        closed_form("no_such_sum", (1.0,), Q)


@pytest.mark.parametrize("name,params", [
    ("bailey_2psi2_single", (0.9, 0.8, 0.1, 0.2, 0.5)),
    ("bailey_2psi2_iterated", (0.9, 0.8, 0.1, 0.2, 0.5)),
    ("wellpoised_6psi8", (0.5, 0.9, 0.8, 0.7, 0.6)),
])
def test_transform_residuals(name, params):
    assert transform_residual(name, params, Q) <= 1e-9


def test_transform_residuals_sampled_in_region():
    rng = np.random.default_rng(3)
    for _ in range(6):
        while True:
            a, b, c, d, z = np.array([0.9, 0.8, 0.1, 0.2, 0.5]) * \
                rng.uniform(0.85, 1.15, size=5)
            if max(z, c * d / (a * b * z), d / a, c / b) < 1:
                break
        for name in ("bailey_2psi2_single", "bailey_2psi2_iterated"):
            assert transform_residual(name, (a, b, c, d, z), Q) <= 1e-12


def test_transform_region_error():
    with pytest.raises(RegionError):
        transform_residual("bailey_2psi2_single", (0.9, 0.8, 0.1, 0.2, 1.4), Q)


def _transcribed_tail(policy):
    """The tail rule of the term loop, as a stepper: record a nonzero
    term's and the partial sum's moduli; True once the tail is accepted."""
    state = {"below": 0, "growth": 0, "terms": 0, "prev": INFINITY}

    def update(term_mag, sum_mag):
        state["terms"] += 1
        if not (term_mag < INFINITY and sum_mag < INFINITY):
            raise NonConvergence("series term or partial sum is not finite")
        if term_mag > state["prev"] * GROWTH_SLACK:
            state["growth"] += 1
            if state["growth"] >= 8 * TAIL_WINDOW:
                raise NonConvergence(
                    "series terms grew for %d consecutive steps" % state["growth"])
        else:
            state["growth"] = 0
        state["prev"] = term_mag
        if term_mag <= policy.rel_tol * sum_mag + _TAIL_FLOOR:
            state["below"] += 1
            if state["below"] >= TAIL_WINDOW:
                return True
        else:
            state["below"] = 0
        if state["terms"] >= policy.max_terms:
            raise NonConvergence(
                "series did not converge within %d terms" % policy.max_terms)
        return False
    return update


def _transcribed_sum(upper, lower, q, z, n_top, m_bot, policy):
    """The k >= 0 loop and the k < 0 loop of the psi sum written out one
    step at a time, every factor kept, with a CompensatedSum."""
    acc = CompensatedSum()
    acc.add(1.0 + 0j)
    d = len(lower) - len(upper)
    t, qk, k, tail = 1.0 + 0j, 1.0 + 0j, 0, _transcribed_tail(policy)
    while n_top is None or k < n_top:
        num = 1.0 + 0j
        for a in upper:
            num *= (1.0 - a * qk)
        den = 1.0 + 0j
        for b in lower:
            f = 1.0 - b * qk
            if f == 0:
                raise PoleError(f"lower parameter {b} hits the q^-k lattice")
            den *= f
        t = t * num / den * ((-1.0) * qk) ** d * z
        qk *= q
        k += 1
        if t == 0:
            break
        acc.add(t)
        if n_top is None and tail(abs(t), abs(acc.value)):
            break
    t, v, m, tail = 1.0 + 0j, q, 0, _transcribed_tail(policy)
    while m_bot is None or m < m_bot:
        num = 1.0 + 0j
        for b in lower:
            num *= (v - b)
        den = 1.0 + 0j
        for a in upper:
            f = v - a
            if f == 0:
                raise PoleError(f"upper parameter {a} hits the q^k lattice")
            den *= f
        t = t * (-1.0) ** d * num / den / z
        v *= q
        m += 1
        if t == 0:
            break
        acc.add(t)
        if m_bot is None and tail(abs(t), abs(acc.value)):
            break
    return acc.value, k + m + 1


def _bits(fn, *args):
    try:
        value, terms = fn(*args)
    except (NonConvergence, PoleError) as exc:
        return type(exc), str(exc)
    return value.real.hex(), value.imag.hex(), terms


def test_sums_equal_the_transcribed_term_loops_bit_for_bit():
    # random specs, a fifth with a zero lower parameter placed first (the
    # k >= 0 loop skips its factor 1 + 0j; the k < 0 loop keeps v - 0)
    rng = np.random.default_rng(1608)
    policy = TruncationPolicy()
    compared = zeros = 0
    for i in range(1500):
        q = (0.3, 0.7, 0.9, 0.4 + 0.3j)[i % 4]
        r = int(rng.integers(0, 4))
        upper = tuple(complex(rng.uniform(0.05, 1.5)
                              * np.exp(1j * rng.uniform(-np.pi, np.pi)))
                      for _ in range(r))
        lower = [complex(rng.uniform(0.05, 1.5)
                         * np.exp(1j * rng.uniform(-np.pi, np.pi)))
                 for _ in range(int(rng.integers(r, r + 3)))]
        if lower and rng.random() < 0.2:
            lower[0] = 0j
        if upper and rng.random() < 0.1:
            upper = (q ** -int(rng.integers(0, 5)),) + upper[1:]
        z = complex(rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        unilateral = i % 2 == 1
        spec = SeriesSpec(UNILATERAL if unilateral else BILATERAL,
                          upper, tuple(lower), q, z)
        try:
            got = _bits(sum_phi if unilateral else sum_psi, spec, policy)
        except (RegionError, DomainError):   # refused before the loop
            continue
        n_top = terminates_above(spec.upper, spec.q)
        if unilateral:
            want = _bits(_transcribed_sum, spec.upper, (spec.q,) + spec.lower,
                         spec.q, spec.z, n_top, 0, policy)
        else:
            want = _bits(_transcribed_sum, spec.upper, spec.lower, spec.q,
                         spec.z, n_top, terminates_below(spec.lower, spec.q),
                         policy)
        assert got == want, spec
        compared += 1
        zeros += 0j in spec.lower
    assert compared > 1000 and zeros > 150


def test_off_annulus_scalar_and_array_values_are_identical(params):
    # the per-point continuation gives an array call, and each row of a
    # range call, the scalar values exactly, for every n of the
    # benchmark's range and beyond: rows the pole expansion gives (every
    # row at the defaults and at (0.7, 0.5, 1.5), whose annulus is empty)
    # and rows it refuses for its ring ratio, where the mirrored rings do
    # not settle below ratio 1 and the recurrence takes over (n = -12..-1
    # at (0.85, 0.8, 0.3))
    rng = np.random.default_rng(16)
    radius = rng.uniform(0.35, 0.58, 8)
    arg = rng.uniform(0.15, np.pi - 0.15, 8) * rng.choice([-1, 1], 8)
    inner = radius * np.exp(1j * arg)
    zs = np.concatenate([inner, 1 / inner])
    for family, gate in ((params, set()), (UltraParams(0.5, 1.5, 0.7), set()),
                         (UltraParams(0.8, 0.3, 0.85), set(range(-12, 0)))):
        assert not direct_region_mask(zs, family.beta, family.q).any()
        rows = bilateral_cn_range(-12, 12, SpectralPoint(zs), family)
        gated = set()
        for n in range(-12, 13):
            array = bilateral_cn(n, SpectralPoint(zs), family).value
            scalar = [bilateral_cn(n, SpectralPoint(complex(z)), family).value
                      for z in zs]
            assert np.array_equal(array, scalar), n
            assert np.array_equal(rows[n], scalar), n
            try:
                _PoleRings(complex(zs[0]), family, DEFAULT_POLICY).value(n)
            except RegionError as exc:
                if "ring ratio" in str(exc):
                    gated.add(n)
        assert gated == gate


def test_series_input_checks():
    with pytest.raises(DomainError, match="unknown series kind 'trilateral'"):
        SeriesSpec("trilateral", (), (), Q, 0.5)
    with pytest.raises(DomainError, match="sum_phi requires a unilateral spec"):
        sum_phi(SeriesSpec(BILATERAL, (0.5,), (0.4,), Q, 0.5))
    with pytest.raises(DomainError, match="sum_psi requires a bilateral spec"):
        sum_psi(SeriesSpec(UNILATERAL, (0.5,), (0.4,), Q, 0.5))
    with pytest.raises(RegionError, match="nonterminating 3psi2 diverges for r > s"):
        psi((0.5, 0.4, 0.3), (0.6, 0.7), 0.5)
    # terminating above, so only the k < 0 side can diverge
    with pytest.raises(RegionError, match="nonterminating 3psi2 diverges for r > s"):
        psi((Q ** -2, 0.4, 0.3), (0.6, 0.7), 0.5)
    with pytest.raises(RegionError, match="nonterminating 4phi2 diverges for r > s [+] 1"):
        phi((0.5, 0.4, 0.3, 0.2), (0.6, 0.7), 0.5)


def test_closed_form_input_checks():
    with pytest.raises(DomainError, match=r"^expected 3 parameters \(a, b, c\), got 2$"):
        closed_form("q_gauss", (0.5, 0.4), Q)
    for name, params, message in (
            ("q_gauss", (0.5, 0.4, 0.3), "q_gauss requires |c/ab| < 1"),
            ("q_kummer_2psi2", (0.5, 0.1, 0.2), "q_kummer_2psi2 requires |aq/bc| < 1"),
            ("bailey_3psi3_a", (0.5, 0.4, 0.3), "bailey_3psi3_a requires |q/bcd| < 1"),
            ("bailey_3psi3_b", (0.5, 0.4, 0.3), "bailey_3psi3_b requires |q^2/bcd| < 1")):
        with pytest.raises(RegionError) as info:
            closed_form(name, params, Q)
        assert str(info.value) == message


def test_transform_input_checks():
    with pytest.raises(RegionError, match="bailey_2psi2_iterated requires"):
        transform_residual("bailey_2psi2_iterated", (0.9, 0.8, 0.1, 0.2, 1.4), Q)
    with pytest.raises(RegionError, match="wellpoised_6psi8 requires"):
        transform_residual("wellpoised_6psi8", (0.5, 0.1, 0.2, 0.7, 0.6), Q)
    with pytest.raises(DomainError, match="expected 5 parameters"):
        transform_residual("wellpoised_6psi8", (0.5, 0.9), Q)
    with pytest.raises(DomainError, match="unknown transformation 'bailey_9psi9'"):
        transform_residual("bailey_9psi9", (0.5,), Q)


def test_transform_prefactor_pole_names_its_product():
    # d = 1: (d; q)_inf of the prefactor's denominator vanishes
    with pytest.raises(PoleError, match=r"^\(d; q\)_inf vanishes at d = q\^0$"):
        transform_residual("bailey_2psi2_iterated", (5.0, 4.0, 0.1, 1.0, 0.5), Q)

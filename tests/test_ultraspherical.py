import math

import numpy as np
import pytest

from qultra import (DEFAULT_POLICY, UNILATERAL, DomainError, NonConvergence,
                    PoleError, RegionError, SeriesSpec, SpectralPoint,
                    TruncationPolicy, UltraParams,
                    bilateral_cn, bilateral_cn_psi_form, classical_cn,
                    constant_term, eval_phi, generating_rhs,
                    linearization_residual, recurrence_residual,
                    special_value_c0, special_value_cm1, symmetry_residual)
from qultra.ultraspherical import (_bilateral_22tgl, _bilateral_6psi8,
                                   bilateral_cn_range, in_direct_region)

Q, BETA, GAMMA = 0.3, 0.8, 0.7


def test_classical_degree_zero_and_one(points):
    for p in points:
        assert classical_cn(0, p, BETA, Q) == 1.0
        want = 2 * p.x * (1 - BETA) / (1 - Q)
        assert classical_cn(1, p, BETA, Q) == pytest.approx(want, rel=1e-14)


def test_classical_matches_recurrence_buildup():
    p = SpectralPoint.from_theta(0.4)
    x = p.x
    c = [1.0 + 0j, 2 * x * (1 - BETA) / (1 - Q)]
    for n in range(1, 4):
        nxt = (2 * x * (1 - BETA * Q ** n) * c[n]
               - (1 - BETA ** 2 * Q ** (n - 1)) * c[n - 1]) / (1 - Q ** (n + 1))
        c.append(nxt)
    assert classical_cn(4, p, BETA, Q) == pytest.approx(c[4], abs=1e-12)


def test_classical_rejects_negative_degree(points):
    with pytest.raises(DomainError):
        classical_cn(-1, points[0], BETA, Q)


def test_bilateral_frozen_oracle(params):
    # independent 40-digit two-sided summation
    p = SpectralPoint.from_theta(1.0)
    uv = bilateral_cn(2, p, params)
    assert uv.value == pytest.approx(0.044599497577432457363, rel=1e-10)
    assert uv.truncation_terms <= 10000


def test_bilateral_gamma_one_reduction(points):
    reduced = UltraParams(BETA, 1.0, Q)
    for p in points:
        for n in range(0, 9):
            got = bilateral_cn(n, p, reduced).value
            want = classical_cn(n, p, BETA, Q)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_bilateral_gamma_one_negative_index_vanishes():
    reduced = UltraParams(BETA, 1.0, Q)
    p = SpectralPoint.from_theta(0.4)
    assert bilateral_cn(-3, p, reduced).value == 0.0


def test_bilateral_parity(params, points):
    for p in points:
        mirrored = SpectralPoint(-p.z)  # x -> -x
        for n in (-3, -2, 0, 2, 5):
            a = bilateral_cn(n, p, params).value
            b = bilateral_cn(n, mirrored, params).value
            assert b == pytest.approx((-1) ** n * a, rel=1e-12, abs=1e-12)


def test_bilateral_z_inversion(params, points):
    for p in points:
        for n in (-2, 1, 4):
            a = bilateral_cn(n, p, params).value
            b = bilateral_cn(n, p.inverse(), params).value
            assert a == pytest.approx(b, rel=1e-12)


def test_bilateral_psi_form_crosscheck(params, points):
    for p in points:
        for n in (-3, 0, 2):
            direct = bilateral_cn(n, p, params).value
            psi = bilateral_cn_psi_form(n, p, params)
            assert direct == pytest.approx(psi, rel=1e-11)


def test_bilateral_array_evaluation(params):
    thetas = np.linspace(0.3, 2.8, 9)
    zs = np.exp(1j * thetas)
    uv = bilateral_cn(2, SpectralPoint(zs), params)
    for z, v in zip(zs, uv.value):
        want = bilateral_cn(2, SpectralPoint(complex(z)), params).value
        assert v == pytest.approx(want, rel=1e-13)


def test_bilateral_pole_lattices(points):
    with pytest.raises(PoleError):
        bilateral_cn(0, points[0], UltraParams(BETA, Q ** -2, Q))
    with pytest.raises(PoleError):
        bilateral_cn(0, points[0], UltraParams(Q ** 2 / GAMMA, GAMMA, Q))


def test_recurrence_classical_lowest_degree(points):
    for p in points:
        assert recurrence_residual("classical", 1, p,
                                   UltraParams(BETA, 1.0, Q)) <= 1e-12


@pytest.mark.parametrize("n", range(-6, 7))
def test_recurrence_bilateral(n, params, points):
    for p in points:
        assert recurrence_residual("bilateral", n, p, params) <= 1e-10


@pytest.mark.parametrize("n", [-4, -2, 0, 3, 4])
def test_symmetry(n, params, points):
    for p in points:
        assert symmetry_residual(n, p, params) <= 1e-10


def test_constant_terms_at_x_zero(params):
    p = SpectralPoint(1j)  # x = 0
    for n in range(-4, 5):
        want = constant_term(n, params)
        got = bilateral_cn(n, p, params).value
        if n % 2:
            assert abs(want) == 0.0
            assert abs(got) <= 1e-9
        else:
            assert abs(got - want) <= 1e-9


def test_constant_term_classical_reduction():
    assert constant_term(0, UltraParams(BETA, 1.0, Q)) == pytest.approx(1.0, rel=1e-13)
    # classical C_{2m}(0) = (-1)^m (beta^2; q^2)_m / (q^2; q^2)_m
    from qultra.qcore import poch, poch_recip
    got = constant_term(4, UltraParams(BETA, 1.0, Q))
    want = poch(BETA ** 2, Q ** 2, 2) * poch_recip(Q ** 2, Q ** 2, 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_special_value_c0(params):
    p = SpectralPoint(complex(Q ** 0.25))
    got = bilateral_cn(0, p, params).value
    want = special_value_c0(params)
    assert got == pytest.approx(want, rel=1e-10)


def test_cm1_continuations_agree_but_differ_from_stated_product(params):
    """At z = q^{1/2} the two independent continuation routes agree to
    machine precision; the stated closed product differs from them (its
    derivation drops a sign on the k < 0 terms), which is reported here
    as a stable, reproducible gap."""
    z = complex(Q ** 0.5)
    got = bilateral_cn(-1, SpectralPoint(z), params).value
    route_b, _ = _bilateral_22tgl(-1, z, params, __import__("qultra").DEFAULT_POLICY)
    assert got == pytest.approx(route_b, rel=1e-12)
    stated = special_value_cm1(params)
    assert abs(got - stated) > 0.1  # the documented discrepancy


def test_cm1_reference_against_direct_sum():
    """At beta = 1.3 the point z = q^{1/2} is inside the direct region, so
    the reference used by acceptance check 08b is certified there without
    any continuation: the sign-flipped halves of the defining sum give the
    stated product, and the full sum gives the product plus the 3phi2
    closed form of twice the k < 0 half."""
    beta, bg = 1.3, 1.3 * GAMMA
    wide = UltraParams(beta, GAMMA, Q)
    z = Q ** 0.5
    assert in_direct_region(z, beta, Q)

    # g_j = (beta gamma; q)_j / (q gamma; q)_j by its one-step recursion
    # both ways from g_0 = 1
    g = {0: 1.0}
    for j in range(201):
        g[j + 1] = g[j] * (1 - bg * Q ** j) / (1 - GAMMA * Q ** (j + 1))
        g[-j - 1] = g[-j] * (1 - GAMMA * Q ** -j) / (1 - bg * Q ** (-j - 1))
    upper = sum(g[k] * g[-1 - k] * z ** (-1 - 2 * k) for k in range(200))
    lower = sum(g[k] * g[-1 - k] * z ** (-1 - 2 * k) for k in range(-200, 0))
    assert upper - lower == pytest.approx(special_value_cm1(wide), rel=1e-13)

    phi = eval_phi(SeriesSpec(UNILATERAL, (bg / Q, 1 / GAMMA, Q), (Q / bg, GAMMA),
                              Q, Q ** 2 / beta))
    reference = special_value_cm1(wide) + 2 * z * (1 - GAMMA) / (Q - bg) * (phi - 1)
    direct = bilateral_cn_range(-1, -1, SpectralPoint(z), wide, DEFAULT_POLICY)[-1]
    assert direct == pytest.approx(reference, rel=1e-12)
    assert upper + lower == pytest.approx(reference, rel=1e-12)


def test_in_region_values_match_continuations(params):
    # overlap check: direct sum vs both continuations at beta = 1.3 where
    # the q^{1/2}-shifted point is inside the direct region
    from qultra import DEFAULT_POLICY
    wide = UltraParams(1.3, GAMMA, Q)
    z = complex(Q ** 0.5) * np.exp(0.4j)
    assert in_direct_region(z, 1.3, Q)
    direct = bilateral_cn_range(0, 0, SpectralPoint(z), wide, DEFAULT_POLICY)[0]
    via8, _ = _bilateral_6psi8(0, z, wide, DEFAULT_POLICY)
    viat, _ = _bilateral_22tgl(0, z, wide, DEFAULT_POLICY)
    assert direct == pytest.approx(via8, rel=1e-12)
    assert direct == pytest.approx(viat, rel=1e-12)


def test_continuation_gamma_mirror_consistency(params):
    # C_0(x; beta, gamma) = C_0(x; beta, 1/(beta gamma)) continued at the
    # out-of-region point z = q^{1/2}: two different parameter sets, same x
    p = SpectralPoint(complex(Q ** 0.5))
    a = bilateral_cn(0, p, params).value
    b = bilateral_cn(0, p, params.with_gamma(1 / (BETA * GAMMA))).value
    assert a == pytest.approx(b, rel=1e-9)


def test_generating_rhs_classical_trivial(params, points):
    assert generating_rhs("classical", 0.0, points[0], params) == 1.0


def test_generating_rhs_classical_sum(params, points):
    t = 0.6
    for p in points:
        acc = sum(classical_cn(n, p, BETA, Q) * t ** n for n in range(80))
        rhs = generating_rhs("classical", t, p, params)
        assert acc == pytest.approx(rhs, rel=1e-10)


def test_generating_rhs_bilateral_sum(params, points):
    t = 0.6
    for p in points:
        rhs = generating_rhs("bilateral", t, p, params)
        acc = bilateral_cn(0, p, params).value + 0j
        for n in range(1, 120):
            shell = (bilateral_cn(n, p, params).value * t ** n
                     + bilateral_cn(-n, p, params).value * t ** -n)
            acc += shell
            if abs(shell) < 1e-13 * abs(rhs):
                break
        assert acc == pytest.approx(rhs, rel=1e-8)


def test_generating_rhs_gamma_one_collapses(points):
    # at gamma = 1 the prefactor collapses to 1 and the two extra products
    # cancel, leaving exactly the classical generating function
    reduced = UltraParams(BETA, 1.0, Q)
    t = 0.6
    for p in points:
        bil = generating_rhs("bilateral", t, p, reduced)
        cla = generating_rhs("classical", t, p, reduced)
        assert bil == pytest.approx(cla, rel=1e-12)


def test_generating_rhs_region_errors(params, points):
    with pytest.raises(RegionError):
        generating_rhs("bilateral", 0.2, points[0], params)  # |t z| < q/beta
    with pytest.raises(RegionError):
        generating_rhs("classical", 1.2, points[0], params)
    # an array is checked at every t
    with pytest.raises(RegionError):
        generating_rhs("bilateral", np.array([0.6, 0.2]), points[0], params)
    with pytest.raises(RegionError):
        generating_rhs("classical", np.array([0.6, 1.2]), points[0], params)


def test_generating_rhs_on_an_array_of_t(params, points):
    ts = 0.6 * np.exp(2j * np.pi * np.arange(16) / 16)
    for kind in ("bilateral", "classical"):
        for p in points:
            got = generating_rhs(kind, ts, p, params)
            assert got.shape == ts.shape
            want = [generating_rhs(kind, complex(t), p, params) for t in ts]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_laurent_coefficients_recover_values(params):
    # trapezoid samples on |t| = 0.6 are spectrally accurate: doubling the
    # grid until two sizes agree pins each coefficient
    p = SpectralPoint.from_theta(1.0)
    r = 0.6
    m = 128
    phis = 2 * np.pi * np.arange(m) / m
    samples = np.array([generating_rhs("bilateral", r * np.exp(1j * ph), p, params)
                        for ph in phis])
    coeff = np.fft.fft(samples) / m
    for n in range(-4, 5):
        want = bilateral_cn(n, p, params).value
        got = coeff[n % m] / r ** n
        assert abs(got - want) <= 1e-7


def test_linearization_degenerate(points):
    for p in points:
        assert linearization_residual(0, 3, p, BETA, Q) <= 1e-14


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 4), (4, 4)])
def test_linearization(m, n, points):
    for p in points:
        assert linearization_residual(m, n, p, BETA, Q) <= 1e-11


def test_bilateral_region_error_when_no_route():
    # gamma makes both continuation conditions fail and alpha sits on the
    # lattice, so the far-out real point cannot be evaluated
    params = UltraParams(0.8, 3.9, 0.3)
    p = SpectralPoint(complex(0.3 ** 0.5))
    with pytest.raises((RegionError, PoleError)):
        # n chosen so the transformed-series conditions fail on both sides
        bilateral_cn(6, p, params)


# ------------------------------------------------- one pass over a range of n

def _mp_rows(n_lo, n_hi, zs, digits=30, qbg=(Q, BETA, GAMMA), pad=70):
    """[{n: (C_n(z), sum_k |term_k|)} for z in zs] for n_lo <= n <= n_hi by
    the defining sum C_n(z) = sum_k g_k g_{n-k} z^{n-2k} in mpmath at
    (q, beta, gamma) = qbg, with g_j by its one-step recursions from
    g_0 = 1 and k running pad terms past the plateau on each side (at the
    defaults 0.375^70 < 1e-29).  The magnitude sum is summed in double from
    the logarithms of its factors, since near the edge of the annulus the
    factors of a term overflow a double where the term does not."""
    import mpmath as mp
    with mp.workdps(digits):
        q, bg = mp.mpf(qbg[0]), mp.mpf(qbg[1]) * mp.mpf(qbg[2])
        gq = q * mp.mpf(qbg[2])
        lo, hi = min(0, n_lo) - pad, max(0, n_hi) + pad
        g, qj = {0: mp.mpf(1)}, mp.mpf(1)
        for j in range(hi - lo + 1):
            g[j + 1] = g[j] * (1 - bg * qj) / (1 - gq * qj)
            g[-j - 1] = g[-j] * (qj * q - gq) / (qj * q - bg)
            qj *= q
        lg = {j: float(mp.log(abs(v))) for j, v in g.items()}
        out = []
        for z in zs:
            z = mp.mpc(z)
            w, lr = 1 / (z * z), float(mp.log(abs(z)))
            a, wk = {}, w ** lo
            for k in range(lo, hi + 1):      # a_k = g_k z^{-2k}
                a[k] = g[k] * wk
                wk *= w
            la = {k: float(mp.log(abs(v))) for k, v in a.items()}
            rows = {}
            for n in range(n_lo, n_hi + 1):
                ks = range(min(0, n) - pad, max(0, n) + pad + 1)
                value = z ** n * mp.fdot([a[k] for k in ks], [g[n - k] for k in ks])
                scale = math.fsum(math.exp(la[k] + lg[n - k] + n * lr) for k in ks)
                rows[n] = complex(value), scale
            out.append(rows)
        return out


def test_range_rows_match_one_row_calls(params):
    zs = np.exp(1j * np.linspace(0.2, 2.9, 7))
    rows = bilateral_cn_range(-12, 12, SpectralPoint(zs), params)
    assert rows.values.shape == (25, 7) and (rows.n_lo, rows.n_hi) == (-12, 12)
    for n in range(-12, 13):
        one = bilateral_cn(n, SpectralPoint(zs), params)
        assert rows.truncation_terms[n + 12] == one.truncation_terms
        np.testing.assert_allclose(rows[n], one.value, rtol=1e-13, atol=0)
    p = SpectralPoint.from_theta(1.0)
    rows = bilateral_cn_range(-5, 3, p, params)
    for n in range(-5, 4):
        one = bilateral_cn(n, p, params)
        assert rows.truncation_terms[n + 5] == one.truncation_terms
        assert rows[n] == pytest.approx(one.value, rel=1e-13)
    with pytest.raises(IndexError):
        rows[4]


def test_range_matches_mpmath_on_unit_circle_nodes(params):
    """n = -25..25 at the 127 interior nodes of the 128-interval rule.
    C_n is real on the circle and vanishes inside it (at x = 0 for odd n),
    so the error is measured against sum_k |term_k|, the scale of the
    rounding in any double-precision sum of the series."""
    thetas = np.pi / 128 * np.arange(1, 128)
    zs = np.exp(1j * thetas)
    rows = bilateral_cn_range(-25, 25, SpectralPoint(zs), params)
    # node 126 - j is -conj(z), where C_n is (-1)^n conj C_n(z)
    for j, ref in enumerate(_mp_rows(-25, 25, zs[:64])):
        for n, (want, scale) in ref.items():
            assert abs(rows[n][j] - want) <= 1e-13 * scale, (n, thetas[j])
            mirror = (-1) ** n * want.conjugate()
            assert abs(rows[n][126 - j] - mirror) <= 1e-13 * scale, (n, thetas[j])


def test_range_matches_mpmath_at_suite_points(params, points):
    refs = _mp_rows(-60, 60, [p.z for p in points])
    for p, ref in zip(points, refs):
        rows = bilateral_cn_range(-60, 60, p, params)
        for n, (want, scale) in ref.items():
            assert abs(rows[n] - want) <= 1e-13 * scale, n


def test_range_small_row_keeps_its_own_tolerance(params):
    # C_{-40} is about 1e-17 of C_10; a tail rule shared across the block
    # would stop C_{-40} at an absolute error near 1e-13
    p = SpectralPoint.from_theta(1.0)
    rows = bilateral_cn_range(-40, 10, p, params)
    ref = _mp_rows(-40, 10, [p.z])[0]
    small, big = ref[-40][0], ref[10][0]
    assert abs(small) < 1e-12 * abs(big)
    assert rows[-40] == pytest.approx(small, rel=1e-12)
    assert rows.truncation_terms[0] == bilateral_cn(-40, p, params).truncation_terms


def test_range_keeps_the_shape_of_a_2d_point(params):
    zs = np.exp(1j * np.linspace(0.3, 2.7, 12)).reshape(3, 4)
    rows = bilateral_cn_range(-2, 3, SpectralPoint(zs), params)
    assert rows.values.shape == (6, 3, 4)
    assert bilateral_cn(1, SpectralPoint(zs), params).value.shape == (3, 4)
    assert rows[1][2, 3] == pytest.approx(
        bilateral_cn(1, SpectralPoint(complex(zs[2, 3])), params).value, rel=1e-13)


def test_range_mixed_points_route_each_point(params):
    # one point inside the direct annulus, one continued
    inside, outside = complex(np.exp(0.7j)), 0.5 * np.exp(0.9j)
    rows = bilateral_cn_range(-2, 2, SpectralPoint(np.array([inside, outside])),
                              params)
    for n in range(-2, 3):
        assert rows[n][0] == pytest.approx(
            bilateral_cn(n, SpectralPoint(inside), params).value, rel=1e-13)
        assert rows[n][1] == bilateral_cn(n, SpectralPoint(outside), params).value


def test_range_errors_propagate(params, points):
    with pytest.raises(PoleError):
        bilateral_cn_range(-3, 3, points[0], UltraParams(BETA, Q ** -2, Q))
    with pytest.raises(NonConvergence):
        bilateral_cn_range(-3, 3, points[0], params,
                           TruncationPolicy(max_terms=5, tail_window=3))
    with pytest.raises((RegionError, PoleError)):
        bilateral_cn_range(5, 7, SpectralPoint(complex(Q ** 0.5)),
                           UltraParams(0.8, 3.9, Q))
    with pytest.raises(DomainError):
        bilateral_cn_range(2, 1, points[0], params)


def test_range_widened_adds_only_missing_rows(params, points, monkeypatch):
    import qultra.ultraspherical as us
    rows = bilateral_cn_range(-2, 2, points[0], params)
    asked = []
    real = us.bilateral_cn_range

    def spy(n_lo, n_hi, *args):
        asked.append((n_lo, n_hi))
        return real(n_lo, n_hi, *args)

    monkeypatch.setattr(us, "bilateral_cn_range", spy)
    wide = rows.widened(-4, 5)
    assert asked == [(-4, -3), (3, 5)]
    assert rows.widened(-1, 1) is rows
    for n in range(-4, 6):
        assert wide[n] == pytest.approx(bilateral_cn(n, points[0], params).value,
                                        rel=1e-13)


def test_constant_term_large_negative_index(params):
    import warnings
    p = SpectralPoint(1j)
    for n in (-60, -80):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = constant_term(n, params)
        got = bilateral_cn(n, p, params).value
        ref, scale = _mp_rows(n, n, [1j])[0][n]
        assert want == pytest.approx(ref, rel=1e-12)
        assert abs(got - ref) <= 1e-13 * scale


def test_range_at_the_edge_of_the_annulus():
    # region ratios 0.97 on each side: the slow tail needs about 1000 terms,
    # where unscaled powers |z|^{-2k} and g_{n-k} over- and underflow
    q, beta, gamma = 0.1, 0.95, 0.3
    r_in, r_out = math.sqrt(q / (0.97 * beta)), math.sqrt(0.97 * beta / q)
    zs = np.array([r_in * np.exp(1.1j), r_out * np.exp(2.0j)])
    rows = bilateral_cn_range(-30, 30, SpectralPoint(zs), UltraParams(beta, gamma, q))
    largest = math.log(np.finfo(float).max)
    assert -2 * rows.truncation_terms.min() * math.log(r_in) > largest
    refs = _mp_rows(-30, 30, zs, qbg=(q, beta, gamma), pad=1300)
    for j, ref in enumerate(refs):
        for n, (want, scale) in ref.items():
            assert abs(rows[n][j] - want) <= 1e-13 * scale, (n, j)


def _stepwise_terms(n, zs, qbg, policy=DEFAULT_POLICY):
    """Terms of C_n at the points zs counted by the step-by-step two-sided
    loop in plain Python: per side, step s adds the term k = s (upper) or
    k = -1 - s (lower) at every point.  A side stops at a zero term, which
    it does not count, or after tail_window terms in a row whose largest
    modulus over the points is at most rel_tol times the largest modulus
    of the side's running partial sum plus abs_tol."""
    q, beta, gamma = (complex(v) for v in qbg)
    bg, gq = beta * gamma, q * gamma
    g = {0: 1.0 + 0j}
    for j in range(1, 400):
        g[j] = g[j - 1] * (1 - bg * q ** (j - 1)) / (1 - gq * q ** (j - 1))
        g[-j] = g[1 - j] * (q ** j - gq) / (q ** j - bg)
    window = 8 * policy.tail_window + 2 * abs(n) + 8
    total = 0
    for side in (1, -1):
        partial = [0j] * len(zs)
        prev, growth, below = math.inf, 0, 0
        for step in range(policy.max_terms):
            k = step if side == 1 else -1 - step
            terms = [g[k] * g[n - k] * z ** (n - 2 * k) for z in zs]
            partial = [a + t for a, t in zip(partial, terms)]
            tm = max(abs(t) for t in terms)
            assert tm < math.inf
            growth = growth + 1 if tm > prev * (1 + 1e-6) else 0
            prev = tm
            assert growth < window
            if tm == 0:
                total += step
                break
            small = tm <= policy.rel_tol * max(map(abs, partial)) + policy.abs_tol
            below = below + 1 if small else 0
            if below >= policy.tail_window:
                total += step + 1
                break
    return total


@pytest.mark.parametrize("qbg", [(Q, BETA, GAMMA), (0.1, 0.95, 0.3), (0.3, 1.2, 0.7)])
def test_range_terms_match_the_stepwise_loop(qbg, points):
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    circle = np.array([p.z for p in points])
    point_sets = [circle, circle[1:2], np.array([0.8 * np.exp(0.7j)]),
                  np.array([1.3 * np.exp(2.5j), 0.9 * np.exp(1.2j)])]
    for zs in point_sets:
        assert in_direct_region(zs, beta, q)
        rows = bilateral_cn_range(-20, 20, SpectralPoint(zs), params)
        for n in (-20, -13, -6, -1, 0, 1, 5, 12, 20):
            want = _stepwise_terms(n, list(zs), qbg)
            assert rows.truncation_terms[n + 20] == want, (n, zs)


def test_cli_table_matches_in_process_values(params, capsys):
    import csv
    import io
    from qultra.cli import main
    assert main(["table", "--n-min", "-6", "--n-max", "6", "--theta-min", "0.1",
                 "--theta-max", "3.0", "--theta-steps", "5"]) == 0
    lines = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert lines[0] == ["n", "theta", "re", "im", "terms"]
    thetas = np.linspace(0.1, 3.0, 5)
    assert [(int(r[0]), float(r[1])) for r in lines[1:]] == [
        (n, float(t)) for n in range(-6, 7) for t in thetas]
    for row in lines[1:]:
        one = bilateral_cn(int(row[0]), SpectralPoint.from_theta(float(row[1])), params)
        got = complex(float(row[2]), float(row[3]))
        assert abs(got - one.value) <= 1e-13 * abs(one.value), row
        assert int(row[4]) == one.truncation_terms

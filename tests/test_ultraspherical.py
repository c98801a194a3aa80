import cmath
import math
import warnings

import numpy as np
import pytest

from qultra import (BILATERAL, DEFAULT_POLICY, UNILATERAL, DomainError,
                    NonConvergence, PoleError, QSeriesError, RegionError, SeriesSpec,
                    SpectralPoint, TruncationPolicy, UltraParams,
                    bilateral_cn, bilateral_cn_continued,
                    bilateral_cn_psi_form, classical_cn,
                    constant_term, generating_rhs, linearization_residual,
                    recurrence_residual, special_value_c0,
                    special_value_cm1, sum_phi, sum_psi, symmetry_params,
                    symmetry_residual)
from qultra.qcore import is_q_power
import qultra.ultraspherical as us
from qultra.ultraspherical import (DIRECT_REGION_MARGIN, _direct_rows,
                                   _PoleRings, _RouteUnusable, _tail_bound,
                                   _z_powers, bilateral_cn_range,
                                   direct_region_mask, in_direct_region)
from qultra.verify import CONFIG_DEFAULTS

Q, BETA, GAMMA = (CONFIG_DEFAULTS[k] for k in ("q", "beta", "gamma"))


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


@pytest.mark.parametrize("z", [3.0, 0.3, np.array([1j, 0.3]), 1.5e308 + 1.5e308j,
                               np.array([1j, 1.5e308 + 1.5e308j])])
def test_classical_power_beyond_the_double_range_is_nonconvergence(z):
    # |z|^{+-700} leaves the double range: nan after four warnings at
    # z = 3, and 0j at z = 0.3, where C_700 is near 0.3^-700 in size;
    # |1.5e308 (1 + i)| is itself above the largest double, so C_1 there
    # is an error too, not an OverflowError from abs(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="overflowed"):
            classical_cn(700, SpectralPoint(z), 0.8, 0.3)
        if np.any(np.real(z) > 1e308):
            with pytest.raises(NonConvergence, match="overflowed"):
                classical_cn(1, SpectralPoint(z), 0.8, 0.3)
        assert cmath.isfinite(classical_cn(600, SpectralPoint(3.0), 0.8, 0.3))


@pytest.mark.parametrize("z", [1e200 + 1e200j, 1e-160, 1e-200,
                               np.array([1e200 + 1e200j, 1e-200, 0.5 + 0.1j])])
def test_classical_low_degrees_where_z_squared_leaves_the_double_range(z):
    # z^2 overflows at 1e200 (1 + i), is subnormal at 1e-160 and underflows
    # to 0 at 1e-200, but C_0 = 1 and C_1 = c_1 (z + 1/z) are finite there;
    # a point where z^2 is a normal double keeps its bits
    c1 = (1 - 0.8) / (1 - 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c0_got = classical_cn(0, SpectralPoint(z), 0.8, 0.3)
        c1_got = classical_cn(1, SpectralPoint(z), 0.8, 0.3)
    zs = np.atleast_1d(z)
    assert np.all(np.atleast_1d(c0_got) == 1)
    np.testing.assert_allclose(np.atleast_1d(c1_got), c1 * (zs + 1 / zs), rtol=1e-15)
    if np.ndim(z):
        alone = classical_cn(1, SpectralPoint(np.array([0.5 + 0.1j])), 0.8, 0.3)
        assert c1_got[2:].tobytes() == alone.tobytes()


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


def test_params_reject_non_finite_beta_or_gamma():
    for beta, gamma in ((math.nan, GAMMA), (BETA, math.inf), (BETA, complex(0, math.nan))):
        with pytest.raises(DomainError):
            UltraParams(beta, gamma, Q)


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


@pytest.mark.parametrize("qbg", [(0.3, 0.8, 1.0), (0.3, 0.8, 0.3)])
def test_direct_rows_at_beta_gamma_on_the_nonpositive_lattice(qbg):
    # the mirrored params of gamma = q^0 and q^1 sit on beta gamma' = q^0
    # and q^-1, where g_j = 0 for j >= 1 - m and no denominator vanishes:
    # the direct sum is regular, and its rows are the limit from either
    # side, to O(h^2).  Off the annulus the continuations' (beta gamma';
    # q)_inf vanishes, so those points still refuse
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    mirrored = symmetry_params(params)
    p = SpectralPoint(np.exp(1j * np.array([0.4, 1.0, 2.2])))
    rows = bilateral_cn_range(-4, 4, p, mirrored).values
    mean = sum(bilateral_cn_range(-4, 4, p, mirrored.with_gamma(mirrored.gamma * s)).values
               for s in (1 + 1e-9, 1 - 1e-9)) / 2
    assert np.all(np.abs(mean - rows) <= 1e-13 * np.maximum(1.0, np.abs(rows)))
    for n in range(-4, 5):
        assert symmetry_residual(n, SpectralPoint(np.exp(0.4j)), params) <= 1e-13
    with pytest.raises(PoleError, match="requires a limit evaluation"):
        bilateral_cn_range(-4, 4, SpectralPoint(2 * np.exp(0.3j)), mirrored)


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


def test_constant_terms_off_the_annulus_split_by_parity():
    # at (0.7, 0.4, 0.3) z = i is off the annulus and the pole expansion
    # refuses rows -4..-1 (ring ratio) and every odd row (its rings cancel
    # to 0): the odd rows are exactly 0, and the even rows come from the
    # recurrence, which at x = 0 links only rows of one parity; the
    # products of constant_term hold them to 3e-15.  z^2 = -1 = q/beta at
    # (0.5, -0.5, 0.3) is a singular point of C_n, where no route applies
    params = UltraParams(0.4, 0.3, 0.7)
    assert not in_direct_region(1j, 0.4, 0.7)
    rows = bilateral_cn_range(-4, 4, SpectralPoint(1j), params)
    for n in range(-4, 5):
        want = constant_term(n, params)
        if n % 2:
            assert rows[n] == 0, n
        else:
            assert rows[n] == pytest.approx(want, rel=1e-14), n
    with pytest.raises(PoleError, match="C_n is singular there"):
        bilateral_cn(-4, SpectralPoint(1j), UltraParams(-0.5, 0.3, 0.5))


def test_constant_term_classical_reduction():
    assert constant_term(0, UltraParams(BETA, 1.0, Q)) == pytest.approx(1.0, rel=1e-13)
    # classical C_{2m}(0) = (-1)^m (beta^2; q^2)_m / (q^2; q^2)_m
    from qultra.qcore import poch
    got = constant_term(4, UltraParams(BETA, 1.0, Q))
    want = poch(BETA ** 2, Q ** 2, 2) / poch(Q ** 2, Q ** 2, 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_special_value_c0(params):
    p = SpectralPoint(complex(Q ** 0.25))
    got = bilateral_cn(0, p, params).value
    want = special_value_c0(params)
    assert got == pytest.approx(want, rel=1e-10)


def test_cm1_continuations_agree_but_differ_from_stated_product(params):
    """At z = q^{1/2} the stated closed product differs from C_{-1} (its
    derivation drops a sign on the k < 0 terms), which is reported here
    as a stable, reproducible gap.  z^2 = q is on the q^Z lattice, where
    the pole expansion degenerates, so C_{-1} there is the mean of a
    circle about the point.  Acceptance check 08b holds the
    value against the 3phi2 closed form of the sign-flipped terms."""
    got = bilateral_cn(-1, SpectralPoint(complex(Q ** 0.5)), params).value
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

    phi = sum_phi(SeriesSpec(UNILATERAL, (bg / Q, 1 / GAMMA, Q), (Q / bg, GAMMA),
                             Q, Q ** 2 / beta))[0]
    reference = special_value_cm1(wide) + 2 * z * (1 - GAMMA) / (Q - bg) * (phi - 1)
    direct = bilateral_cn_range(-1, -1, SpectralPoint(z), wide, DEFAULT_POLICY)[-1]
    assert direct == pytest.approx(reference, rel=1e-12)
    assert upper + lower == pytest.approx(reference, rel=1e-12)


def test_in_region_values_match_continuations(params):
    # overlap check: direct sum vs the continuation at beta = 1.3 where
    # the q^{1/2}-shifted point is inside the direct region
    wide = UltraParams(1.3, GAMMA, Q)
    z = complex(Q ** 0.5) * np.exp(0.4j)
    assert in_direct_region(z, 1.3, Q)
    for n in range(-3, 4):
        direct = bilateral_cn_range(n, n, SpectralPoint(z), wide, DEFAULT_POLICY)[n]
        continued = bilateral_cn_continued(n, z, wide, DEFAULT_POLICY).value
        assert direct == pytest.approx(continued, rel=1e-12), n


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


def test_linearization_sequence_equals_its_pair_calls_bit_for_bit(points):
    # one classical_cn per degree and one (a; q)_j table per base serve
    # every pair, with the arithmetic of the integer call
    ms, ns = zip(*((m, n) for m in range(6) for n in range(6)))
    for p in points + [SpectralPoint(0.7 + 0.9j), SpectralPoint(2.1 - 0.3j)]:
        for beta, q in ((BETA, Q), (1.5, 0.5), (-0.5 + 0.2j, 0.7)):
            got = linearization_residual(ms, ns, p, beta, q)
            assert got.tolist() == [linearization_residual(m, n, p, beta, q)
                                    for m, n in zip(ms, ns)]


def test_bilateral_region_error_when_no_route():
    # at gamma = 1 the rows n < 0 vanish; at the lattice point q^{1/2} of
    # (0.1, 0.95, 1.0) the circle points give them as noise near 1e-19,
    # whose 32- and 64-point means differ by more than rel_tol of their
    # size, and the rows raise with that gap
    params = UltraParams(0.95, 1.0, 0.1)
    p = SpectralPoint(complex(0.1 ** 0.5))
    for n in range(-6, -2):
        with pytest.raises(RegionError, match=f"mean of C_{n} at the lattice "
                           "point .* 32- and 64-point means differ by"):
            bilateral_cn(n, p, params)


# ------------------------------------------------- one pass over a range of n

def _mp_g(qbg, m):
    """{j: g_j} for |j| <= m at (q, beta, gamma) = qbg, in mpmath at the
    working precision, by the one-step recursions from g_0 = 1."""
    import mpmath as mp
    q, beta, gamma = (mp.mpmathify(v) for v in qbg)
    bg, gq = beta * gamma, q * gamma
    g, qj = {0: mp.mpf(1)}, mp.mpf(1)
    for j in range(m):
        g[j + 1] = g[j] * (1 - bg * qj) / (1 - gq * qj)
        g[-j - 1] = g[-j] * (qj * q - gq) / (qj * q - bg)
        qj *= q
    return g


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
        lo, hi = min(0, n_lo) - pad, max(0, n_hi) + pad
        g = _mp_g(qbg, hi - lo + 1)
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


def test_range_passes_move_no_row_past_rounding(params):
    """93 rows on the 63 first-level nodes of the shifted pair at the
    defaults, in two passes, against each row in a pass of its own.  A pass
    boundary changes no row's terms, only the order of their rounding, so
    the rows agree to 1e-15 of sum_k |term_k| (at most 9.3e-16 on a
    2-core x86-64 machine with OpenBLAS).  On the unit circle that scale
    is the same at every node."""
    import qultra.quadrature as quad
    a = quad._map_strength(BETA, Q, BETA)
    phis = math.pi / 64 * np.arange(1, 64)
    p = SpectralPoint(np.exp(1j * (phis - a / 2 * np.sin(2 * phis))))
    rows = bilateral_cn_range(-47, 45, p, params)
    assert 93 > us._BLOCK_SIZE // 63 >= 93 / 2       # two passes
    scale = _mp_rows(-47, 45, p.z[:1])[0]
    for n in range(-47, 46):
        one = bilateral_cn(n, p, params).value
        assert np.max(np.abs(rows[n] - one)) <= 1e-15 * scale[n][1], n


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


def test_far_negative_row_sums_its_whole_budget(params):
    # C_{-700} is about 1e-298: a cut that added a floor of 1e-300 to its
    # threshold stopped these rows 2.4e-3 and 6.0e-5 short of the defining
    # sum, here in 50 digits over k = -1500..800
    for theta in (0.651, 2.007):
        p = SpectralPoint.from_theta(theta)
        want = _mp_rows(-700, -700, [p.z], digits=50, pad=800)[0][-700][0]
        got = bilateral_cn(-700, p, params).value
        assert abs(got - want) <= 1e-12 * abs(want), theta


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
                           TruncationPolicy(max_terms=5))
    with pytest.raises(RegionError, match="C_-6 at the lattice point"):
        bilateral_cn_range(-6, 3, SpectralPoint(complex(0.1 ** 0.5)),
                           UltraParams(0.95, 1.0, 0.1))
    with pytest.raises(DomainError):
        bilateral_cn_range(2, 1, points[0], params)


def test_range_overflow_inside_the_annulus_raises(params):
    # |q/(beta z^2)| = 0.77 at |z| = 0.7, but the row factor |z|^{-2n}
    # leaves the double range at n = 1100
    p = SpectralPoint(0.7 * np.exp(0.5j))
    assert in_direct_region(p.z, BETA, Q)
    assert np.isfinite(bilateral_cn(400, p, params).value)
    with pytest.raises(NonConvergence, match="overflowed"):
        bilateral_cn(1100, p, params)


def test_continuation_overflow_raises_a_typed_error(params):
    # off the annulus |z|^{-2000} = 2^2000 and the routes' q^{-2000} leave
    # the double range; C_700 and C_-700 do not, and the pole expansion
    # gives them: its k = 0 ring, whose next ring is |q|^700 smaller
    p = SpectralPoint(0.4 + 0.3j)
    assert not in_direct_region(p.z, BETA, Q)
    assert np.isfinite(bilateral_cn(500, p, params).value)
    with pytest.raises(QSeriesError, match="overflowed"):
        bilateral_cn(2000, p, params)
    for n in (700, -700):
        assert bilateral_cn(n, p, params).value == pytest.approx(
            _mp_first_ring(n, p.z, (Q, BETA, GAMMA)), rel=1e-12)
    assert abs(bilateral_cn(700, p, params).value) == pytest.approx(4.4e210, rel=0.01)


def _mp_first_ring(n, z, qbg, digits=40):
    """The k = 0 ring of the generating function's pole expansion in
    mpmath with plain products, H_0(z) z^{-n} + H_0(1/z) z^n,

        H_0(z) = P (bg z^2, bg, q/(bg z^2), q/bg; q)_inf
                 / (z^2, q, q/(beta z^2), q/beta; q)_inf,
        P = (q, q/beta; q)_inf^2 / (q gamma, q/bg; q)_inf^2,  bg = beta gamma,

    and for n < 0 (q/beta)^{-n} times the ring of C_{-n} at gamma =
    1/(beta gamma)."""
    import mpmath as mp
    with mp.workdps(digits):
        q, beta, gamma = (mp.mpf(v) for v in qbg)
        z, pre = mp.mpc(z), mp.mpf(1)
        if n < 0:
            n, pre, gamma = -n, (q / beta) ** -n, 1 / (beta * gamma)
        bg = beta * gamma
        P = (mp.qp(q, q) * mp.qp(q / beta, q)) ** 2 / (
            mp.qp(q * gamma, q) * mp.qp(q / bg, q)) ** 2

        def h0(w):
            return P * (mp.qp(bg * w, q) * mp.qp(bg, q) * mp.qp(q / (bg * w), q)
                        * mp.qp(q / bg, q)) / (mp.qp(w, q) * mp.qp(q, q)
                                              * mp.qp(q / (beta * w), q)
                                              * mp.qp(q / beta, q))
        return complex(pre * (h0(z * z) * z ** -n + h0(1 / (z * z)) * z ** n))


def test_off_lattice_rows_have_no_route_past_the_recurrence(params, monkeypatch):
    # off the lattice z^2 in q^Z a row the pole expansion refuses takes the
    # recurrence or its error, which names the expansion's reason: with
    # the expansion switched off no row ends the recurrence.  References:
    # the 6psi8 series in mpmath at 300 digits and 160 terms per side,
    # unchanged at 500 digits and 260 terms per side
    p = SpectralPoint(0.4 + 0.3j)
    refs = ((40, 919762829600.5249 + 12145686672.772373j),
            (-40, -6.936836877954987e-07 + 4.873979256420069e-06j))
    for n, ref in refs:
        assert bilateral_cn(n, p, params).value == pytest.approx(ref, rel=1e-11)
    monkeypatch.setattr(_PoleRings, "value", _refuse)
    for n, _ in refs:
        with pytest.raises(NonConvergence, match=f"no route gives C_{n} .*switched "
                           f"off.*no row below it within 128 rows"):
            bilateral_cn(n, p, params)


def test_tiny_gamma_names_the_route_piece_that_overflows():
    # q^{-1}/gamma at gamma = 1e-320, and q^0/(beta gamma) at beta gamma =
    # 1e-310, are infinite, and so is the pole expansion's q/(beta gamma)
    # at both; each call says which piece, not a float error
    for gamma, beta, piece in ((1e-320, BETA, r"q\^\{-n\}/gamma"),
                               (1e-300, 1e-10, r"q\^\{1-n\}/\(beta gamma\)")):
        params = UltraParams(beta, gamma, Q)
        with pytest.raises(NonConvergence, match=r"refuses it \(q/\(beta gamma\) "
                           r"= .* leaves the double range\)"):
            bilateral_cn(1, SpectralPoint(0.4 + 0.3j), params)
        with pytest.raises(NonConvergence, match=piece):
            bilateral_cn_psi_form(1, SpectralPoint.from_theta(1.0), params)


def test_direct_sum_overflow_raises_without_a_warning():
    # at z = q^{1/4}, inside the annulus, the powers z^-n of row -2000 leave
    # the double range; the typed error is the only signal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="^direct bilateral sum overflowed$"):
            bilateral_cn(-2000, SpectralPoint(0.5623413251903491),
                         UltraParams(0.95, 0.3, 0.1))


def test_far_negative_n_overflow_raises_non_convergence():
    # at n = -2000 the pole expansion refuses ((q/(beta z))^2000 overflows),
    # and so it does at every row the recurrence could start from; the
    # well-poised form's (beta gamma; q)_n/(q gamma; q)_n overflows at q = 0.9
    ratio = r"\(beta gamma; q\)_n/\(q gamma; q\)_n"
    for qbg, z in (((0.9, 0.4, 0.5), 0.4 + 0.3j),
                   ((0.7, 0.5, 1.5), 2.2 * cmath.exp(-1.1j))):
        q, beta, gamma = qbg
        with pytest.raises(NonConvergence, match=r"z\^n overflowed at n = -2000\), "
                           "and no row below it within 128 rows"):
            bilateral_cn(-2000, SpectralPoint(z), UltraParams(beta, gamma, q))
    with pytest.raises(NonConvergence, match=ratio):
        bilateral_cn_psi_form(-2000, SpectralPoint.from_theta(1.0),
                              UltraParams(0.4, 0.5, 0.9))


def _mp_6psi8(n, z, qbg, digits, width, shift=False):
    """C_n(z) in mpmath at `digits` by the very-well-poised 6psi8 form
    with `width` terms per side (as perfbench/reference.sixpsi8_sum), at
    z + 1e-40 e^{0.7i} if shift, formed at `digits` (where the 6psi8
    degenerates, on the lattice z^2 in q^Z, the shift keeps it regular):
    g_n z^n (q/c, q/d, aq/e, aq/f; q)_inf / (aq, q/a, aq/(cd), aq/(ef); q)_inf
    times 6psi8(q a^{1/2}, -q a^{1/2}, c, d, e, f; a^{1/2}, -a^{1/2}, aq/c,
    aq/d, aq/e, aq/f; q, a^2 q^2/(cdef)) with two lower parameters 0,
    a = q^{-n}/z^2, c = a/gamma, d = beta gamma/z^2, e = beta gamma and
    f = q^{-n}/gamma."""
    import mpmath as mp
    with mp.workdps(digits):
        q, beta, gamma = (mp.mpmathify(v) for v in qbg)
        z = mp.mpc(z) + (mp.mpf("1e-40") * mp.expj(mp.mpf("0.7")) if shift else 0)
        bg = beta * gamma
        a = q ** -n / (z * z)
        c, d, e, f = a / gamma, bg / (z * z), bg, q ** -n / gamma
        g = _mp_g(qbg, abs(n))[n]
        pref = g * z ** n * (mp.qp(q / c, q) * mp.qp(q / d, q) * mp.qp(a * q / e, q)
                             * mp.qp(a * q / f, q)) / (
            mp.qp(a * q, q) * mp.qp(q / a, q) * mp.qp(a * q / (c * d), q)
            * mp.qp(a * q / (e * f), q))
        sa = mp.sqrt(a)
        upper = [q * sa, -q * sa, c, d, e, f]
        lower = [sa, -sa, a * q / c, a * q / d, a * q / e, a * q / f]
        x = a ** 3 * q ** 2 / (c * d * e * f)
        terms, t = [mp.mpc(1)], mp.mpc(1)
        for k in range(width):
            qk = q ** k
            t *= (mp.fprod(1 - u * qk for u in upper)
                  / mp.fprod(1 - b * qk for b in lower) * qk ** 2 * x)
            terms.append(t)
        t = mp.mpc(1)
        for k in range(0, -width, -1):
            qk = q ** (k - 1)
            t *= (mp.fprod(1 - b * qk for b in lower)
                  / mp.fprod(1 - u * qk for u in upper) / (qk ** 2 * x))
            terms.append(t)
        return complex(pref * mp.fsum(terms))


#: a point at (0.7, 0.5, 1.5) whose rows n = 0, 1 (ring ratios 0.56 and
#: 0.39) come from the pole expansion, held to 1e-14; the 6psi8, which
#: gave them once unchecked, is 6.4e-13 and 1.3e-13 off there
SETTLED_ROW_POINT = 0.3 * (0.7 / 0.5) ** 0.5 * cmath.exp(2.1j)

#: C_n off the direct annulus as ((q, beta, gamma), z, n, C_n): _mp_6psi8 at
#: (digits, width) = (160, 220), which agrees with (120, 160) to 7.6e-22
#: relative at n = 50 and to 1e-75 or closer at the others; at
#: SETTLED_ROW_POINT, (80, 120), which gives the same doubles as (60, 90).
#: At the first set the annulus is 0.61 < |z| < 1.63; at the other two it
#: is empty.
OFF_ANNULUS_REFERENCES = [
    ((0.3, 0.8, 0.7), 0.5 * cmath.exp(1j), 8, (50.22622470936908-198.78072416722912j)),
    ((0.3, 0.8, 0.7), 0.5 * cmath.exp(1j), 12, (1881.702984420842+2687.0358898814993j)),
    ((0.3, 0.8, 0.7), 0.5 * cmath.exp(1j), 20, (610471.1414066661-576676.3017282671j)),
    ((0.7, 0.5, 1.5), cmath.exp(0.4j), 8, (69.13123176715172+2.5159318458439535e-14j)),
    ((0.7, 0.5, 1.5), cmath.exp(0.4j), -8, (-1273.8763621910573-1.8667578569716913e-13j)),
    ((0.7, 0.5, 1.5), cmath.exp(0.4j), 20, (85.80059259987063-2.8015756466855145e-14j)),
    ((0.7, 0.5, 1.5), cmath.exp(0.4j), -20, (-9267.613213261438+4.270466937516437e-11j)),
    ((0.85, 0.8, 0.3), cmath.exp(1j), 1, (0.2872612743843007+3.1234292642494157e-16j)),
    ((0.85, 0.8, 0.3), cmath.exp(1j), 4, (-0.39240966044327624-3.477310158530525e-16j)),
    ((0.85, 0.8, 0.3), cmath.exp(1j), 7, (0.48949834469040504+3.67205670032192e-16j)),
    ((0.7, 0.5, 1.5), cmath.exp(1j), 50, (-26.23312288950138-1.6122141307352374e-15j)),
    ((0.7, 0.5, 1.5), SETTLED_ROW_POINT, 0, (-0.19180725263110215+0.6041667647793131j)),
    ((0.7, 0.5, 1.5), SETTLED_ROW_POINT, 1, (0.5790771047174625-1.1057756276897046j)),
]


@pytest.mark.parametrize("qbg, z, n, ref", OFF_ANNULUS_REFERENCES)
def test_off_annulus_values_match_checked_references(qbg, z, n, ref):
    """Mid-sized |n| off the annulus, where the per-n 6psi8 in double
    loses digits (up to a relative error of 1.8e30 at n = 20 here) and
    C_50 had no route; the pole expansion gives them all, the rows at
    SETTLED_ROW_POINT to 1e-14."""
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    assert not in_direct_region(z, beta, q)
    value = bilateral_cn(n, SpectralPoint(z), params).value
    tol = 1e-14 if z == SETTLED_ROW_POINT else 1e-12
    assert abs(value - ref) <= tol * abs(ref)


def test_off_annulus_reference_recomputes():
    qbg, z, n, ref = OFF_ANNULUS_REFERENCES[0]
    assert _mp_6psi8(n, z, qbg, 120, 160) == pytest.approx(ref, rel=1e-15)


#: C_n at points where the pole expansion refuses rows, as ((q, beta,
#: gamma), z, n_lo, rows, refused): _mp_6psi8 at (digits, width) = (90,
#: 240), which gives the same doubles as (60, 160).  refused marks a row
#: the recurrence's check refuses: C_0 at fl(0.7^{1/4}), formed from rows
#: of the expansion that are 2e-13 to 5e-13 off, is 9.1e-11 off by the
#: recurrence, and its error estimate is 2.3e-11.
RECURRENCE_REFERENCES = [
    ((0.7, -0.35, 0.3), cmath.exp(1j), -2, (0.0003377523643384137+5.922290268340545e-18j,),
     False),
    ((0.7, -0.35, 0.3), cmath.exp(0.4j), -1, (1.2620771467607819+1.2645873100373443e-16j,),
     False),
    ((0.1, 0.04, 1.5), cmath.exp(1j), 2, (-0.00108774678673958+1.3005551254431932e-16j,),
     False),
    ((0.7, 0.4, 1.5), complex(0.7 ** 0.25), 0, (-2.596159867836423+0j,), True),
    ((0.85, 0.8, 0.3), cmath.exp(0.3j) / 30, -20, (
      4369.065412949228-189.00602698451158j, 118.36519215535678+31.070318507365176j,
      2.663562997805266+1.656903040284669j, 0.03598038153953547+0.04127908432010949j,
      0.002510013419893176-0.0009881611662408934j, 0.04044827421130934+0.16968748284569615j,
      3.762864757155199+6.382218087203003j, 192.60536756948832+175.22904074373983j,
      7790.780795029473+3651.0042563961815j, 273160.6821621342+38010.46744667594j,
      8570493.452349104-1398258.225255798j, 241958277.7331868-120394806.70634083j,
      6037478916.271664-5757980304.621712j, 124789537714.14375-223569118008.48743j,
      1623836402092.7803-7652413007560.599j, -21622265690345.35-237214364198660.66j,
      -2756105911250581.5-6687884988715060j, -1.3967924503098462e+17-1.689308273469655e+17j,
      -5.546944225459964e+18-3.6334073623667087e+18j, -1.925203741394117e+20-5.533991855925375e+19j,
      -6.04323697840445e+21+1.2145950352734306e+20j, -1.7296188946946554e+23+5.733596042609043e+22j,
      -4.466992453099278e+24+3.1896619751204974e+24j, -1.0008956238156292e+26+1.3146955560238376e+26j,
      -1.7079606666580254e+27+4.6687862370267106e+27j, -7.577248904813568e+27+1.4931448274944319e+29j,
      1.1088850157533902e+30+4.355530047948028e+30j, 7.051818264129427e+31+1.1520000081739613e+32j,
      3.046875290994346e+33+2.6804161725109234e+33j, 1.1122638578190051e+35+4.987099556350402e+34j,
      3.63374773048124e+36+4.4368909234991536e+35j, 1.0817436413747765e+38-1.9516733421202892e+37j,
      2.929493450270794e+39-1.519540896896062e+39j, 7.05335399548254e+40-6.956691395816158e+40j,
      1.4055168737102593e+42-2.6205554262824284e+42j, 1.70573892754939e+43-8.760695046508319e+43j,
      -2.879361018240062e+44-2.6631013114849527e+45j, -3.1872989030724854e+46-7.379680484995137e+46j,
      -1.5681837267074043e+48-1.8329731843427278e+48j, -6.120954814820136e+49-3.8639653985683204e+49j,
      -2.097267248703088e+51-5.648727734457372e+50j,
     ), False),
]


@pytest.mark.parametrize("qbg, z, n_lo, refs, refused", RECURRENCE_REFERENCES)
def test_recurrence_rows_match_checked_references(qbg, z, n_lo, refs, refused):
    """Rows the pole expansion refuses come from the recurrence, within
    1e-12 of their references, or raise NonConvergence where its check
    refuses them.  At (0.85, 0.8, 0.3), z = e^{0.3i}/30, far from the unit
    circle, the rows -16..-1 are refused for their ring ratio, downward
    recurrence misses C_-17 by orders, and the two-point system gives
    every row to within 1e-13."""
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    assert not in_direct_region(z, beta, q)
    rings = _PoleRings(z, params, DEFAULT_POLICY)
    with pytest.raises(_RouteUnusable):
        rings.value(n_lo if len(refs) == 1 else -1)
    for n, ref in enumerate(refs, n_lo):
        if refused:
            with pytest.raises(NonConvergence, match=f"no route gives C_{n} .* error "
                               "estimate"):
                bilateral_cn(n, SpectralPoint(z), params)
            continue
        value = bilateral_cn(n, SpectralPoint(z), params).value
        assert abs(value - ref) <= 1e-12 * abs(ref), n


def _route_outcome(n, z, params):
    try:
        return np.asarray(bilateral_cn(n, SpectralPoint(z), params).value).tobytes()
    except QSeriesError as exc:
        return type(exc)


def _handed_over(n, z, params, reason):
    """The outcome of C_n at z from the route after the pole expansion.
    On the lattice the row is the circle mean, whose points the expansion
    gives, taken directly; off it the recurrence's band about n, from the
    expansion's rows."""
    if reason == "lattice":
        value = us._lattice_rows(n, n, z, params, DEFAULT_POLICY)[0][0]
        return np.asarray(value).tobytes()
    rings = _PoleRings(z, params, DEFAULT_POLICY)

    def row(k):
        try:
            return rings.value(k)
        except _RouteUnusable as exc:
            return exc

    try:
        band = us._recurrence_band(n, row, z, (z + 1 / z) / 2, params, DEFAULT_POLICY)
    except QSeriesError as exc:
        return type(exc)
    return np.asarray(band[n][0]).tobytes()


def _refuse(*args):
    raise _RouteUnusable("switched off")


@pytest.mark.parametrize("qbg, z, ns, reason", [
    # the mirrored rings diverge: ring ratio 0.85^{-n}/0.3^2 = 9.4 .. 3.6
    ((0.85, 0.8, 0.3), cmath.exp(1j), (-1, -4, -7), "ring ratio"),
    # z^2 = q, where the poles coalesce, and a point that rounds onto it
    ((Q, BETA, GAMMA), complex(Q ** 0.5), (-3, 2, 3, 5), "lattice"),
    ((Q, BETA, GAMMA), Q ** 0.5 * cmath.exp(1e-10j), (-3, 2, 3), "lattice"),
    # 1e-7 off z^2 = q the rings cancel by a factor 1.3e5 to 1.9e4, and the
    # recurrence refuses too: the rows it would start from are 5e-9 off
    ((Q, BETA, GAMMA), Q ** 0.5 * cmath.exp(1e-7j), (-3, 2, 3), "cancel"),
    # the gamma = 1 polynomials at q = 0.7, beta = -0.5: the rings cancel by
    # a factor 8.8e3 (n = 1) and 830 (n = 2)
    ((0.7, -0.5, 1.0), cmath.exp(0.4j), (1, 2), "cancel"),
])
def test_pole_route_refusal_hands_over_bit_for_bit(qbg, z, ns, reason):
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    assert not in_direct_region(z, beta, q)
    for n in ns:
        with pytest.raises(_RouteUnusable, match=reason):
            _PoleRings(z, params, DEFAULT_POLICY).value(n)
        chain = _handed_over(n, z, params, reason)
        near = abs(z * z - q) < 1e-6 and reason == "cancel"
        assert chain is NonConvergence if near else isinstance(chain, bytes), n
        assert _route_outcome(n, z, params) == chain, n
    if gamma == 1:      # the classical polynomials
        for n in ns:
            want = classical_cn(n, SpectralPoint(z), beta, q)
            assert bilateral_cn(n, SpectralPoint(z), params).value == pytest.approx(
                want, rel=1e-13), n


def test_forced_cancellation_refusal_hands_over_bit_for_bit(params, monkeypatch):
    # a row the pole expansion gives, refused by force as if its rings
    # cancelled, comes from the recurrence between its neighbours: the
    # band from the expansion's rows, within 1e-13 of the expansion's value
    z = 0.5 * cmath.exp(1j)
    value = _PoleRings.value
    for n in (-6, 3, 8):
        taken = bilateral_cn(n, SpectralPoint(z), params).value

        def refuse_n(self, k, i=0, n=n):
            if k == n:
                raise _RouteUnusable(f"the rings of C_{n} cancel (forced)")
            return value(self, k, i)

        monkeypatch.setattr(_PoleRings, "value", refuse_n)
        chain = _handed_over(n, z, params, "cancel")
        assert _route_outcome(n, z, params) == chain, n
        assert abs(np.frombuffer(chain, complex)[0] - taken) <= 1e-13 * abs(taken), n
        monkeypatch.undo()


def test_lattice_range_equals_its_one_row_calls_bit_for_bit(params):
    # at z = q^{1/2} the circle mean's rows do not depend on the range:
    # its points' rows do not, and each row is averaged on its own
    p = SpectralPoint(complex(Q ** 0.5))
    rows = bilateral_cn_range(-12, 12, p, params)
    for n in range(-12, 13):
        one = bilateral_cn(n, p, params)
        assert np.asarray(rows[n]).tobytes() == np.asarray(one.value).tobytes(), n
        assert rows.truncation_terms[n + 12] == one.truncation_terms, n
    assert bilateral_cn_range(-12, 3, p, params).values.tobytes() == \
        rows.values[:16].tobytes()


#: a complex base whose powers q^m wrap past arg = pi from |m| = 2 on
Q_TURNED = 0.5 * cmath.exp(2j)

#: C_n for n = -3..3 at lattice points z, z^2 in q^Z, as ((q, beta, gamma),
#: z, rows): _mp_6psi8 at z + 1e-40 e^{0.7i} at (digits, width) = (170,
#: 220), which agrees with (120, 160) to 1e-18 relative; the imaginary
#: parts, below 1e-30 relative, are dropped.  Rows None have no route
#: (none do since the recurrence gives the circle points at q = 0.9 the
#: rows n < 0 that the pole expansion refuses).  The last five are at
#: bases off the positive axis, where the principal logarithms of z^2 and
#: of its power of q differ by a multiple of 2 pi i: z^2 = q^-2 and q^3 at
#: Q_TURNED, q^2 and q^-2 at q = -0.5, and q^3 at z = q^{3/2} = -i 2^{-3/2}.
#: There q, beta and gamma enter _mp_6psi8 as mpc, at (digits, width) =
#: (90, 260), each row the same double at (60, 200), and the parts below
#: 1e-30 relative are dropped.
LATTICE_REFERENCES = [
    ((0.3, 0.8, 0.7), 0.3 ** 0.5,
     (0.2728804536434766, 0.36012333989069745, -0.04491813597771476,
      1.818432655489389, 3.0739539425942977, 5.4291744919643845, 9.775915061806518)),
    ((0.5, 0.9, 0.4), 0.5 ** 0.5,
     (-1.6015686006143464, 6.67281959743626, 8.739502898438342, 11.888501439412341,
      16.427732757356548, 22.907959601783013, 32.12498031800769)),
    ((0.7, 0.5, 1.5), 0.7 ** 0.5,
     (-36520.10400432249, -31213.678334283217, -26563.838645738004,
      -22521.632615325365, -19022.744431959876, -15996.520921071557,
      -13376.776931496206)),
    ((0.1, 0.95, 0.3), 0.1 ** 0.5,
     (1.2137233683206035, 3.6691561896386915, 10.089503739169517, 34.31048573495942,
      108.22457008408337, 342.02522956038473, 1081.4712085057681)),
    ((0.7, 0.5, 1.5), 1.0,
     (90728.01478658, 70609.28241508074, 56427.71931711977, 46457.665336478225,
      39475.53500618052, 34615.86543495125, 31262.6336489455)),
    ((0.9, 0.4, 0.5), 0.9 ** 0.5,
     (-1166815.5179306944, -947182.2731911747, -775390.5715176585,
      -639970.005486512, -532407.8155248623, -446339.67942251, -376973.1733053613)),
    ((Q_TURNED, 0.8, 0.7), 1 / Q_TURNED,
     (0.5926457382218788-0.021928290848421385j, 0.2096530517056345-0.2817411068470916j,
      0.17449903780008325+0.6807595156567116j, 3.0415010481420106-0.020936692981518467j,
      -0.9347385061155127-3.33517035985765j, -4.240583438703334+5.71875354144336j,
      15.457314329139104+4.127124291060617j)),
    ((Q_TURNED, 0.8, 0.7), Q_TURNED ** 1.5,
     (-1.0856770445282278-0.05638870030593988j, -0.040038064531191374-0.15904417311902116j,
      -0.3351971248853257+0.29638798175686853j, 4.595489952651079-0.009860247462662373j,
      -6.958767176907908-2.440924467495588j, 20.26964949133706+4.923512521947189j,
      -60.72012848550103-27.62136564991956j)),
    ((-0.5, 0.8, 0.7), -0.5,
     (0.41305238194909405, 0.5748184670718187, -0.3197353406772721, 3.082849877340596,
      -3.3459104154278307, 8.989406252219519, -15.454004174499978)),
    ((-0.5, 0.8, 0.7), -2.0,
     (0.41305238194909405, 0.5748184670718187, -0.3197353406772721, 3.082849877340596,
      -3.3459104154278307, 8.989406252219519, -15.454004174499978)),
    ((-0.5, 0.8, 0.7), -0.5 ** 1.5 * 1j,
     (0.7088003657471342j, -0.9590613632778192, -0.5751813342225235j, 4.5010605646181965,
      6.191795550126565j, -24.406754338416736, -58.0888085617393j)),
]


def _on_lattice(w2, q):
    """z^2 = w2 takes the continuation's lattice route."""
    return is_q_power(w2, q, us._LATTICE_BAND) is not None


@pytest.mark.parametrize("qbg, z, refs", LATTICE_REFERENCES)
def test_lattice_rows_match_checked_references(qbg, z, refs):
    """On the lattice the rows are circle means, each within 1e-13 of its
    reference, or a RegionError that names its gap."""
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    p = SpectralPoint(complex(z))
    assert not in_direct_region(p.z, beta, q) and _on_lattice(p.z ** 2, q)
    for n, ref in zip(range(-3, 4), refs):
        if ref is None:
            with pytest.raises(RegionError, match="32- and 64-point means differ"):
                bilateral_cn(n, p, params)
            continue
        value = bilateral_cn(n, p, params).value
        assert abs(value - ref) <= 1e-13 * abs(ref), n


def test_lattice_reference_recomputes():
    qbg, z, refs = LATTICE_REFERENCES[0]
    assert _mp_6psi8(-1, z, qbg, 120, 160, shift=True).real == pytest.approx(
        refs[2], rel=1e-15)
    qbg, z, refs = LATTICE_REFERENCES[6]             # q = Q_TURNED
    assert _mp_6psi8(0, z, qbg, 60, 200, shift=True) == pytest.approx(refs[3], rel=1e-15)


def test_lattice_radius_is_the_distance_to_the_nearest_singular_point():
    # at the defaults z^2 = q lies 0.065 from q/beta, at (0.7, 0.5, 1.5)
    # 0.0084 from q^3/beta; the nearest other lattice points, q^{1/2} z,
    # are farther
    for (q, beta, gamma), w2 in (((Q, BETA, GAMMA), Q / BETA),
                                 ((0.7, 0.5, 1.5), 0.7 ** 3 / 0.5)):
        z = complex(q ** 0.5)
        got = us._lattice_radius(z, UltraParams(beta, gamma, q))
        assert got == pytest.approx(abs(z - w2 ** 0.5), rel=1e-14)
        assert got < abs(z) * (1 - q ** 0.5)


@pytest.mark.parametrize("qbg", [(0.3, 0.8, 0.7), (0.5, 0.9, 0.4),
                                 (0.7, 0.5, 1.5), (0.1, 0.95, 0.3)])
def test_lattice_rows_keep_the_symmetries_of_z(qbg):
    # C_n(-z) = (-1)^n C_n(z) and C_n(1/z) = C_n(z): three circles, whose
    # means round apart by 4.1e-14 at most
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    for z in (complex(q ** 0.5), 1 + 0j):
        if in_direct_region(z, beta, q):
            continue
        rows = bilateral_cn_range(-3, 3, SpectralPoint(z), params).values
        signs = np.array([(-1) ** n for n in range(-3, 4)])
        for w, want in ((-z, signs * rows), (1 / z, rows)):
            got = bilateral_cn_range(-3, 3, SpectralPoint(w), params).values
            assert np.abs(got - want).max() <= 1e-13 * np.abs(rows).max(), (z, w)


def test_lattice_rows_satisfy_the_recurrence():
    # at (0.3, 0.8, 3.9), z = q^{1/2}, the circle mean gives rows -3..8,
    # which meet the three-term recurrence to 1.1e-13
    params = UltraParams(0.8, 3.9, 0.3)
    p = SpectralPoint(complex(0.3 ** 0.5))
    rows = bilateral_cn_range(-3, 8, p, params)
    for n in range(-2, 8):
        assert us.recurrence_gap(n, p, params, rows[n - 1], rows[n],
                                 rows[n + 1]) <= 1e-12, n


def test_lattice_point_at_a_singular_point_raises_a_typed_error():
    # beta = q puts the singular points z^2 = q^{k+1}/beta on the lattice:
    # the circle has radius 0 and would be the point itself, and a circle
    # 1e-12 wide lies in the lattice test's band; neither recurses
    z = SpectralPoint(complex(0.7 ** 0.5))
    for beta in (0.7, 0.7 * (1 + 1e-12)):
        with pytest.raises(RegionError, match="meets the q\\^Z lattice"):
            bilateral_cn(0, z, UltraParams(beta, 0.5, 0.7))


def test_lattice_rows_that_vanish_at_every_circle_point_are_zero():
    # at gamma = 1 the rows n < 0 are 0, and C_0 is 1
    rows = bilateral_cn_range(-3, 0, SpectralPoint(complex(0.7 ** 0.5)),
                              UltraParams(-0.5, 1.0, 0.7))
    assert rows.values[:3].tolist() == [0j, 0j, 0j]
    assert rows[0] == pytest.approx(1.0, rel=1e-15)


def test_half_lattice_point_takes_the_recurrence():
    # z = q^{1/4}, off the lattice z^2 in q^Z: the rings of C_0 cancel, and
    # the recurrence gives it; the product is exact for exact q^{1/4}, so
    # the gap includes |z C_0'/C_0| = 3.9e4 times the rounding of the point
    with pytest.raises(_RouteUnusable, match="cancel"):
        _PoleRings(0.7 ** 0.25, UltraParams(0.5, 1.5, 0.7), DEFAULT_POLICY).value(0)
    params = UltraParams(0.5, 1.5, 0.7)
    value = bilateral_cn(0, SpectralPoint(0.7 ** 0.25), params).value
    ref = special_value_c0(params)
    assert abs(value - ref) <= 1e-10 * abs(ref)


def test_6psi8_sum_stops_at_a_non_finite_term(params):
    # the very-well-poised 6psi8 series of C_50 at this point (upper
    # parameters q a^{1/2}, -q a^{1/2}, a/gamma, beta gamma/z^2, beta gamma,
    # q^{-50}/gamma, a = q^{-50}/z^2) has terms that turn nan after a few steps
    z, n, q, e = 0.4 + 0.3j, 50, params.q, params.beta * params.gamma
    a, w2 = q ** -n / z ** 2, z ** 2
    c, d, f = a / params.gamma, e / w2, q ** -n / params.gamma
    s = cmath.sqrt(a)
    upper = (q * s, -q * s, c, d, e, f)
    lower = (s, -s, a * q / c, a * q / d, a * q / e, a * q / f, 0j, 0j)
    spec = SeriesSpec(BILATERAL, upper, lower, q, a ** 3 * q ** 2 / (c * d * e * f))
    with pytest.raises(NonConvergence, match="not finite"):
        sum_psi(spec, DEFAULT_POLICY)


def test_recurrence_overflow_raises_a_typed_error(params):
    # q^{n-1} in the coefficients leaves the double range at n = -700
    with pytest.raises(NonConvergence, match="overflowed"):
        recurrence_residual("bilateral", -700, SpectralPoint.from_theta(1.0),
                            params)


def test_continuation_returns_finite_or_raises(params):
    # off the annulus no non-finite value may be returned, here where
    # the 6psi8 prefactor was nan for n = 34..46 and -50..-36
    p = SpectralPoint(0.4 + 0.3j)
    assert not in_direct_region(p.z, BETA, Q)
    for n in range(-60, 61):
        try:
            value = bilateral_cn(n, p, params).value
        except QSeriesError:
            continue
        assert cmath.isfinite(value), n


def test_z_powers_far_blocks_keep_the_chain_accuracy():
    # repeated multiplication errs like sqrt(n) roundings, binary powering
    # and numpy's power like n of them: at n = 1000, over 400 seeded points
    # with 0.6 < |z| < 1.6, the worst was 7e-15 against 1e-13 and 3e-13.
    # Negative n multiply by the rounded 1/z, whose own rounding the chain
    # raises to the n-th power, so they are held to powers of that.
    import mpmath as mp
    rng = np.random.default_rng(7)
    z = rng.uniform(0.95, 1.05, 64) * np.exp(1j * rng.uniform(0, math.pi, 64))
    for lo, hi in ((990, 1000), (-1000, -990), (-3, 4)):
        rows = _z_powers(z, lo, hi)
        assert rows.shape == (hi - lo + 1, 64)
        for n in (lo, hi):
            want = [complex(mp.mpc(w if n >= 0 else 1 / w) ** abs(n)) for w in z]
            err = np.abs(rows[n - lo] - want) / np.abs(want)
            assert err.max() <= 2e-14, (n, err.max())
    assert np.array_equal(_z_powers(z, 0, 0), np.ones((1, 64)))
    # more points than _BLOCK_SIZE: one row per block, each the chain's
    many = np.exp(1j * np.linspace(0.1, 3.0, us._BLOCK_SIZE + 1000))
    for lo, hi in ((5, 5), (-7, -7), (3, 6)):
        np.testing.assert_allclose(_z_powers(many, lo, hi),
                                   [many ** n for n in range(lo, hi + 1)],
                                   rtol=1e-14)


def test_tail_budget_stays_tight():
    """Each side of row n sums its budget, base + length steps, and that
    is at most 16 steps past the first step from which the rest of the side
    adds up to at most rel_tol times its largest term.  On the unit circle
    the term moduli, from 30-digit mpmath, do not depend on the point."""
    import mpmath as mp
    p = SpectralPoint.from_theta(1.0)
    for qbg in ((Q, BETA, GAMMA), (0.1, 0.95, 0.3)):
        params = UltraParams(qbg[1], qbg[2], qbg[0])
        budgets = _tail_bound(1.0, 1.0, params, DEFAULT_POLICY)
        rows = bilateral_cn_range(-20, 20, p, params)
        with mp.workdps(30):
            g = _mp_g(qbg, 300)
            for n in range(-20, 21):
                bases = (max(n, 0), max(-n - 1, 0))
                ends = [b + length for b, length in zip(bases, budgets)]
                assert rows.truncation_terms[n + 20] == sum(ends)
                for side, end in enumerate(ends):
                    # upper: g_s g_{n-s}; lower: g_{-1-s} g_{n+1+s}
                    sign = 1 - 2 * side
                    mags = [abs(g[sign * s - side] * g[n - sign * s + side])
                            for s in range(end + 100)]
                    allowed = DEFAULT_POLICY.rel_tol * max(mags)
                    first, rest = len(mags), 0
                    while first and rest + mags[first - 1] <= allowed:
                        first -= 1
                        rest += mags[first]
                    assert first <= end <= first + 16, (qbg, n, side, end - first)


def test_unit_circle_value_near_x_zero_stays_real(params):
    # C_1 vanishes at x = 0, so its imaginary part, the unpaired tail of the
    # two sides, is large beside it
    v = bilateral_cn(1, SpectralPoint.from_theta(1.5714732651757732), params).value
    assert abs(v.imag) <= 1e-11 * abs(v)


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


@pytest.mark.parametrize("qbg", [(Q, BETA, GAMMA), (0.1, 0.95, 0.3), (0.3, 1.2, 0.7)])
def test_range_side_remainders_within_the_tail_bound(qbg, points):
    """Past each side's budget, the moduli of the rest of that side (pad
    more terms, from 30-digit mpmath) add up to at most rel_tol b times the
    side's largest term at every point, b = R + (1 - R)/8 from the side's
    region ratio R over the points; no absolute floor enters."""
    import mpmath as mp
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    circle = np.array([p.z for p in points])
    point_sets = [circle, circle[1:2], np.array([0.8 * np.exp(0.7j)]),
                  np.array([1.3 * np.exp(2.5j), 0.9 * np.exp(1.2j)])]
    pad = 200                        # the region ratios here are below 0.64
    ns = np.arange(-20, 21)
    with mp.workdps(30):
        g = _mp_g(qbg, 600)
        for zs in point_sets:
            assert in_direct_region(zs, beta, q)
            r = np.abs(zs)
            budgets = _tail_bound(float(r.min()), float(r.max()), params, DEFAULT_POLICY)
            ends = np.maximum([ns, -1 - ns], 0) + np.array(budgets)[:, None]
            _, summed = _direct_rows(-20, 20, zs, params, budgets)
            np.testing.assert_array_equal(summed, ends)
            rows = bilateral_cn_range(-20, 20, SpectralPoint(zs), params)
            np.testing.assert_array_equal(rows.truncation_terms, ends.sum(axis=0))
            region = (abs(q / beta) / r.min() ** 2, abs(q / beta) * r.max() ** 2)
            radii = [abs(mp.mpc(z)) for z in zs]
            for n in (-20, -13, -6, -1, 0, 1, 5, 12, 20):
                for side, end in enumerate(ends[:, n + 20]):
                    # upper: g_s g_{n-s} z^{n-2s}; lower: g_{-1-s} g_{n+1+s} z^{n+2+2s}
                    sign = 1 - 2 * side
                    b = region[side] + (1 - region[side]) / 8
                    for rad in radii:
                        mags = [abs(g[sign * s - side] * g[n - sign * s + side])
                                * rad ** (n - 2 * sign * s + 2 * side)
                                for s in range(end + pad)]
                        bound = DEFAULT_POLICY.rel_tol * b * max(mags)
                        assert mp.fsum(mags[end:]) <= bound, (n, side, zs)


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


LANE_SETS = [(0.3, 0.8, 0.7), (0.1, 0.95, 0.3), (0.5, 0.9, 0.4)]


@pytest.mark.parametrize("qbg", LANE_SETS)
@pytest.mark.parametrize("radius", [1.0, 0.7, 1.4])
def test_tail_bound_memo_hands_out_the_uncached_result_immutably(qbg, radius):
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    args = (radius, radius, params, DEFAULT_POLICY)
    if not in_direct_region(radius, beta, q):
        # (0.5, 0.9, 0.4) at |z| = 0.7 and 1.4: no bound, and no memo of one
        for fn in (_tail_bound, _tail_bound, _tail_bound.__wrapped__):
            with pytest.raises(NonConvergence):
                fn(*args)
        return
    first = _tail_bound(*args)
    hit = _tail_bound(*args)
    assert hit is first
    assert hit == _tail_bound.__wrapped__(*args)
    assert type(hit) is tuple and len(hit) == 2
    assert all(type(length) is int for length in hit)
    with pytest.raises(TypeError):
        hit[0] = 0


def _lane_points(q, beta):
    """Points of the one-point lane test: three inside the direct annulus,
    four off it, and on each side of the unit circle a pair whose larger
    region ratio is DIRECT_REGION_MARGIN (1 -+ 1e-9), just inside and just
    outside."""
    qb = abs(q / beta)
    ratio = DIRECT_REGION_MARGIN * (1 + np.array([-1e-9, 1e-9]))
    edge = np.concatenate([np.sqrt(qb / ratio), np.sqrt(ratio / qb)])
    far = [math.sqrt(qb / 1.3), math.sqrt(qb / 2.0), math.sqrt(1.3 / qb),
           math.sqrt(2.0 / qb)]
    radii = [1.0, math.sqrt(1.0 / 0.85), math.sqrt(0.85)] + far + list(edge)
    return [r * cmath.exp(1j * (0.45 + 0.61 * k)) for k, r in enumerate(radii)]


@pytest.mark.parametrize("qbg", LANE_SETS)
def test_scalar_point_matches_a_one_element_array(qbg):
    """A Python-complex point and the same point as a one-element array
    give bit-identical C_n and equal truncation_terms for n = -12..12, or
    the same error: both take the route direct_region_mask gives the
    array, up to points 1e-9 from DIRECT_REGION_MARGIN."""
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    zs = _lane_points(q, beta)
    inside = direct_region_mask(np.array(zs), beta, q)
    np.testing.assert_array_equal(inside, [True] * 3 + [False] * 4
                                  + [True, False, True, False])

    def outcome(point, n):
        try:
            uv = bilateral_cn(n, point, params)
        except QSeriesError as exc:
            return type(exc), str(exc)
        return np.asarray(uv.value, dtype=complex).tobytes(), uv.truncation_terms

    values = 0
    for z in zs:
        for n in range(-12, 13):
            scalar = outcome(SpectralPoint(z), n)
            assert scalar == outcome(SpectralPoint(np.array([z])), n), (z, n)
            values += isinstance(scalar[1], int)
    assert values >= 0.9 * 25 * len(zs)


@pytest.mark.parametrize("qbg", LANE_SETS)
def test_scalar_point_routes_as_an_array_within_rounding_of_the_margin(qbg):
    """Within a few ulps of the margin, numpy's complex arithmetic and
    Python's round the region ratio to opposite sides of it at some
    points (5 to 8 of these 312 on x86-64 with numpy 2.4); the scalar
    point still takes the array's route."""
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    qb = abs(q / beta)
    for r0 in (math.sqrt(qb / DIRECT_REGION_MARGIN),
               math.sqrt(DIRECT_REGION_MARGIN / qb)):
        for k in range(-6, 7):
            for j in range(12):
                z = r0 * (1 + k * 2.0 ** -52) * cmath.exp(1j * (0.3 + 0.25 * j))
                one = bilateral_cn(1, SpectralPoint(z), params)
                arr = bilateral_cn(1, SpectralPoint(np.array([z])), params)
                assert (np.asarray(one.value).tobytes(), one.truncation_terms) == (
                    arr.value.tobytes(), arr.truncation_terms), z


MANY_POINT_SETS = [(Q, BETA, GAMMA), (0.85, 0.8, 0.3), (0.7, -0.5, 1.0)]


def _many_points(q):
    """Points of the many-point test: six off the annulus on both sides of
    the unit circle, two of them far from it, so that a row sums
    different numbers of rings at different points; z = i, inside the
    annulus at the defaults, where the odd rows vanish; the point 1e-4 off
    z^2 = q (1e-5 at q = 0.85), where the rings of some rows cancel and
    the recurrence gives them; and at the defaults the lattice point
    q^{1/2}."""
    pts = [cmath.rect(r, a) for r, a in ((0.5, 1.1), (0.35, -2.3), (2.2, 0.4),
                                         (1.9, -2.9), (0.08, 2.0), (9.0, -0.7))]
    pts += [1j, q ** 0.5 * cmath.exp((1e-5 if q == 0.85 else 1e-4) * 1j)]
    return pts + [complex(q ** 0.5)] if q == Q else pts


@pytest.mark.parametrize("qbg", MANY_POINT_SETS)
def test_many_point_rows_equal_their_one_point_calls_bit_for_bit(qbg):
    """Every row of a many-point bilateral_cn and bilateral_cn_range call
    equals the one-point calls bit for bit, values and truncation_terms,
    across rows the pole expansion gives, rows it refuses (the recurrence
    takes them; for their ring ratio only at (0.85, 0.8, 0.3), n < 0),
    lattice rows and an inside point: the points share the expansion's
    tables, and no point's values depend on the others."""
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    zs = _many_points(q)
    many = SpectralPoint(np.array(zs))
    off = ~direct_region_mask(np.array(zs), beta, q)
    rows = bilateral_cn_range(-12, 12, many, params)
    ranges = [bilateral_cn_range(-12, 12, SpectralPoint(z), params) for z in zs]
    outcomes = set()
    for n in range(-12, 13):
        ones = [bilateral_cn(n, SpectralPoint(z), params) for z in zs]
        one_rows = np.array([r[n] for r in ranges])
        values = np.array([one.value for one in ones])
        arr = bilateral_cn(n, many, params)
        assert arr.value.tobytes() == values.tobytes(), n
        assert rows[n].tobytes() == one_rows.tobytes(), n
        terms = [one.truncation_terms for one in ones]
        assert arr.truncation_terms == max(terms), n
        assert rows.truncation_terms[n + 12] == max(
            r.truncation_terms[n + 12] for r in ranges), n
        # a continued row does not depend on the range it is part of
        assert one_rows[off].tobytes() == values[off].tobytes(), n
        assert [r.truncation_terms[n + 12] for r, o in zip(ranges, off) if o] == \
            [t for t, o in zip(terms, off) if o], n
        for z in zs:
            try:
                _PoleRings(z, params, DEFAULT_POLICY).value(n)
                outcomes.add("taken")
            except _RouteUnusable as exc:
                outcomes.update(w for w in ("ring ratio", "cancel", "lattice")
                                if w in str(exc))
    assert outcomes >= {"taken", "cancel"}
    assert ("ring ratio" in outcomes) == (q == 0.85)
    assert ("lattice" in outcomes) == (q == Q)
    assert direct_region_mask(np.array(zs), beta, q).any() == (q == Q)


def _first_error(call):
    try:
        call()
    except QSeriesError as exc:
        return type(exc), str(exc)
    return None


def test_many_point_call_raises_the_first_error_of_its_points():
    # at (0.85, 0.8, 0.3) no route gives the rows -3..3 at z = e^{1e-7 i},
    # 1e-7 off the lattice point 1: their rings cancel, and the recurrence
    # refuses them (NonConvergence); at z = 1e200, z^2 leaves the double
    # range (RegionError).  A call raises the error of the first failing
    # point, at its first failing row, as a loop over the points one at a
    # time does, also where the points fill several blocks of the pole
    # expansion and the two fall in different blocks
    params = UltraParams(0.8, 0.3, 0.85)
    late, lattice = cmath.exp(1e-7j), 1e200 + 0j
    # 140 points, more than two blocks: a call of several blocks gives its
    # one-point calls' rows bit for bit
    inner = [cmath.rect(r, a) for r, a in zip(np.linspace(0.2, 0.5, 70),
                                              np.linspace(0.3, 3.0, 70))]
    wide = inner + [1 / z for z in inner]
    assert len(wide) > 2 * us._POLE_BLOCK
    rows = bilateral_cn_range(-3, 3, SpectralPoint(np.array(wide)), params)
    for n in range(-3, 4):
        ones = [bilateral_cn(n, SpectralPoint(z), params) for z in wide]
        assert rows[n].tobytes() == np.array([o.value for o in ones]).tobytes(), n
        assert rows.truncation_terms[n + 3] == max(o.truncation_terms for o in ones)
    spread = []
    for i, j in ((10, 100), (100, 10), (70, 71), (139, 3)):
        pts = list(wide)
        pts[i], pts[j] = late, lattice
        spread.append(pts)
    for zs in ([late, lattice], [lattice, late], [0.5j, late, 2 + 1j, lattice],
               *spread):
        for lo, hi in ((-3, 3), (-1, -1)):
            loop = next(filter(None, (_first_error(
                lambda z=z: bilateral_cn_range(lo, hi, SpectralPoint(z), params))
                for z in zs)))
            many = SpectralPoint(np.array(zs))
            assert _first_error(lambda: bilateral_cn_range(lo, hi, many, params)) == loop
            if lo == hi:
                assert _first_error(lambda: bilateral_cn(lo, many, params)) == loop
            assert loop[0] is (NonConvergence if zs.index(late) < zs.index(lattice)
                               else RegionError)


def test_point_whose_square_leaves_the_double_range_raises_a_typed_error():
    # z^2 overflows: the region mask puts z outside the annulus without a
    # warning, the lattice test puts it off the lattice, and the row ends
    # in a RegionError that names the overflow, where a bare OverflowError
    # escaped and then a "complex division by zero" was reported
    params = UltraParams(BETA, GAMMA, Q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e200, 1e160j):
            assert not direct_region_mask(np.array([z]), BETA, Q).any()
            assert not _on_lattice(z * z, Q)
            for p in (SpectralPoint(z), SpectralPoint(np.array([0.5j, z]))):
                # the pole expansion's own reason, without a recurrence attempt
                with pytest.raises(RegionError, match=r"no route gives C_0 at "
                                   r"z = .*: z\^2 leaves the double range"):
                    bilateral_cn(0, p, params)


def test_input_checks(params):
    p = SpectralPoint.from_theta(1.0)
    for beta, gamma in ((0.0, GAMMA), (BETA, 0.0)):
        with pytest.raises(DomainError, match="beta and gamma must be nonzero"):
            UltraParams(beta, gamma, Q)
    with pytest.raises(DomainError, match="unknown kind 'trilateral'"):
        generating_rhs("trilateral", 0.6, p, params)
    with pytest.raises(DomainError, match="unknown kind 'trilateral'"):
        recurrence_residual("trilateral", 1, p, params)
    with pytest.raises(DomainError, match="classical recurrence check needs n >= 1"):
        recurrence_residual("classical", 0, p, params)
    with pytest.raises(DomainError, match="linearization needs m, n >= 0"):
        linearization_residual([1, -1], [2, 2], p, BETA, Q)

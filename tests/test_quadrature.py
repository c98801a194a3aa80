import math

import numpy as np
import pytest

import qultra.quadrature as quad
from qultra import (DomainError, NonConvergence, PoleError, RegionError,
                    SpectralPoint, UltraParams,
                    WeightParams, bilateral_delta_integral, bilateral_delta_rhs,
                    classical_cn, integrate, kernel_integral,
                    kernel_integral_rhs, mass_points, orthogonality_diagonal,
                    orthogonality_entry, poch, poch_multi,
                    shifted_orthogonality_pair, shifted_orthogonality_rhs,
                    weight_value)
from qultra.qcore import INFINITY
from qultra.quadrature import _circle_weight

Q, BETA, GAMMA = 0.3, 0.8, 0.7


def test_weight_params_window():
    WeightParams(0.8, 0.3)
    WeightParams(-0.5, 0.3)
    with pytest.raises(DomainError):
        WeightParams(1.9, 0.3)  # above q^{-1/2}
    with pytest.raises(DomainError):
        WeightParams(-1.0, 0.3)
    with pytest.raises(DomainError):
        WeightParams(0.5, -0.3)  # q must be real in (0, 1)


def test_weight_value_positive_on_grid():
    w = WeightParams(BETA, Q)
    for theta in np.linspace(0.05, math.pi - 0.05, 41):
        assert weight_value(theta, w) > 0.0


def test_weight_value_beta_zero_denominator_one():
    w = WeightParams(0.0, Q)
    theta = 1.234
    z2 = complex(math.cos(2 * theta), math.sin(2 * theta))
    want = (poch(z2, Q, INFINITY) * poch(z2.conjugate(), Q, INFINITY)).real
    want /= math.sqrt(1 - math.cos(theta) ** 2)
    assert weight_value(theta, w) == pytest.approx(want, rel=1e-12)


def test_weight_value_midpoint_matches_products():
    # x = 0: the infinite products are real and the value is positive
    w = WeightParams(BETA, Q)
    got = weight_value(math.pi / 2, w)
    want = (poch_multi([-1.0, -1.0], Q, INFINITY)
            / poch_multi([-BETA, -BETA], Q, INFINITY)).real
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0


def test_weight_conjugate_pair_is_real():
    rng = np.random.default_rng(5)
    vals = _circle_weight(rng.uniform(0.01, math.pi - 0.01, size=50), BETA, Q,
                          __import__("qultra").DEFAULT_POLICY)
    assert np.all(np.isfinite(vals))


def test_weight_value_domain_error():
    w = WeightParams(BETA, Q)
    with pytest.raises(DomainError):
        weight_value(0.0, w)


def test_integrate_constant_gives_norm():
    # f = 1 integrates to the closed-form norm (beta, q beta; q)/(q, beta^2; q)
    w = WeightParams(BETA, Q)
    got = integrate(lambda sp: 1.0, w, 1e-12)
    want = (poch_multi([BETA, Q * BETA], Q, INFINITY)
            / poch_multi([Q, BETA ** 2], Q, INFINITY)).real
    assert got.value.real == pytest.approx(want, rel=1e-11)
    assert got.last_refinement_delta <= 1e-12


def test_integrate_odd_degree_vanishes():
    w = WeightParams(BETA, Q)
    got = integrate(lambda sp: classical_cn(1, sp, BETA, Q), w, 1e-12)
    assert abs(got.value) <= 1e-12


def test_integrate_refined_oracle():
    # beta = 0 and f = x^2 against a 4x-denser reference evaluation
    w = WeightParams(0.0, Q)

    def f(sp):
        return sp.x ** 2

    got = integrate(f, w, 1e-13).value
    n = 4096
    thetas = math.pi / n * np.arange(1, n)
    dense = np.sum(np.cos(thetas) ** 2 * _circle_weight(
        thetas, 0.0, Q, __import__("qultra").DEFAULT_POLICY)) / (2 * n)
    assert got.real == pytest.approx(dense, abs=1e-12)


def test_integrate_linear_in_f():
    w = WeightParams(BETA, Q)
    f = lambda sp: sp.x ** 2
    g = lambda sp: 1.2 - sp.x
    a = integrate(lambda sp: 2.0 * f(sp) + g(sp), w, 1e-12).value
    b = 2.0 * integrate(f, w, 1e-12).value + integrate(g, w, 1e-12).value
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("beta", [0.8, 1.2])
def test_integrate_evaluates_each_node_once(beta):
    # first level, mass points (beta = 1.2), then midpoints only
    seen = []

    def f(sp):
        seen.extend(np.atleast_1d(sp.z))
        return sp.x ** 2

    got = integrate(f, WeightParams(beta, Q), 1e-12)
    assert len(seen) == got.nodes_used
    assert len(set(seen)) == len(seen)
    circle = len(seen) - len(mass_points(beta, Q)[0])  # 2^k - 1 nested nodes
    assert circle + 1 == 2 ** int(math.log2(circle + 1))


def test_integrate_jump_stops_at_node_cap():
    # a jump limits the trapezoid rule to first order: no tolerance is met
    calls = []

    def f(sp):
        calls.append(sp.z.size)
        return np.where(sp.x > 0.3, 1.0, 0.0)

    with pytest.raises(NonConvergence):
        integrate(f, WeightParams(BETA, Q), 1e-13)
    assert sum(calls) == quad.MAX_NODES - 1


def test_shifted_orthogonality_shares_node_cap(params, monkeypatch):
    # the first level alone cannot converge, so a 64-interval cap must stop it
    monkeypatch.setattr(quad, "MAX_NODES", 64)
    with pytest.raises(NonConvergence):
        shifted_orthogonality_pair(0, 0, params, 1e-6)


def test_node_doubling_deltas_shrink():
    # spectral convergence: successive refinements decrease monotonically
    # until rounding noise (~1e-12)
    policy = __import__("qultra").DEFAULT_POLICY
    n = 64
    thetas = math.pi / n * np.arange(1, n)
    wts = _circle_weight(thetas, BETA, Q, policy)
    vals = np.cos(thetas) ** 4
    prev = np.sum(vals * wts) / (2 * n)
    deltas = []
    while n < 2048:
        mid = math.pi / (2 * n) * np.arange(1, 2 * n, 2)
        vals = np.concatenate([vals, np.cos(mid) ** 4])
        wts = np.concatenate([wts, _circle_weight(mid, BETA, Q, policy)])
        n *= 2
        cur = np.sum(vals * wts) / (2 * n)
        deltas.append(abs(cur - prev))
        prev = cur
    while deltas and deltas[-1] < 1e-12:
        deltas.pop()
    assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))


def test_orthogonality_entries():
    w = WeightParams(BETA, Q)
    assert orthogonality_entry(0, 0, w, 1e-10).real == pytest.approx(
        orthogonality_diagonal(0, w), rel=1e-9)
    assert abs(orthogonality_entry(2, 5, w, 1e-10)) <= 1e-10
    assert orthogonality_entry(3, 3, w, 1e-10).real == pytest.approx(
        orthogonality_diagonal(3, w), rel=1e-8)


def test_orthogonality_symmetry():
    w = WeightParams(BETA, Q)
    a = orthogonality_entry(1, 4, w, 1e-11)
    b = orthogonality_entry(4, 1, w, 1e-11)
    assert a == pytest.approx(b, abs=1e-11)


def test_kernel_integral_trivial_case():
    w = WeightParams(BETA, Q)
    got = kernel_integral(0.0, 0.0, w, 1e-11)
    want = (poch_multi([BETA, Q * BETA], Q, INFINITY)
            / poch_multi([Q, BETA ** 2], Q, INFINITY))
    assert got.real == pytest.approx(want.real, rel=1e-10)


def test_kernel_integral_matches_series_rhs():
    w = WeightParams(BETA, Q)
    got = kernel_integral(0.4, -0.25, w, 1e-11)
    want = kernel_integral_rhs(0.4, -0.25, w)
    assert got == pytest.approx(want, rel=1e-8)


def test_kernel_integral_q_gauss_regime():
    # t1 t2 = q / beta^2 turns the series side into the q-Gauss product
    w = WeightParams(BETA, Q)
    t1 = 0.75
    t2 = Q / BETA ** 2 / t1
    got = kernel_integral(t1, t2, w, 1e-11)
    pref = (poch_multi([BETA, Q * BETA], Q, INFINITY)
            / poch_multi([Q, BETA ** 2], Q, INFINITY))
    gauss = (poch_multi([Q / BETA, Q], Q, INFINITY)
             / poch_multi([Q * BETA, Q / BETA ** 2], Q, INFINITY))
    assert got == pytest.approx(pref * gauss, rel=1e-8)


def test_kernel_integral_region_error():
    w = WeightParams(BETA, Q)
    with pytest.raises(RegionError):
        kernel_integral(1.0, 0.2, w, 1e-10)


def test_bilateral_delta_integral_in_window():
    # the delta identity holds on sqrt(q) < beta < 1
    for (q, beta) in ((0.3, 0.8), (0.5, 0.9)):
        rhs = bilateral_delta_rhs(beta, q)
        for n in (-2, -1, 0, 1, 3):
            got = bilateral_delta_integral(n, beta, q, 1e-10)
            target = rhs if n == 0 else 0.0
            assert abs(got - target) <= 1e-9 * max(1.0, abs(rhs))


def test_bilateral_delta_rhs_pole():
    # (beta^2; q)_inf vanishes at beta^2 = q^0 and q^-1
    for beta in (1.0, 0.5 ** -0.5):
        with pytest.raises(PoleError):
            bilateral_delta_rhs(beta, 0.5)


def test_mass_points():
    for beta in (-0.5, 0.8, 1.0):
        zs, ws = mass_points(beta, Q)
        assert len(zs) == 0 and len(ws) == 0
    # 1 < beta < q^{-1/2}: one pair, and the measure stays positive
    zs, ws = mass_points(1.2, Q)
    assert len(zs) == 2 and np.all(ws > 0)
    # beta q^k > 1 for k = 0, 1 only: two pairs at z = +-sqrt(beta q^k)
    zs, ws = mass_points(3.0, 0.5)
    assert np.allclose(zs, [3.0 ** 0.5, -3.0 ** 0.5, 1.5 ** 0.5, -1.5 ** 0.5])
    assert ws[0] == ws[1] and ws[2] == ws[3]


def test_bilateral_delta_integral_two_mass_pairs():
    # beta = 3 > q^{-1/2} at q = 0.5: the full measure has two mass pairs
    q, beta = 0.5, 3.0
    rhs = bilateral_delta_rhs(beta, q)
    for n in range(-3, 4):
        got = bilateral_delta_integral(n, beta, q, 1e-10)
        target = rhs if n == 0 else 0.0
        assert abs(got - target) <= 1e-10 * max(1.0, abs(rhs))


def test_orthogonality_with_mass_points():
    w = WeightParams(1.2, Q)
    for n in range(4):
        assert orthogonality_entry(n, n, w, 1e-11).real == pytest.approx(
            orthogonality_diagonal(n, w), rel=1e-10)
    for (m, n) in ((0, 1), (0, 2), (1, 3), (2, 4)):
        assert abs(orthogonality_entry(m, n, w, 1e-11)) <= 1e-11


def test_kernel_integral_with_mass_points():
    w = WeightParams(1.2, Q)
    for (t1, t2) in ((0.0, 0.0), (0.4, -0.25), (0.6, 0.5)):
        got = kernel_integral(t1, t2, w, 1e-11)
        assert got == pytest.approx(kernel_integral_rhs(t1, t2, w), rel=1e-9)


def test_bilateral_delta_integral_region_error():
    with pytest.raises(RegionError):
        bilateral_delta_integral(0, 0.5, 0.3, 1e-9)  # beta^2 <= q


def test_shifted_orthogonality_diagonal(params):
    for n in (-1, 0, 2):
        lhs, rhs = shifted_orthogonality_pair(n, n, params, 1e-6)
        assert abs(lhs / rhs - 1.0) <= 1e-6


def test_shifted_orthogonality_offdiagonal(params):
    scale = abs(shifted_orthogonality_rhs(params))
    for (m, n) in ((0, 2), (1, -1)):
        lhs, rhs = shifted_orthogonality_pair(m, n, params, 1e-6)
        assert rhs == 0.0
        assert abs(lhs) <= 1e-6 * scale


def test_shifted_orthogonality_scaling_exact(params):
    scale = BETA ** 2 * GAMMA / Q
    _, rhs0 = shifted_orthogonality_pair(0, 0, params, 1e-6)
    for n in (-2, 1, 2):
        _, rhs = shifted_orthogonality_pair(n, n, params, 1e-6)
        assert rhs == rhs0 * scale ** n
        assert rhs == shifted_orthogonality_rhs(params, n=n)


def test_shifted_orthogonality_split_independence(params):
    lhs1, _ = shifted_orthogonality_pair(0, 0, params, 1e-6)
    lhs2, _ = shifted_orthogonality_pair(0, 0, params, 1e-6, k_extra=6)
    assert abs(lhs1 - lhs2) <= 1e-6


def test_shifted_orthogonality_with_mass_points():
    params = UltraParams(1.2, GAMMA, Q)
    scale = abs(shifted_orthogonality_rhs(params))
    for (m, n) in ((0, 0), (-1, -1), (2, 2), (0, 2), (1, -1)):
        lhs, rhs = shifted_orthogonality_pair(m, n, params, 1e-9)
        assert abs(lhs - rhs) <= 1e-9 * scale


@pytest.mark.parametrize("beta", [BETA, 1.2])  # 1.2 adds mass points
def test_shifted_orthogonality_evaluates_each_cj_once(beta, monkeypatch):
    import qultra.ultraspherical as us
    real = us.bilateral_cn_range
    rows = {}  # node set -> every n evaluated on it

    def spy(n_lo, n_hi, p, *args):
        rows.setdefault(p.z.tobytes(), []).extend(range(n_lo, n_hi + 1))
        return real(n_lo, n_hi, p, *args)

    monkeypatch.setattr(quad, "bilateral_cn_range", spy)
    monkeypatch.setattr(us, "bilateral_cn_range", spy)
    for m, n, k_extra in ((0, 0, 0), (0, 2, 0), (1, -1, 6)):
        rows.clear()
        shifted_orthogonality_pair(m, n, UltraParams(beta, GAMMA, Q), 1e-6,
                                   k_extra=k_extra)
        assert len(rows) >= 2 + (beta > 1)
        for evaluated in rows.values():
            assert len(evaluated) == len(set(evaluated))


def test_shifted_orthogonality_region_error():
    # |q/(beta^2 gamma)| >= 1 has no geometric decay of the k-weight
    params = UltraParams(0.55, 0.9, 0.3)
    with pytest.raises(RegionError):
        shifted_orthogonality_pair(0, 0, params, 1e-6)


def test_shifted_orthogonality_growing_shells_raise():
    # |q/(beta^2 gamma)| = 0.73 < 1 passes the region check, but the shells
    # grow at every step from k = 12 on; without the growth guard the loop
    # ran to k ~ 2300, where rho ** -k overflows a float
    with pytest.raises(NonConvergence, match="shells failed to decay"):
        quad.shifted_orthogonality_quadrature(0, 0, UltraParams(0.8, 1.5, 0.7))

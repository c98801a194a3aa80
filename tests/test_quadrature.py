import math

import numpy as np
import pytest

import qultra.quadrature as quad
from qultra import (DomainError, NonConvergence, PoleError, RegionError,
                    SpectralPoint, UltraParams,
                    WeightParams, bilateral_delta_integral, bilateral_delta_rhs,
                    classical_cn, integrate, kernel_integral,
                    kernel_integral_rhs, linearization_residual,
                    mass_points, orthogonality_diagonal,
                    orthogonality_entry, poch, poch_multi,
                    shifted_orthogonality_pair, shifted_orthogonality_rhs,
                    symmetry_params, weight_value)
from qultra.qcore import INFINITY
from qultra.quadrature import _circle_weight
from qultra.verify import CONFIG_DEFAULTS

Q, BETA, GAMMA = (CONFIG_DEFAULTS[k] for k in ("q", "beta", "gamma"))


def test_weight_params_window():
    WeightParams(0.8, 0.3)
    WeightParams(-0.5, 0.3)
    with pytest.raises(DomainError):
        WeightParams(1.9, 0.3)  # above q^{-1/2}
    with pytest.raises(DomainError):
        WeightParams(-1.0, 0.3)
    with pytest.raises(DomainError):
        WeightParams(0.5, -0.3)  # q must be real in (0, 1)


def test_weight_needs_real_beta():
    # UltraParams stores beta as a complex number; a zero imaginary part is
    # the real beta, and a nonzero one is refused with a DomainError
    w = WeightParams(UltraParams(0.8, 0.7, 0.3).beta, 0.3)
    assert w.beta == 0.8 and type(w.beta) is float
    for call in (lambda: WeightParams(0.8 + 0.3j, 0.3),
                 lambda: bilateral_delta_integral(0, 0.8 + 0.3j, 0.3),
                 lambda: bilateral_delta_rhs(0.8 + 0.3j, 0.3)):
        with pytest.raises(DomainError, match="weight needs real beta"):
            call()
    assert bilateral_delta_rhs(0.8 + 0j, 0.3) == bilateral_delta_rhs(0.8, 0.3)


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


def test_circle_weight_matches_the_four_product_form():
    rng = np.random.default_rng(3)
    thetas = rng.uniform(0.01, math.pi - 0.01, size=200)
    policy = __import__("qultra").DEFAULT_POLICY
    for beta, q in ((BETA, Q), (-0.5, 0.7), (1.2, 0.3), (0.0, 0.5)):
        got = _circle_weight(thetas, beta, q, policy)
        assert got.dtype == float
        z2 = np.exp(2j * thetas)
        want = (poch(z2, q, INFINITY) * poch(1 / z2, q, INFINITY)
                / (poch(beta * z2, q, INFINITY) * poch(beta / z2, q, INFINITY)))
        assert np.abs(want.imag).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(got / want.real - 1).max() <= 1e-14, (beta, q)


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


def test_integrand_type_error_propagates():
    # an integrand's own error is not retried one node at a time
    def f(sp):
        if isinstance(sp.z, np.ndarray):
            raise TypeError("bug")
        return 1.0

    with pytest.raises(TypeError, match="bug"):
        integrate(f, WeightParams(BETA, Q), 1e-12)


def test_integrand_of_the_wrong_shape_is_a_domain_error():
    with pytest.raises(DomainError):
        integrate(lambda sp: np.ones(3), WeightParams(BETA, Q), 1e-12)


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


def test_shifted_orthogonality_needs_real_beta_and_gamma():
    with pytest.raises(DomainError, match="^shifted orthogonality uses real beta, gamma$"):
        shifted_orthogonality_pair(0, 0, UltraParams(0.8 + 0.1j, 0.7, 0.3))


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
    assert orthogonality_entry(0, 0, w, 1e-10).value.real == pytest.approx(
        orthogonality_diagonal(0, w), rel=1e-9)
    assert abs(orthogonality_entry(2, 5, w, 1e-10).value) <= 1e-10
    assert orthogonality_entry(3, 3, w, 1e-10).value.real == pytest.approx(
        orthogonality_diagonal(3, w), rel=1e-8)


def test_orthogonality_symmetry():
    w = WeightParams(BETA, Q)
    a = orthogonality_entry(1, 4, w, 1e-11).value
    b = orthogonality_entry(4, 1, w, 1e-11).value
    assert a == pytest.approx(b, abs=1e-11)


def test_kernel_integral_trivial_case():
    w = WeightParams(BETA, Q)
    got = kernel_integral(0.0, 0.0, w, 1e-11).value
    want = (poch_multi([BETA, Q * BETA], Q, INFINITY)
            / poch_multi([Q, BETA ** 2], Q, INFINITY))
    assert got.real == pytest.approx(want.real, rel=1e-10)


def test_kernel_integral_matches_series_rhs():
    w = WeightParams(BETA, Q)
    got = kernel_integral(0.4, -0.25, w, 1e-11).value
    want = kernel_integral_rhs(0.4, -0.25, w)
    assert got == pytest.approx(want, rel=1e-8)


def test_kernel_integral_q_gauss_regime():
    # t1 t2 = q / beta^2 turns the series side into the q-Gauss product
    w = WeightParams(BETA, Q)
    t1 = 0.75
    t2 = Q / BETA ** 2 / t1
    got = kernel_integral(t1, t2, w, 1e-11).value
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
            got = bilateral_delta_integral(n, beta, q, 1e-10).value
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


def test_mass_points_refuse_complex_beta_or_q():
    # a complex beta or q raised a bare TypeError from the comparison
    # beta q^k > 1; a zero imaginary part is the real parameter
    for beta, q in ((1.2 + 0.1j, Q), (1.2, 0.3 + 0.1j)):
        with pytest.raises(DomainError, match="real"):
            mass_points(beta, q)
    for got, want in zip(mass_points(1.2 + 0j, complex(Q)), mass_points(1.2, Q)):
        assert got.tobytes() == want.tobytes()


def test_bilateral_delta_integral_two_mass_pairs():
    # beta = 3 > q^{-1/2} at q = 0.5: the full measure has two mass pairs
    q, beta = 0.5, 3.0
    rhs = bilateral_delta_rhs(beta, q)
    for n in range(-3, 4):
        got = bilateral_delta_integral(n, beta, q, 1e-10).value
        target = rhs if n == 0 else 0.0
        assert abs(got - target) <= 1e-10 * max(1.0, abs(rhs))


def test_orthogonality_with_mass_points():
    w = WeightParams(1.2, Q)
    for n in range(4):
        assert orthogonality_entry(n, n, w, 1e-11).value.real == pytest.approx(
            orthogonality_diagonal(n, w), rel=1e-10)
    for (m, n) in ((0, 1), (0, 2), (1, 3), (2, 4)):
        assert abs(orthogonality_entry(m, n, w, 1e-11).value) <= 1e-11


def test_kernel_integral_with_mass_points():
    w = WeightParams(1.2, Q)
    for (t1, t2) in ((0.0, 0.0), (0.4, -0.25), (0.6, 0.5)):
        got = kernel_integral(t1, t2, w, 1e-11).value
        assert got == pytest.approx(kernel_integral_rhs(t1, t2, w), rel=1e-9)


def test_bilateral_delta_integral_region_error():
    with pytest.raises(RegionError):
        bilateral_delta_integral(0, 0.5, 0.3, 1e-9)  # beta^2 <= q


@pytest.mark.parametrize("q, beta", [(Q, BETA), (0.5, 0.9), (0.5, 3.0), (0.1, 0.95)])
def test_bilateral_delta_sequence_agrees_with_its_integer_calls(q, beta):
    # one node loop for every n runs to the last level any n needs: an n
    # that stops there alone gives the same bits, the others agree within tol
    tol = 1e-9
    ns = range(-3, 4)
    seq = bilateral_delta_integral(ns, beta, q, tol)
    assert seq.value.shape == seq.last_refinement_delta.shape == (len(ns),)
    assert np.all(seq.last_refinement_delta < tol)
    for n, got in zip(ns, seq.value.tolist()):
        one = bilateral_delta_integral(n, beta, q, tol)
        assert isinstance(one.value, complex) and one.nodes_used <= seq.nodes_used
        assert abs(got - one.value) <= tol
        if one.nodes_used == seq.nodes_used:
            assert got == one.value


@pytest.mark.parametrize("n", [[], [[0]], [0.5, 1.0], (0, "1"), 1.0])
def test_bilateral_delta_sequences_are_checked(n):
    with pytest.raises(DomainError):
        bilateral_delta_integral(n, BETA, Q)


@pytest.mark.parametrize("q, beta", [(Q, BETA), (0.5, 1.5)])
def test_delta_entry_computes_the_measure_once_per_level(q, beta, monkeypatch):
    # the entry's seven n share the mass points and each level's weights
    from qultra.verify import run_identity
    calls = {"mass": 0, "weight": 0}

    def counted(key, real):
        def spy(*args):
            calls[key] += 1
            return real(*args)
        return spy

    monkeypatch.setattr(quad, "mass_points", counted("mass", quad.mass_points))
    monkeypatch.setattr(quad, "_circle_weight", counted("weight", _circle_weight))
    entry = run_identity("bilateral_delta_integral", {"q": q, "beta": beta})
    assert entry.passed and not entry.skipped
    masses = len(mass_points(beta, q)[0])
    levels = round(math.log2((entry.nodes_used - masses + 1) / 64)) + 1
    assert entry.nodes_used == 64 * 2 ** (levels - 1) - 1 + masses
    assert calls == {"mass": 1, "weight": levels}


def test_shifted_orthogonality_diagonal(params):
    for n in (-1, 0, 2):
        lhs, rhs = shifted_orthogonality_pair(n, n, params, 1e-6)
        assert abs(lhs.value / rhs - 1.0) <= 1e-6


def test_shifted_orthogonality_offdiagonal(params):
    scale = abs(shifted_orthogonality_rhs(params))
    for (m, n) in ((0, 2), (1, -1)):
        lhs, rhs = shifted_orthogonality_pair(m, n, params, 1e-6)
        assert rhs == 0.0
        assert abs(lhs.value) <= 1e-6 * scale


def test_shifted_orthogonality_scaling_exact(params):
    scale = BETA ** 2 * GAMMA / Q
    _, rhs0 = shifted_orthogonality_pair(0, 0, params, 1e-6)
    for n in (-2, 1, 2):
        _, rhs = shifted_orthogonality_pair(n, n, params, 1e-6)
        assert rhs == rhs0 * scale ** n
        assert rhs == shifted_orthogonality_rhs(params, n=n)


def test_shifted_orthogonality_split_independence(params):
    lhs1, _ = shifted_orthogonality_pair(0, 0, params, 1e-6)
    lhs2, _ = shifted_orthogonality_pair(0, 0, params, 1e-8)
    assert abs(lhs1.value - lhs2.value) <= 1e-6


def test_shifted_orthogonality_with_mass_points():
    params = UltraParams(1.2, GAMMA, Q)
    scale = abs(shifted_orthogonality_rhs(params))
    for (m, n) in ((0, 0), (-1, -1), (2, 2), (0, 2), (1, -1)):
        lhs, rhs = shifted_orthogonality_pair(m, n, params, 1e-9)
        assert abs(lhs.value - rhs) <= 1e-9 * scale


@pytest.mark.parametrize("beta", [BETA, 1.2])  # 1.2 adds mass points
def test_shifted_orthogonality_evaluates_each_cj_once(beta, monkeypatch):
    import qultra.ultraspherical as us
    real = us.bilateral_cn_range
    rows = {}  # (params, node set) -> every n evaluated on it
    passes = {}  # (params, node set) -> bilateral_cn_range calls on it

    def spy(n_lo, n_hi, p, params, *args):
        key = (params, p.z.tobytes())
        rows.setdefault(key, []).extend(range(n_lo, n_hi + 1))
        passes[key] = passes.get(key, 0) + 1
        return real(n_lo, n_hi, p, params, *args)

    monkeypatch.setattr(quad, "bilateral_cn_range", spy)
    monkeypatch.setattr(us, "bilateral_cn_range", spy)
    widened = False
    for m, n in ((0, 0), (0, 2), (1, -1), ([0, 0, 1], [0, 2, -1])):
        rows.clear()
        passes.clear()
        shifted_orthogonality_pair(m, n, UltraParams(beta, GAMMA, Q), 1e-6)
        assert len(rows) >= 2 * (2 + (beta > 1))   # both families
        for evaluated in rows.values():
            assert len(evaluated) == len(set(evaluated))
        widened = widened or max(passes.values()) > 1
    assert widened  # some node set needed shells beyond its first pass


SHIFTED_PAIRS = {"diagonal": ([-2, -1, 0, 1, 2], [-2, -1, 0, 1, 2]),
                 "offdiagonal": ([0, 1], [2, -1])}


@pytest.mark.parametrize("beta", [BETA, 1.2])  # 1.2 adds mass points
@pytest.mark.parametrize("pairs", list(SHIFTED_PAIRS))
def test_shifted_orthogonality_sequence_matches_pairs(beta, pairs):
    params, tol = UltraParams(beta, GAMMA, Q), 1e-6
    ms, ns = SHIFTED_PAIRS[pairs]
    lhs, rhs = shifted_orthogonality_pair(ms, ns, params, tol)
    assert lhs.value.shape == rhs.shape == lhs.last_refinement_delta.shape == (len(ms),)
    for i, (m, n) in enumerate(zip(ms, ns)):
        one, one_rhs = shifted_orthogonality_pair(m, n, params, tol)
        assert rhs[i] == one_rhs
        assert abs(lhs.value[i] - one.value) <= tol * max(1.0, abs(one_rhs)) / 4
        assert lhs.nodes_used >= one.nodes_used


def test_orthogonality_entry_sequence_matches_pairs():
    w, tol = WeightParams(BETA, Q), 1e-10
    pairs = [(m, n) for m in range(7) for n in range(m, 7)]
    assert len(pairs) == 28
    res = orthogonality_entry(*zip(*pairs), w, tol)
    for i, (m, n) in enumerate(pairs):
        one = orthogonality_entry(m, n, w, tol)
        assert abs(res.value[i] - one.value) <= tol
        assert res.nodes_used >= one.nodes_used


def test_orthogonality_entry_sequence_evaluates_each_degree_once(monkeypatch):
    real = quad.classical_cn
    degrees = {}  # node set -> every degree evaluated on it

    def spy(n, p, *args):
        degrees.setdefault(p.z.tobytes(), []).append(n)
        return real(n, p, *args)

    monkeypatch.setattr(quad, "classical_cn", spy)
    orthogonality_entry([0, 1, 1, 3], [0, 3, 1, 0], WeightParams(1.2, Q), 1e-10)
    assert len(degrees) >= 3  # the mass points and at least two levels
    for evaluated in degrees.values():
        assert sorted(evaluated) == [0, 1, 3]


def test_sequence_with_a_divergent_pair_raises():
    # |q gamma| > 1 at (q, beta, gamma) = (0.7, 0.8, 1.5): no pair converges
    params = UltraParams(0.8, 1.5, 0.7)
    with pytest.raises(NonConvergence):
        shifted_orthogonality_pair(1, -1, params)
    with pytest.raises(NonConvergence):
        shifted_orthogonality_pair([0, 1], [2, -1], params)


@pytest.mark.parametrize("m, n", [([0, 1], [0]), ([], []), ([[0]], [[0]]),
                                  ([0.5], [1]), ([0, 1], 1), (1.0, 1)])
def test_index_pairs_must_be_integer_sequences_of_one_length(m, n, params):
    with pytest.raises(DomainError):
        orthogonality_entry(m, n, WeightParams(BETA, Q))
    with pytest.raises(DomainError):
        shifted_orthogonality_pair(m, n, params)
    with pytest.raises(DomainError):
        linearization_residual(m, n, SpectralPoint.from_theta(0.4), BETA, Q)


def test_a_tolerance_that_is_not_positive_is_refused_before_any_work(
        params, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the tolerance check")

    monkeypatch.setattr(quad, "mass_points", no_work)
    monkeypatch.setattr(quad, "shifted_orthogonality_rhs", no_work)
    w = WeightParams(BETA, Q)
    for tol in (float("nan"), 0.0, -1e-6):
        calls = [lambda: integrate(lambda sp: 1.0, w, tol),
                 lambda: orthogonality_entry(0, 0, w, tol),
                 lambda: orthogonality_entry([0, 1], [0, 1], w, tol),
                 lambda: kernel_integral(0.4, -0.25, w, tol),
                 lambda: bilateral_delta_integral(0, BETA, Q, tol),
                 lambda: bilateral_delta_integral([0, 1], BETA, Q, tol),
                 lambda: shifted_orthogonality_pair(0, 0, params, tol),
                 lambda: shifted_orthogonality_pair([0, 1], [0, 1], params, tol)]
        for call in calls:
            with pytest.raises(DomainError, match="tol must be positive"):
                call()


def test_shifted_orthogonality_region_error():
    # |q/(beta^2 gamma)| >= 1 has no geometric decay of the k-weight
    params = UltraParams(0.55, 0.9, 0.3)
    with pytest.raises(RegionError):
        shifted_orthogonality_pair(0, 0, params, 1e-6)


def test_shifted_orthogonality_growing_shells_raise():
    # |q/(beta^2 gamma)| = 0.73 < 1 passes the region check, but the shells
    # k < 0 grow like |q gamma|^{-k} = 1.05^{|k|}, so the rate check raises
    # before the first shell
    with pytest.raises(NonConvergence, match="shells failed to decay"):
        shifted_orthogonality_pair(0, 0, UltraParams(0.8, 1.5, 0.7))


@pytest.mark.parametrize("params, rate", [
    (UltraParams(0.8, 1.5, 0.7), r"\|q gamma\| = 1.05 >= 1"),          # circle, k < 0
    (UltraParams(1.4, 0.3, 0.5), r"\|q/\(beta gamma\)\| = 1.19 >= 1"),  # mass, k >= 0
])
def test_divergent_shells_raise_before_any_row(params, rate, monkeypatch):
    real, calls = quad.bilateral_cn_range, []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(quad, "bilateral_cn_range", counted)
    for m, n in ((0, 0), ([0, 1], [0, -1])):
        with pytest.raises(NonConvergence, match="shells failed to decay: " + rate):
            shifted_orthogonality_pair(m, n, params)
    assert calls == []


@pytest.mark.parametrize("qbg", [(0.5, 1.2, 0.7), (0.7, 0.8, 1.5)])
def test_measured_shell_rates_follow_the_predicted_ones(qbg):
    # the rate check's limits: on the circle |rho| (k >= 0) and |q gamma|
    # (k < 0), at the mass point sqrt(beta) beta times each.  Measured on
    # the first node level as (S_59 / S_30)^{1/29}, S_k the weighted sum of
    # |C_{+-k}|^2 |rho|^{+-k} over the nodes; a residue of the shells'
    # oscillation keeps the circle's within 1% (1.046 against 1.05 at
    # (0.7, 0.8, 1.5)), and the mass point's match to 4 digits
    q, beta, gamma = qbg
    params, rho = UltraParams(beta, gamma, q), q / (beta ** 2 * gamma)
    predicted = [[abs(rho), abs(q * gamma)]]
    if beta > 1:
        predicted.append([abs(rho) * beta, abs(q * gamma) * beta])
    a = quad._map_strength(beta, q, beta)
    phis = math.pi / 64 * np.arange(1, 64)
    thetas = phis - a / 2 * np.sin(2 * phis)
    wts = _circle_weight(thetas, beta, q, quad.DEFAULT_POLICY) * (1 - a * np.cos(2 * phis))
    mass_z, mass_w = mass_points(beta, q)
    levels = [(np.exp(1j * thetas), wts)] + ([(mass_z, mass_w)] if len(mass_z) else [])
    assert len(levels) == len(predicted)
    for (z, w), want in zip(levels, predicted):
        v = np.abs(quad.bilateral_cn_range(-59, 59, SpectralPoint(z), params).values)
        got = [(np.sum(w * v[59 + 59 * s] ** 2) / np.sum(w * v[59 + 30 * s] ** 2)
                * abs(rho) ** (29 * s)) ** (1 / 29) for s in (1, -1)]
        assert got == pytest.approx(want, rel=0.01)


def test_a_slowly_decaying_shell_sum_returns_a_value():
    # |q gamma| = 0.99 at (0.5, 0.9, 1.98) passes the rate check.  The
    # mirrored family's weight (q gamma)^k stays in the double range, so the
    # sum returns a value.  It lands 1.5e-6 from the rhs, outside tol = 1e-6:
    # the stop rule leaves a tail of about 100 shells at rate 0.99 (ROADMAP
    # item 10's gap)
    lhs, rhs = shifted_orthogonality_pair(0, 0, UltraParams(0.9, 1.98, 0.5))
    assert np.isfinite(lhs.value)
    assert abs(lhs.value / rhs - 1) <= 1e-5


def _shells_one_at_a_time(m, n, params, tol, rhs):
    """The lhs of shifted_orthogonality_pair with its k-sum written one
    shell at a time: shell k adds the weighted node sum of C_{m+k} C_{n+k}
    rho^k and, for k >= 1, (beta/q)^{m+n} times that of C'_{k-m} C'_{k-n}
    (q gamma)^k, C' at the mirrored params; with the scan's stop rule,
    shell count and widening, without the rate check."""
    ms, ns = np.atleast_1d(m).tolist(), np.atleast_1d(n).tolist()
    q, beta, gamma = params.q.real, params.beta.real, params.gamma.real
    families = ((params, q / (beta ** 2 * gamma), 1),
                (symmetry_params(params), q * gamma, -1))
    kmin = [8] * len(ms)

    def partial_sum(sp, wts):
        rows = [quad.bilateral_cn_range(
            min(min(s * a, s * b) for a, b in zip(ms, ns)) + (s < 0),
            max(max(s * a, s * b) + k for a, b, k in zip(ms, ns, kmin)) + quad._SHELL_MARGIN,
            sp, fam) for fam, _, s in families]

        def family_shell(i, a, b, k, k0):
            if max(a, b) + k > rows[i].n_hi:
                rows[i] = rows[i].widened(rows[i].n_lo,
                                          max(a, b) + 2 * k - k0 + quad._WIDEN_ROWS)
            weight = families[i][1]
            return complex(np.sum(rows[i][a + k] * rows[i][b + k] * weight ** k * wts))

        def shell(m, n, k):
            u = family_shell(0, m, n, k, kmin[i])
            if k == 0:
                return u
            return u + (beta / q) ** (m + n) * family_shell(1, -m, -n, k, kmin[i])

        totals = []
        for i, (m, n) in enumerate(zip(ms, ns)):
            total, small, k = shell(m, n, 0), 0, 0
            while small < 2 or k < kmin[i]:
                k += 1
                contrib = shell(m, n, k)
                total += contrib
                small = small + 1 if abs(contrib) <= tol * max(1.0, abs(total)) / 64.0 else 0
            kmin[i] = k
            totals.append(total)
        return np.array(totals) if len(ms) > 1 else totals[0]

    tols = np.array([tol * max(1.0, abs(r)) / 4.0 for r in np.atleast_1d(rhs)])
    return quad._refine(partial_sum, beta, q, tols if len(ms) > 1 else tols[0],
                        quad.DEFAULT_POLICY, family=beta)


@pytest.mark.parametrize("qbg", [(Q, BETA, GAMMA), (0.5, 1.2, 0.7), (0.1, 0.95, 0.3)])
@pytest.mark.parametrize("m, n", [(0, 0), (1, -1), ((0, 1), (2, -1))])
@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_shell_runs_sum_what_single_shells_sum_bit_for_bit(qbg, m, n, tol):
    # (0.5, 1.2, 0.7) has mass points
    params = UltraParams(qbg[1], qbg[2], qbg[0])
    lhs, rhs = shifted_orthogonality_pair(m, n, params, tol)
    ref = _shells_one_at_a_time(m, n, params, tol, rhs)
    assert np.asarray(lhs.value).tobytes() == np.asarray(ref.value).tobytes()
    assert (np.asarray(lhs.last_refinement_delta).tobytes()
            == np.asarray(ref.last_refinement_delta).tobytes())
    assert lhs.nodes_used == ref.nodes_used


def test_shells_past_the_stop_raise_no_warning():
    # the divergent shells at (0.7, 0.8, 1.5) stop on the rate check, and
    # no shell computed ahead of the scan warns
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="shells failed to decay"):
            shifted_orthogonality_pair(0, 0, UltraParams(0.8, 1.5, 0.7))


@pytest.mark.parametrize("name", ["shifted_orthogonality_diagonal",
                                  "shifted_orthogonality_offdiagonal"])
def test_shifted_entries_take_few_direct_sum_passes(name, monkeypatch):
    # two node sets at the defaults, two shell families on each: on the
    # first each family's rows widen once upward (4 passes), and on the
    # second each family takes its 46-48 rows in one pass (6 in all)
    import qultra.ultraspherical as us
    from qultra.verify import run_identity
    real, calls = us._direct_rows, []

    def spy(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(us, "_direct_rows", spy)
    entry = run_identity(name, {})
    assert entry.passed
    assert 0 < len(calls) <= 7


def test_axis_distance_is_the_nearest_ladder_point():
    # min over k >= 0 of |x0 + k step| / 2, against a long brute-force ladder
    for x0, step in ((math.log(0.8), math.log(0.3)), (math.log(3.0), math.log(0.5)),
                     (math.log(0.9025 / 0.9), -math.log(0.9)),
                     (math.log(0.5 / 0.9), -math.log(0.9)), (0.0, 1.0)):
        want = min(abs(x0 + k * step) for k in range(400)) / 2
        assert quad._axis_distance(x0, step) == pytest.approx(want, abs=1e-15)


def test_map_strength_follows_the_nearest_singular_point():
    # weight poles at distance |log beta|/2; the delta family beta_f =
    # beta^2 adds z^2 = q/beta_f, at |log(q/beta_f)|/2
    d = abs(math.log(BETA)) / 2
    assert quad._map_strength(BETA, Q) == pytest.approx(1 - d ** (2 / 3))
    assert quad._map_strength(BETA, Q, BETA ** 2) == quad._map_strength(BETA, Q)
    d = abs(math.log(0.9 / 0.95 ** 2)) / 2
    assert quad._map_strength(0.95, 0.9, 0.95 ** 2) == pytest.approx(1 - d ** (2 / 3))
    assert quad._map_strength(0.95, 0.9, 0.95 ** 2) > quad._map_strength(0.95, 0.9)
    # no singular point over theta = 0 or pi, or none within distance 1
    for beta in (-0.5, 0.0):
        assert quad._map_strength(beta, Q) == 0.0
        assert quad._map_strength(beta, Q, -0.3) == 0.0
    assert quad._map_strength(0.1, 0.01) == 0.0       # d = |log 0.1|/2 > 1


def _uniform_rule(f, beta, q, tol):
    """The nested uniform trapezoid rule in theta, written out."""
    policy = __import__("qultra").DEFAULT_POLICY
    n, circle, value = 64, 0.0, math.inf
    thetas = math.pi / n * np.arange(1, n)
    while True:
        wts = _circle_weight(thetas, beta, q, policy) / (2 * n)
        vals = np.asarray(f(SpectralPoint(np.exp(1j * thetas))), dtype=complex)
        circle = circle / 2 + np.sum(vals * wts)
        delta, value = abs(circle - value), circle
        if delta < tol:
            return complex(value), n - 1
        thetas = math.pi / (2 * n) * np.arange(1, 2 * n, 2)
        n *= 2


@pytest.mark.parametrize("beta", [-0.5, 0.0])
def test_where_the_map_is_off_integrate_is_the_uniform_rule_bit_for_bit(beta):
    w = WeightParams(beta, Q)
    for f in (lambda sp: sp.x ** 2, lambda sp: classical_cn(4, sp, beta, Q)):
        got = integrate(f, w, 1e-13)
        assert (got.value, got.nodes_used) == _uniform_rule(f, beta, Q, 1e-13)


def test_integrals_at_the_defaults_stop_at_the_second_level():
    # the map at the weight's poles: 127 nodes, where the uniform rule took 255
    w = WeightParams(BETA, Q)
    diag = orthogonality_entry(range(7), range(7), w, 1e-8)
    assert diag.nodes_used <= 127
    want = [orthogonality_diagonal(n, w) for n in range(7)]
    assert np.allclose(diag.value, want, rtol=1e-12, atol=0)
    off = orthogonality_entry([0, 1, 2], [1, 3, 6], w, 1e-8)
    assert off.nodes_used <= 127 and np.abs(off.value).max() <= 1e-13
    kern = kernel_integral(0.4, -0.25, w, 1e-8)
    assert kern.nodes_used <= 127
    assert kern.value == pytest.approx(kernel_integral_rhs(0.4, -0.25, w), rel=1e-12)
    delta = bilateral_delta_integral(range(-3, 4), BETA, Q, 1e-8)
    assert delta.nodes_used <= 127
    rhs = bilateral_delta_rhs(BETA, Q)
    assert np.abs(delta.value - rhs * (np.arange(-3, 4) == 0)).max() <= 1e-13 * abs(rhs)


def test_delta_entry_near_q_one_clusters_its_nodes():
    # (q, beta) = (0.9, 0.95): the family's singular point z^2 = q/beta^2
    # sits 0.0014 off the axis; the uniform rule took 8,191 nodes
    from qultra.verify import run_identity
    entry = run_identity("bilateral_delta_integral",
                         {"q": 0.9, "beta": 0.95, "gamma": 0.5})
    assert entry.passed and not entry.skipped
    assert entry.nodes_used <= 511
    assert entry.residual <= entry.tolerance


def test_orthogonality_entry_refuses_negative_degrees():
    with pytest.raises(DomainError, match="orthogonality_entry needs m, n >= 0"):
        orthogonality_entry([0, 1], [2, -1], WeightParams(BETA, Q))

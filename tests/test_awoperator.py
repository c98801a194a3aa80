import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qultra.awoperator as aw
from qultra import (DomainError, SingularPoint, SpectralPoint, UltraParams,
                    apply_dq, bilateral_cn_range, dq_action_residual)
from qultra.ultraspherical import in_direct_region
from qultra.verify import CONFIG_DEFAULTS, run_identity

Q, BETA, GAMMA = (CONFIG_DEFAULTS[k] for k in ("q", "beta", "gamma"))


def test_an_array_point_equals_its_points_one_by_one(params):
    # an array of z of any shape gives each point's scalar result bit for
    # bit: at the defaults every bilateral row of the action is continued
    thetas = np.array([[0.4, 1.0, 2.2], [0.7, 1.9, 2.9]])
    p = SpectralPoint(np.exp(1j * thetas))
    points = [SpectralPoint(z) for z in p.z.ravel().tolist()]

    def one_by_one(call):
        return np.array([call(sp) for sp in points]).reshape(thetas.shape)

    got = apply_dq(lambda sp: sp.x ** 2, p, Q)
    assert got.tolist() == one_by_one(lambda sp: apply_dq(lambda s: s.x ** 2, sp, Q)).tolist()
    assert apply_dq(lambda sp: 1.0 + 0j, p, Q).tolist() == np.zeros(thetas.shape).tolist()
    for kind, n in (("classical", 2), ("bilateral", 1), ("bilateral", -3)):
        got = dq_action_residual(kind, n, p, params)
        assert got.shape == thetas.shape
        assert got.tolist() == one_by_one(
            lambda sp: dq_action_residual(kind, n, sp, params)).tolist()
    for kind, ns in (("classical", [5, 2]), ("bilateral", range(-4, 5))):
        got = dq_action_residual(kind, ns, p, params)
        each = [dq_action_residual(kind, ns, sp, params) for sp in points]
        assert got.residual.shape == (len(ns),) + thetas.shape
        assert got.residual.reshape(len(ns), -1).T.tolist() == [
            r.residual.tolist() for r in each]
        assert got.terms_used == max(r.terms_used for r in each)
    with pytest.raises(SingularPoint, match="singular at z = "):
        apply_dq(lambda sp: sp.x, SpectralPoint(np.array([1j, -1.0])), Q)


def test_constant_maps_to_zero(points):
    for p in points:
        assert apply_dq(lambda sp: 1.0 + 0j, p, Q) == 0.0


def test_identity_maps_to_one(points):
    for p in points:
        got = apply_dq(lambda sp: sp.x, p, Q)
        assert got == pytest.approx(1.0, rel=1e-13)


def test_x_squared_by_hand():
    # D_q x^2 = (q^{1/2} + q^{-1/2}) x: the divided difference of x^2 is
    # the sum of the two shifted abscissas
    p = SpectralPoint.from_theta(0.4)
    got = apply_dq(lambda sp: sp.x ** 2, p, Q)
    want = (Q ** 0.5 + Q ** -0.5) * p.x
    assert got == pytest.approx(want, abs=1e-12)


def test_singular_points():
    with pytest.raises(SingularPoint):
        apply_dq(lambda sp: sp.x, SpectralPoint(1.0 + 0j), Q)
    with pytest.raises(SingularPoint):
        apply_dq(lambda sp: sp.x, SpectralPoint(-1.0 + 1e-14j), Q)


def test_z_inversion_invariance(points):
    for p in points:
        a = apply_dq(lambda sp: sp.x ** 3, p, Q)
        b = apply_dq(lambda sp: sp.x ** 3, p.inverse(), Q)
        assert a == pytest.approx(b, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(alpha_re=st.floats(-2, 2), alpha_im=st.floats(-2, 2),
       theta=st.floats(0.2, 2.9))
def test_linearity(alpha_re, alpha_im, theta):
    alpha = complex(alpha_re, alpha_im)
    p = SpectralPoint.from_theta(theta)

    def f(sp):
        return sp.x ** 3 - 0.5 * sp.x

    def g(sp):
        return sp.x ** 2 + 2.0

    lhs = apply_dq(lambda sp: alpha * f(sp) + g(sp), p, Q)
    rhs = alpha * apply_dq(f, p, Q) + apply_dq(g, p, Q)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_q_to_one_approaches_derivative():
    # on smooth polynomials the operator approaches d/dx as q -> 1
    p = SpectralPoint.from_theta(1.1)
    x = p.x

    def f(sp):
        return sp.x ** 3

    exact = 3 * x ** 2
    err = [abs(apply_dq(f, p, q) - exact) for q in (0.9, 0.99)]
    assert err[1] < err[0]


@pytest.mark.parametrize("n", range(1, 7))
def test_dq_classical_action(n, params, points):
    for p in points:
        assert dq_action_residual("classical", n, p, params) <= 1e-10


def test_dq_classical_lowest_degree_constant(params, points):
    # both sides are the constant 2(1 - beta)/(1 - q)
    for p in points:
        assert dq_action_residual("classical", 1, p, params) <= 1e-12


@pytest.mark.parametrize("n", range(-4, 5))
def test_dq_bilateral_action(n, params, points):
    for p in points:
        assert dq_action_residual("bilateral", n, p, params) <= 1e-8


def _one_n_residuals(kind, ns, p, params):
    return [dq_action_residual(kind, n, p, params) for n in ns]


def test_dq_sequence_equals_its_integer_calls(points):
    # at the defaults every bilateral row of the action (at p q^{+-1/2} and
    # the lowered family at p) is continued, and a continued row is the
    # same in a range as alone, so both kinds match bit for bit
    params = UltraParams(BETA, GAMMA, Q)
    rq = cmath.sqrt(Q)
    for p in points:
        for kind, ns in (("classical", range(1, 7)), ("classical", [5, 2]),
                         ("bilateral", range(-4, 5)), ("bilateral", [3, -2])):
            got = dq_action_residual(kind, ns, p, params)
            assert got.residual.tolist() == _one_n_residuals(kind, ns, p, params)
            if kind == "classical":
                assert got.terms_used == 0
            else:
                assert got.terms_used == max(
                    bilateral_cn_range(min(ns) - s, max(ns) - s, sp, fam).truncation_terms.max()
                    for sp, fam, s in ((p.scaled(rq), params, 0),
                                       (p.scaled(1.0 / rq), params, 0),
                                       (p, params.with_beta(Q * BETA), 1)))


def test_dq_sequence_over_direct_rows_agrees_to_1e_15(points):
    # at (q, beta, gamma) = (0.5, 1.5, 0.7) every row comes from the direct
    # sum, which may round a row of a range differently from the row alone
    params = UltraParams(1.5, 0.7, 0.5)
    for p in points:
        for sp in (p.scaled(0.5 ** 0.5), p.scaled(0.5 ** -0.5)):
            assert in_direct_region(sp.z, 1.5, 0.5)
        assert in_direct_region(p.z, 0.75, 0.5)
        got = dq_action_residual("bilateral", range(-4, 5), p, params).residual
        want = _one_n_residuals("bilateral", range(-4, 5), p, params)
        assert max(abs(a - b) for a, b in zip(got.tolist(), want)) <= 1e-15
        assert max(want) <= 1e-12


@pytest.mark.parametrize("n", [[], [[1]], [1.0, 2.0], np.array([True]), 2.0])
def test_dq_sequences_are_checked(n, params, points):
    for kind in ("classical", "bilateral"):
        with pytest.raises(DomainError):
            dq_action_residual(kind, n, points[0], params)
    with pytest.raises(DomainError, match="n >= 1"):
        dq_action_residual("classical", [1, 0], points[0], params)


def test_dq_entry_evaluates_each_family_once(monkeypatch):
    # p q^{1/2}, p q^{-1/2} and the lowered family at p, each one range
    # call for the 3 points, where one call per (point, n) made 81 one-row
    # ones and one per point 9
    calls = []

    def spy(n_lo, n_hi, p, params, policy):
        calls.append((n_lo, n_hi))
        return real(n_lo, n_hi, p, params, policy)

    real = aw.bilateral_cn_range
    monkeypatch.setattr(aw, "bilateral_cn_range", spy)
    entry = run_identity("dq_action_bilateral")
    assert entry.passed and entry.terms_used > 0
    assert calls == [(-4, 4), (-4, 4), (-5, 3)]


def test_unknown_kind_is_a_domain_error(params):
    with pytest.raises(DomainError, match="unknown kind 'trilateral'"):
        dq_action_residual("trilateral", 1, SpectralPoint.from_theta(1.0), params)

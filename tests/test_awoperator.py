import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qultra import (SingularPoint, SpectralPoint, UltraParams, apply_dq,
                    classical_cn, dq_action_residual)
from qultra.verify import CONFIG_DEFAULTS

Q, BETA, GAMMA = (CONFIG_DEFAULTS[k] for k in ("q", "beta", "gamma"))


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

import numpy as np
import pytest

from qultra import (BILATERAL, UNILATERAL, DomainError, RegionError,
                    SeriesSpec, TruncationPolicy, closed_form, poch,
                    poch_multi, sum_phi, sum_psi, transform_residual)
from qultra.qcore import INFINITY
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

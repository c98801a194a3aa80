"""One rule for vanishing q-products: every closed-form denominator asks
qcore.check_vanishing, so a product that vanishes is a PoleError that
names it, never a bare ZeroDivisionError or a quotient by rounding noise."""

import cmath
import re

import pytest

from qultra import (PoleError, SpectralPoint, UltraParams, WeightParams,
                    bilateral_cn_continued, bilateral_cn_range,
                    bilateral_delta_integral, closed_form,
                    constant_term, dq_action_residual, kernel_integral_rhs,
                    linearization_residual, mass_points, orthogonality_diagonal,
                    run_suite, special_value_c0, special_value_cm1)
from qultra.qcore import INFINITY, check_vanishing, poch_multi, poch_quotient

Q = 0.3
P = SpectralPoint.from_theta(1.0)
#: a complex base whose powers q^m wrap past arg = pi from |m| = 2 on
Q_TURNED = 0.5 * cmath.exp(2j)

# (call, the product its message names); each raised ZeroDivisionError
POLE_CALLS = {
    "orthogonality_diagonal": (
        lambda: orthogonality_diagonal(0, WeightParams(1.0, Q)), "(beta^2; q)_inf"),
    "kernel_integral_rhs": (
        lambda: kernel_integral_rhs(0.4, -0.25, WeightParams(1.0, Q)), "(beta^2; q)_inf"),
    "special_value_c0": (
        lambda: special_value_c0(UltraParams(Q ** 0.5, 0.7, Q)), "(q^(1/2)/beta; q)_inf"),
    "constant_term": (
        lambda: constant_term(0, UltraParams(-Q, 0.7, Q)), "(-q/beta; q)_inf"),
    "q_gauss": (lambda: closed_form("q_gauss", (2.0, 3.0, 1.0), Q), "(c; q)_inf"),
    "ramanujan_1psi1": (
        lambda: closed_form("ramanujan_1psi1", (4.0, 1 / Q, 0.9), Q), "(b; q)_inf"),
    "linearization_residual": (
        lambda: linearization_residual(1, 1, P, 1.0, Q), "(beta; q)_3"),
    "dq_action_residual": (
        lambda: dq_action_residual("bilateral", 1, P, UltraParams(1.0, 0.7, Q)),
        "(beta; q)_1"),
    "mass_points": (lambda: mass_points(1 / Q, Q), "(beta u_0; q)_inf"),
    "bilateral_delta_integral": (
        lambda: bilateral_delta_integral(0, 1 / Q, Q), "(beta u_0; q)_inf"),
    "special_value_cm1": (
        lambda: special_value_cm1(UltraParams(1.0, 0.7, Q)), "(beta; q)_1"),
}


@pytest.mark.parametrize("name", sorted(POLE_CALLS))
def test_a_vanishing_denominator_is_a_pole_error_naming_it(name):
    call, product = POLE_CALLS[name]
    with pytest.raises(PoleError, match="^" + re.escape(product) + " vanishes at "):
        call()


@pytest.mark.parametrize("beta", [1.0, Q ** 0.5, Q])
def test_no_suite_entry_fails_with_an_internal_error(beta):
    # beta = 1 and q^{1/2} put a closed form's denominator on its lattice;
    # at beta = q both sides of the C_0 value are 0, a zero reference
    report = run_suite({"q": Q, "beta": beta, "gamma": 0.7})
    assert [e.identity_name for e in report.entries
            if e.note.startswith("internal error")] == []


def test_a_zero_reference_skips_its_entry_and_names_it():
    entries = {e.identity_name: e for e in run_suite({"beta": Q}).entries}
    c0 = entries["bilateral_cn_special_value_c0"]
    assert c0.skipped and c0.passed
    assert c0.note == ("DomainError: the relative rule divides by its "
                       "reference, which is 0 at item 0")


def test_check_vanishing_tests_the_factors_of_a_finite_product():
    # (a; q)_k has the factors 1 - a q^j, 0 <= j < k
    check_vanishing({"a": Q ** -3}, Q, 3)
    check_vanishing({"a": Q}, Q)                     # a = q^1: no factor is 0
    check_vanishing({"a": 1.0}, Q, 0)                # the empty product
    check_vanishing({"a": 1.0}, Q, -2)
    check_vanishing({"a": -1.0}, Q)                  # not a power of real q
    with pytest.raises(PoleError, match=r"^\(a; q\)_4 vanishes at a = q\^-3$"):
        check_vanishing({"a": Q ** -3}, Q, 4)
    with pytest.raises(PoleError, match=r"^\(b; q\)_inf vanishes at b = q\^0: why$"):
        check_vanishing({"a": 0.5, "b": 1.0}, Q, why="why")


def test_a_factor_within_the_lattice_tolerance_is_a_pole():
    # 1e-13 off beta = q^{3/2}, (q^{1/2}/beta; q)_inf has the factor
    # 1 - q^{-1} beta q^{1/2} q = 1e-13: the quotient read -8.0e12
    with pytest.raises(PoleError, match=r"q\^\(1/2\)/beta = q\^-1"):
        special_value_c0(UltraParams(Q ** 1.5 * (1 + 1e-13), 0.7, Q))


def test_poch_quotient_is_the_quotient_of_its_products_bit_for_bit():
    num, den = [0.2 + 0.1j, -0.4], {"x": 0.5j, "y": 1.7}
    assert poch_quotient(num, den, Q) == (poch_multi(num, Q, INFINITY)
                                          / poch_multi([0.5j, 1.7], Q, INFINITY))


@pytest.mark.parametrize("params,message", [
    (UltraParams(0.8, Q ** -2, Q), r"^\(q gamma; q\)_inf vanishes at q gamma = q\^-1$"),
    (UltraParams(0.8, Q ** 2 / 0.8, Q),
     r"^\(q/\(beta gamma\); q\)_inf vanishes at q/\(beta gamma\) = q\^-1$"),
    # q gamma = q^-2 and q^-1 where the principal logarithms of q gamma
    # and q differ by a multiple of 2 pi i
    (UltraParams(0.8, Q_TURNED ** -3, Q_TURNED),
     r"^\(q gamma; q\)_inf vanishes at q gamma = q\^-2$"),
    (UltraParams(0.8, 4.0, -0.5), r"^\(q gamma; q\)_inf vanishes at q gamma = q\^-1$"),
])
def test_parameter_lattices_name_their_product(params, message):
    with pytest.raises(PoleError, match=message):
        bilateral_cn_range(0, 1, P, params)


def test_continuation_lattice_names_its_product_and_the_limit():
    # beta gamma = 1: the direct sum is regular, the continuations are not
    params = UltraParams(0.8, 1.25, Q)
    with pytest.raises(PoleError, match=r"^\(beta gamma; q\)_inf vanishes at "
                                        r"beta gamma = q\^0: requires a limit"):
        constant_term(0, params)


def test_singular_point_of_c_n_names_its_product():
    params = UltraParams(0.8, 0.7, Q)
    z = complex((Q / 0.8) ** 0.5)              # q/(beta z^2) = q^0
    with pytest.raises(PoleError, match=r"^\(q/\(beta z\^2\); q\)_inf vanishes at "
                                        r"q/\(beta z\^2\) = q\^0: C_n is singular there"):
        bilateral_cn_continued(0, z, params)


def test_no_suite_entry_fails_at_a_negative_base_on_its_pole_lattice():
    # gamma = 4 = q^-2 at q = -0.5: each entry that needs (q gamma; q)_inf
    # skips with its PoleError
    report = run_suite({"q": -0.5, "gamma": 4.0})
    assert [e.identity_name for e in report.entries if not e.passed] == []
    assert [e.identity_name for e in report.entries
            if e.note.startswith("internal error")] == []

"""Acceptance checks, one per criterion, each printing a pass/fail line.

Default parameters throughout: q = 0.3, beta = 0.8, gamma = 0.7,
z in {e^{0.4i}, e^{1.0i}, e^{2.2i}}, t = 0.6.

Two checks were red until their causes were found:

* 08b: the stated product special_value_cm1 is not C_{-1} at
  z = q^{1/2}: its d -> q derivation from Bailey's second well-poised
  3psi3 sum flips the sign of the k < 0 terms.  The reference is
  therefore the product plus twice those terms in closed form (a 3phi2,
  see special_value_cm1), which is independent of both continuation
  routes; test_ultraspherical certifies it against the direct sum.
* 12: at (q, beta) = (0.5, 1.5) the weight pole z^2 = beta lies outside
  the unit circle and its mirror inside, so the Askey-Wilson measure has
  a pair of mass points besides the circle part.  The integrator used to
  drop them; it now integrates against the full measure.
"""

import math

import numpy as np
import pytest

from qultra import (SeriesSpec, SpectralPoint, UltraParams, WeightParams,
                    bilateral_cn, bilateral_delta_integral,
                    bilateral_delta_rhs, classical_cn, closed_form,
                    dq_action_residual, generating_rhs,
                    kernel_integral, kernel_integral_rhs,
                    linearization_residual, orthogonality_diagonal,
                    orthogonality_entry, recurrence_residual,
                    special_value_c0, special_value_cm1,
                    shifted_orthogonality_pair, shifted_orthogonality_rhs,
                    sum_phi, sum_psi, symmetry_residual,
                    transform_residual)
from qultra.hyperseries import BILATERAL, UNILATERAL
from qultra.verify import CONFIG_DEFAULTS, render_json, run_suite

Q, BETA, GAMMA, T = (CONFIG_DEFAULTS[k] for k in ("q", "beta", "gamma", "t"))
POINTS = [SpectralPoint.from_theta(t) for t in CONFIG_DEFAULTS["thetas"]]
PARAMS = UltraParams(BETA, GAMMA, Q)


def report(name, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"{status} {name}: max residual {worst:.3e} (tolerance {tol:.1e})")
    assert worst <= tol, f"{name}: {worst:.3e} > {tol:.1e}"


def test_01_ramanujan_1psi1():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.5, 1.1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = a * rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        z = rng.uniform(0.45, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs = sum_psi(SeriesSpec(BILATERAL, (a,), (b,), Q, z))[0]
        rhs = closed_form("ramanujan_1psi1", (a, b, z), Q)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    report("01 ramanujan_1psi1 (20 random in-annulus points)", worst, 1e-9)


def test_02_bailey_transformations():
    rng = np.random.default_rng(22)
    worst = 0.0
    for name, base in (("bailey_2psi2_single", (0.9, 0.8, 0.1, 0.2, 0.5)),
                       ("bailey_2psi2_iterated", (0.9, 0.8, 0.1, 0.2, 0.5)),
                       ("wellpoised_6psi8", (0.5, 0.9, 0.8, 0.7, 0.6))):
        done = 0
        while done < 10:
            jitter = np.array(base) * rng.uniform(0.85, 1.15, size=5)
            try:
                worst = max(worst, transform_residual(name, jitter, Q))
            except Exception:
                continue
            done += 1
    report("02 bailey 2psi2 + 6psi8 transformations (10 points each)", worst, 1e-9)


def test_03_gamma_one_reduction():
    reduced = UltraParams(BETA, 1.0, Q)
    worst = 0.0
    for p in POINTS:
        for n in range(0, 9):
            got = bilateral_cn(n, p, reduced).value
            want = classical_cn(n, p, BETA, Q)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    report("03 gamma = 1 reduction (n = 0..8)", worst, 1e-10)


def test_04_bilateral_recurrence():
    worst = 0.0
    for p in POINTS:
        for n in range(-6, 7):
            worst = max(worst, recurrence_residual("bilateral", n, p, PARAMS))
    report("04 bilateral three-term recurrence (n = -6..6)", worst, 1e-10)


def test_05_bilateral_generating_function():
    worst = 0.0
    for p in POINTS:
        rhs = generating_rhs("bilateral", T, p, PARAMS)
        acc = bilateral_cn(0, p, PARAMS).value + 0j
        tail = 0
        n = 1
        while tail < 3 and n < 200:
            shell = (bilateral_cn(n, p, PARAMS).value * T ** n
                     + bilateral_cn(-n, p, PARAMS).value * T ** -n)
            acc += shell
            tail = tail + 1 if abs(shell) < 1e-12 * abs(rhs) else 0
            n += 1
        worst = max(worst, abs(acc - rhs) / abs(rhs))
    report("05a generating function, adaptive two-sided sum", worst, 1e-8)

    worst = 0.0
    for p in POINTS:
        m = 64
        prev = None
        while True:
            phis = 2 * np.pi * np.arange(m) / m
            samples = np.array([
                generating_rhs("bilateral", T * np.exp(1j * ph), p, PARAMS)
                for ph in phis])
            coeff = np.fft.fft(samples) / m
            if prev is not None and max(
                    abs(coeff[n] - prev[n]) for n in range(-4, 5)) < 1e-9:
                break
            prev = coeff
            m *= 2
            assert m <= 4096
        for n in range(-4, 5):
            got = coeff[n % m] / T ** n
            want = bilateral_cn(n, p, PARAMS).value
            worst = max(worst, abs(got - want))
    report("05b generating function, Fourier-inverted coefficients", worst, 1e-7)


def test_06_symmetry():
    worst = 0.0
    for p in POINTS:
        for n in range(-4, 5):
            worst = max(worst, symmetry_residual(n, p, PARAMS))
    report("06 index-negation symmetry (n = -4..4)", worst, 1e-10)


def test_07_constant_terms():
    p = SpectralPoint(1j)
    worst = 0.0
    from qultra import constant_term
    for n in range(-4, 5):
        got = bilateral_cn(n, p, PARAMS).value
        want = constant_term(n, PARAMS)
        worst = max(worst, abs(got - want))
    report("07 constant terms at x = 0 (n = -4..4)", worst, 1e-9)


def test_08a_special_value_c0():
    p = SpectralPoint(complex(Q ** 0.25))
    got = bilateral_cn(0, p, PARAMS).value
    want = special_value_c0(PARAMS)
    worst = abs(got - want) / abs(want)
    report("08a special value C_0 at z = q^(1/4)", worst, 1e-10)


def test_08b_special_value_cm1():
    # the stated product plus the closed form of its sign-flipped k < 0
    # terms (see module docstring)
    p = SpectralPoint(complex(Q ** 0.5))
    got = bilateral_cn(-1, p, PARAMS).value
    bg = BETA * GAMMA
    phi = sum_phi(SeriesSpec(UNILATERAL, (bg / Q, 1 / GAMMA, Q), (Q / bg, GAMMA),
                             Q, Q ** 2 / BETA))[0]
    want = special_value_cm1(PARAMS) + 2 * Q ** 0.5 * (1 - GAMMA) / (Q - bg) * (phi - 1)
    worst = abs(got - want) / abs(want)
    report("08b special value C_-1 at z = q^(1/2)", worst, 1e-10)


def test_09_dq_actions():
    worst = 0.0
    for p in POINTS:
        for n in range(1, 7):
            worst = max(worst, dq_action_residual("classical", n, p, PARAMS))
    report("09a divided-difference action, classical (n = 1..6)", worst, 1e-10)
    worst = 0.0
    for p in POINTS:
        for n in range(-4, 5):
            worst = max(worst, dq_action_residual("bilateral", n, p, PARAMS))
    report("09b divided-difference action, bilateral (n = -4..4)", worst, 1e-8)


def test_10_classical_orthogonality():
    w = WeightParams(BETA, Q)
    gram = {}
    for m in range(7):
        for n in range(m, 7):
            gram[(m, n)] = orthogonality_entry(m, n, w, 1e-10).value
    scale = abs(gram[(0, 0)])
    worst_off = max(abs(gram[(m, n)]) for m in range(7)
                    for n in range(m + 1, 7)) / scale
    worst_diag = max(abs(gram[(n, n)] - orthogonality_diagonal(n, w))
                     / orthogonality_diagonal(n, w) for n in range(7))
    report("10a classical orthogonality, off-diagonal", worst_off, 1e-9)
    report("10b classical orthogonality, diagonal", worst_diag, 1e-8)


def test_11_kernel_integral():
    w = WeightParams(BETA, Q)
    got = kernel_integral(0.4, -0.25, w, 1e-10).value
    want = kernel_integral_rhs(0.4, -0.25, w)
    worst = abs(got - want) / abs(want)
    report("11 kernel integral at t1 = 0.4, t2 = -0.25", worst, 1e-8)


def test_12_bilateral_delta_integral():
    # pinned parameters (q, beta) = (0.5, 1.5); beta > 1 breaks the
    # pure-integral premise (see module docstring), reported as measured
    q, beta = 0.5, 1.5
    rhs0 = bilateral_delta_rhs(beta, q)
    worst = 0.0
    for n in range(-3, 4):
        got = bilateral_delta_integral(n, beta, q, 1e-9).value
        target = 1.0 if n == 0 else 0.0
        worst = max(worst, abs(got / rhs0 - target))
    report("12 bilateral delta integral at (q, beta) = (0.5, 1.5)", worst, 1e-7)


def test_13_shifted_orthogonality():
    scale0 = abs(shifted_orthogonality_rhs(PARAMS))
    worst_diag = 0.0
    worst_off = 0.0
    rhs_vals = {}
    for m in range(-2, 3):
        for n in range(-2, 3):
            lhs, rhs = shifted_orthogonality_pair(m, n, PARAMS, 1e-6)
            if m == n:
                worst_diag = max(worst_diag, abs(lhs.value / rhs - 1.0))
                rhs_vals[m] = rhs
            else:
                worst_off = max(worst_off, abs(lhs.value) / scale0)
    report("13a shifted orthogonality, diagonal ratio", worst_diag, 1e-6)
    report("13b shifted orthogonality, off-diagonal", worst_off, 1e-6)
    factor = BETA ** 2 * GAMMA / Q
    worst_scale = max(abs(rhs_vals[n] - rhs_vals[0] * factor ** n)
                      for n in (-2, -1, 1, 2))
    report("13c shifted orthogonality, exact diagonal scaling", worst_scale, 0.0)


def test_14_linearization():
    worst = 0.0
    for p in POINTS:
        for m in range(5):
            for n in range(5):
                worst = max(worst, linearization_residual(m, n, p, BETA, Q))
    report("14 linearization of classical products (m, n <= 4)", worst, 1e-10)


def test_15_suite_determinism():
    a = render_json(run_suite({}))
    b = render_json(run_suite({}))
    identical = a.encode() == b.encode()
    print(f"{'PASS' if identical else 'FAIL'} 15 suite determinism: "
          f"two runs produce byte-identical JSON ({len(a)} bytes)")
    assert identical

"""Continuous q-ultraspherical polynomials and their two-parameter
bilateral extension: evaluation, generating functions, recurrence,
symmetry, constant terms, special values and linearization.

The bilateral function

    C_n(x; beta, gamma | q) = sum_k g_k g_{n-k} z^{n-2k},
    g_j = (beta*gamma; q)_j / (q*gamma; q)_j,   x = (z + 1/z)/2,

converges for |q z^2 / beta| < 1 and |q / (beta z^2)| < 1.  Inside that
annulus the primary evaluation path is the direct two-sided sum.
Outside it the function is still analytic in x along paths avoiding the
annulus-boundary singularities, and evaluation switches to one of two
analytic-continuation representations:

* a very-well-poised 6psi8 series whose two-sided tails decay
  superexponentially for every z != 0 (it fails only on a thin
  parameter lattice), and
* a transformed 2psi2 whose argument is independent of z, valid when
  |q^{1-n}/(beta gamma)^2| < 1 and |q^{1+n} gamma^2| < 1,

with a recurrence climb from continued C_0, C_{-1} as a last resort.
This is what makes divided-difference checks at q^{+-1/2}-shifted points
and the special-value points z = q^{1/2}, q^{1/4} computable for
beta < 1, where the direct sum diverges at those points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, PoleError, RegionError
from .hyperseries import BILATERAL, SeriesSpec, sum_psi
from .qcore import (DEFAULT_POLICY, INFINITY, CompensatedSum, SpectralPoint,
                    TruncationPolicy, check_base, check_real_base, is_q_power,
                    poch, poch_multi, poch_ratio, poch_recip)

CLASSICAL = "classical"
BILATERAL_KIND = "bilateral"

#: switch from the direct sum to a continuation once either region ratio
#: exceeds this (strictly inside 1 to avoid arbitrarily slow tails)
DIRECT_REGION_MARGIN = 0.98


@dataclass(frozen=True)
class UltraParams:
    """The (beta, gamma, q) triple of the bilateral family."""

    beta: complex
    gamma: complex
    q: complex

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "q", check_base(self.q))
        if self.beta == 0 or self.gamma == 0:
            raise DomainError("beta and gamma must be nonzero")

    def with_gamma(self, gamma) -> "UltraParams":
        return UltraParams(self.beta, gamma, self.q)

    def with_beta(self, beta) -> "UltraParams":
        return UltraParams(beta, self.gamma, self.q)


@dataclass(frozen=True)
class UltraValue:
    """One bilateral function value plus its truncation diagnostics."""

    n: int
    point: SpectralPoint
    value: complex
    truncation_terms: int


def check_pole_lattice(params: UltraParams) -> None:
    """Raise PoleError when gamma or beta*gamma sits on a q-power lattice
    that makes some (q gamma; q)_k or (beta gamma; q)_k denominator vanish
    (or require a limit).  gamma = q^m with m >= 0 is fine."""
    m = is_q_power(params.gamma, params.q)
    if m is not None and m <= -1:
        raise PoleError(f"gamma = q^{m} lies on the pole lattice")
    m = is_q_power(params.beta * params.gamma, params.q)
    if m is not None:
        if m >= 1:
            raise PoleError(f"beta*gamma = q^{m} lies on the pole lattice")
        raise PoleError(
            f"beta*gamma = q^{m} requires a limit evaluation (unsupported lattice)")


def region_ratios(z, beta, q):
    """The two convergence ratios |q z^2 / beta| and |q / (beta z^2)|."""
    z = np.asarray(z, dtype=complex)
    z2 = z * z
    return np.abs(q * z2 / beta), np.abs(q / (beta * z2))


def in_direct_region(z, beta, q, margin: float = DIRECT_REGION_MARGIN) -> bool:
    r1, r2 = region_ratios(z, beta, q)
    return bool(np.all(r1 < margin) and np.all(r2 < margin))


def classical_cn(n: int, p: SpectralPoint, beta, q):
    """Continuous q-ultraspherical polynomial of degree n at p.

    Finite sum sum_{k=0}^{n} c_k c_{n-k} z^{n-2k} with
    c_k = (beta; q)_k / (q; q)_k; exact finite arithmetic.
    """
    if n < 0:
        raise DomainError("classical polynomials need n >= 0")
    q = check_base(q)
    beta = complex(beta)
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    qk = 1.0 + 0j
    for k in range(n):
        c[k + 1] = c[k] * (1.0 - beta * qk) / (1.0 - qk * q)
        qk *= q
    z = p.z
    scalar = not isinstance(z, np.ndarray)
    z = np.asarray(z, dtype=complex)
    acc = CompensatedSum(z)
    zpow = z ** n
    z2 = z * z
    for k in range(n + 1):
        acc.add(c[k] * c[n - k] * zpow)
        if k < n:
            zpow = zpow / z2
    out = acc.value
    return complex(out) if scalar else out


def _bilateral_direct(n: int, z, params: UltraParams,
                      policy: TruncationPolicy):
    """Two-sided sum of the defining series; z scalar or ndarray.

    Runs four coupled one-step recursions for g_k, g_{n-k} on each side so
    every intermediate stays bounded; term magnitudes plateau for roughly
    |n| steps before the geometric tails set in, so the divergence guard
    window scales with |n|.
    """
    q, bg, gq = params.q, params.beta * params.gamma, params.q * params.gamma
    scalar = not isinstance(z, np.ndarray)
    z = np.asarray(z, dtype=complex)
    z2 = z * z

    acc = CompensatedSum(z)
    gB0 = poch_ratio(bg, gq, q, n)   # g_n
    guard_window = 8 * policy.tail_window + 2 * abs(n) + 8
    total_terms = 0

    def run_side(forward: bool):
        nonlocal total_terms
        gA = 1.0 + 0j          # g_k at k = 0
        gB = gB0               # g_{n-k} at k = 0
        zpow = z ** n
        if forward:
            u = 1.0 + 0j       # q^k
            vB = q ** (1 - n)  # q^{1-(n-k)}
        else:
            vA = q             # q^{1-k}
            uB = q ** n        # q^{n-k}
        t = gA * gB * zpow
        if forward:
            acc.add(t)
            total_terms += 1
        below = 0
        growth = 0
        prev = None
        for step in range(policy.max_terms):
            if forward:
                denA = 1.0 - gq * u
                denB = vB - bg
                if denA == 0 or denB == 0:
                    raise PoleError("parameter lattice hit in the direct sum")
                gA = gA * (1.0 - bg * u) / denA
                gB = gB * (vB - gq) / denB
                u *= q
                vB *= q
                zpow = zpow / z2
            else:
                denA = vA - bg
                denB = 1.0 - gq * uB
                if denA == 0 or denB == 0:
                    raise PoleError("parameter lattice hit in the direct sum")
                gA = gA * (vA - gq) / denA
                gB = gB * (1.0 - bg * uB) / denB
                vA *= q
                uB *= q
                zpow = zpow * z2
            t = gA * gB * zpow
            if not np.all(np.isfinite(t)):
                raise NonConvergence("direct bilateral sum overflowed")
            tm = float(np.max(np.abs(t)))
            if tm == 0.0:
                return
            acc.add(t)
            total_terms += 1
            sm = float(np.min(np.abs(acc.value)))
            if prev is not None and tm > prev * (1.0 + 1e-6):
                growth += 1
                if growth >= guard_window:
                    raise NonConvergence(
                        "bilateral terms failed to decay (out of region?)")
            else:
                growth = 0
            prev = tm
            thresh = policy.rel_tol * float(np.max(np.abs(acc.value))) + policy.abs_tol
            if float(np.max(np.abs(t))) <= thresh:
                below += 1
                if below >= policy.tail_window:
                    return
            else:
                below = 0
        raise NonConvergence(
            f"bilateral sum did not converge within {policy.max_terms} terms per side")

    run_side(forward=True)
    run_side(forward=False)
    out = acc.value
    return (complex(out) if scalar else out), total_terms


class _RouteUnusable(RegionError):
    """A continuation route does not apply at this point."""


# the failures after which _bilateral_continued tries its next route
_ROUTE_FAILURES = (RegionError, PoleError, NonConvergence, ZeroDivisionError)


def _near_half_lattice(value, q, tol=1e-8):
    value = complex(value)
    if value == 0:
        return True
    r = cmath.log(value) / cmath.log(complex(q))
    return abs(r - round(2 * r.real) / 2) < tol


def _on_nonpositive_lattice(value, q):
    m = is_q_power(value, q)
    return m is not None and m <= 0


def _bilateral_6psi8(n: int, z: complex, params: UltraParams,
                     policy: TruncationPolicy):
    """Continuation through the very-well-poised 6psi8 representation."""
    q, beta, gamma = params.q, params.beta, params.gamma
    bg, gq = beta * gamma, q * gamma
    w2 = z * z
    alpha = q ** (-n) / w2
    # the representation degenerates on the (half-)integer q-power lattice
    # of alpha and where a prefactor denominator product vanishes
    if _near_half_lattice(alpha, q):
        raise _RouteUnusable("alpha on the q-power lattice")
    for arg in (q * w2 / beta, q / (beta * w2), q ** (1 - n) / bg):
        if _on_nonpositive_lattice(arg, q):
            raise _RouteUnusable("prefactor product vanishes")
    c = q ** (-n) / (w2 * gamma)
    d = bg / w2
    e = bg
    f = q ** (-n) / gamma
    sq = cmath.sqrt(alpha)
    pref0 = poch_ratio(bg, gq, q, n) * z ** n
    pref1 = (poch_multi([q / c, q / d, alpha * q / e, alpha * q / f],
                        q, INFINITY, policy)
             / poch_multi([alpha * q, q / alpha, alpha * q / (c * d),
                           alpha * q / (e * f)], q, INFINITY, policy))
    spec = SeriesSpec(BILATERAL,
                      (q * sq, -q * sq, c, d, e, f),
                      (sq, -sq, alpha * q / c, alpha * q / d,
                       alpha * q / e, alpha * q / f, 0.0, 0.0),
                      q, alpha ** 3 * q ** 2 / (c * d * e * f))
    value, terms = sum_psi(spec, policy)
    return pref0 * pref1 * value, terms


def _bilateral_22tgl(n: int, z: complex, params: UltraParams,
                     policy: TruncationPolicy):
    """Continuation through the single 2psi2 transformation, whose
    transformed series argument q^{1-n}/(beta gamma)^2 is z-free."""
    q, beta, gamma = params.q, params.beta, params.gamma
    bg, gq = beta * gamma, q * gamma
    a = bg
    b = q ** (-n) / gamma
    c = gq
    d = q ** (1 - n) / bg
    if not (abs(d / a) < 1 and abs(c / b) < 1):
        raise _RouteUnusable("transformed series out of region")
    Z = q / (beta * z * z)
    for arg in (Z, c * d / (a * b * Z), d, q / b):
        if _on_nonpositive_lattice(arg, q):
            raise _RouteUnusable("prefactor product vanishes")
    pref0 = poch_ratio(bg, gq, q, n) * z ** n
    G = (poch_multi([a * Z, d / a, c / b, d * q / (a * b * Z)], q, INFINITY, policy)
         / poch_multi([Z, d, q / b, c * d / (a * b * Z)], q, INFINITY, policy))
    spec = SeriesSpec(BILATERAL, (a, a * b * Z / d), (a * Z, c), q, d / a)
    value, terms = sum_psi(spec, policy)
    return pref0 * G * value, terms


def _bilateral_continued(n: int, z: complex, params: UltraParams,
                         policy: TruncationPolicy):
    attempts = []
    for route in (_bilateral_6psi8, _bilateral_22tgl):
        try:
            return route(n, z, params, policy)
        except _ROUTE_FAILURES as exc:
            attempts.append(f"{route.__name__}: {exc}")
    # recurrence climb from continued seeds C_0, C_{-1}
    try:
        return _bilateral_climb(n, z, params, policy)
    except _ROUTE_FAILURES as exc:
        attempts.append(f"climb: {exc}")
    raise RegionError(
        "point outside the direct region and no continuation applies: "
        + "; ".join(attempts))


def _bilateral_climb(n: int, z: complex, params: UltraParams,
                     policy: TruncationPolicy):
    if n in (0, -1):
        raise _RouteUnusable("climb needs a target away from its seeds")
    q, beta, gamma = params.q, params.beta, params.gamma
    x = (z + 1.0 / z) / 2.0
    vals = {}
    terms = 0
    for seed in (0, -1):
        vals[seed], t = _bilateral_22tgl(seed, z, params, policy)
        terms += t

    def rec_up(j, cm1, c0):
        den = 1.0 - gamma ** 2 * q ** (j + 1)
        if den == 0:
            raise PoleError("recurrence coefficient vanishes")
        return (2 * x * (1 - beta * gamma ** 2 * q ** j) * c0
                - (1 - beta ** 2 * gamma ** 2 * q ** (j - 1)) * cm1) / den

    def rec_down(j, c0, cp1):
        den = 1.0 - beta ** 2 * gamma ** 2 * q ** (j - 1)
        if den == 0:
            raise PoleError("recurrence coefficient vanishes")
        return (2 * x * (1 - beta * gamma ** 2 * q ** j) * c0
                - (1 - gamma ** 2 * q ** (j + 1)) * cp1) / den

    if n > 0:
        lo, hi = -1, 0
        while hi < n:
            vals[hi + 1] = rec_up(hi, vals[hi - 1], vals[hi])
            hi += 1
    else:
        lo = -1
        while lo > n:
            vals[lo - 1] = rec_down(lo, vals[lo], vals[lo + 1])
            lo -= 1
    return vals[n], terms


def bilateral_cn(n: int, p: SpectralPoint, params: UltraParams,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> UltraValue:
    """Bilateral q-ultraspherical function value at p.

    Direct two-sided summation inside the convergence annulus, analytic
    continuation outside it (see the module docstring).  Raises PoleError
    on the gamma parameter lattices, RegionError when no evaluation route
    applies, NonConvergence when the policy budget is exhausted.
    """
    n = int(n)
    check_pole_lattice(params)
    z = p.z
    if isinstance(z, np.ndarray):
        if in_direct_region(z, params.beta, params.q):
            value, terms = _bilateral_direct(n, z, params, policy)
            return UltraValue(n, p, value, terms)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        terms = 0
        for i, zi in enumerate(flat):
            uv = bilateral_cn(n, SpectralPoint(complex(zi)), params, policy)
            out[i] = uv.value
            terms = max(terms, uv.truncation_terms)
        return UltraValue(n, p, out.reshape(z.shape), terms)
    if in_direct_region(z, params.beta, params.q):
        value, terms = _bilateral_direct(n, z, params, policy)
    else:
        value, terms = _bilateral_continued(n, complex(z), params, policy)
    return UltraValue(n, p, value, terms)


def bilateral_cn_psi_form(n: int, p: SpectralPoint, params: UltraParams,
                          policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Secondary evaluation path: prefactor times the well-poised 2psi2
    series; used as an internal cross-check of the direct sum."""
    check_pole_lattice(params)
    q, beta, gamma = params.q, params.beta, params.gamma
    bg, gq = beta * gamma, q * gamma
    z = complex(p.z)
    pref = poch_ratio(bg, gq, q, n) * z ** n
    spec = SeriesSpec(BILATERAL,
                      (bg, q ** (-n) / gamma),
                      (gq, q ** (1 - n) / bg),
                      q, q / (beta * z * z))
    return pref * sum_psi(spec, policy)[0]


def generating_rhs(kind: str, t, p: SpectralPoint, params: UltraParams,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Closed product form of the generating function sum_n C_n t^n.

    classical: (beta t z, beta t / z; q)_inf / (t z, t / z; q)_inf for
    |t z| < 1 and |t / z| < 1.  bilateral: includes the constant
    (q, q/beta; q)_inf^2 / (q gamma, q/(beta gamma); q)_inf^2 and requires
    |q / beta| < |t z^{+-1}| < 1.
    """
    from .qcore import poch_pm
    q, beta, gamma = params.q, params.beta, params.gamma
    t = complex(t)
    z = p.z
    if kind == CLASSICAL:
        if not (abs(t * z) < 1 and abs(t / z) < 1):
            raise RegionError("classical generating function needs |t z^(+-1)| < 1")
        return poch_pm(beta * t, p, q, policy) / poch_pm(t, p, q, policy)
    if kind != BILATERAL_KIND:
        raise DomainError(f"unknown kind {kind!r}")
    check_pole_lattice(params)
    lo = abs(q / beta)
    if not (lo < abs(t * z) < 1 and lo < abs(t / z) < 1):
        raise RegionError(
            "bilateral generating function needs |q/beta| < |t z^(+-1)| < 1")
    bg = beta * gamma
    pref = ((poch(q, q, INFINITY, policy) * poch(q / beta, q, INFINITY, policy)) ** 2
            / (poch(q * gamma, q, INFINITY, policy)
               * poch(q / bg, q, INFINITY, policy)) ** 2)
    num = poch_pm(bg * t, p, q, policy) * poch_pm(q / (bg * t), p, q, policy)
    den = poch_pm(t, p, q, policy) * poch_pm(q / (beta * t), p, q, policy)
    return pref * num / den


def recurrence_residual(kind: str, n: int, p: SpectralPoint,
                        params: UltraParams,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Residual of the three-term recurrence
    2x (1 - beta gamma^2 q^n) C_n = (1 - gamma^2 q^{n+1}) C_{n+1}
    + (1 - beta^2 gamma^2 q^{n-1}) C_{n-1}, scaled by max(1, |C_n|);
    gamma = 1 gives the classical relation."""
    q, beta = params.q, params.beta
    x = p.x
    if kind == CLASSICAL:
        if n < 1:
            raise DomainError("classical recurrence check needs n >= 1")
        gamma = 1.0 + 0j
        cm1 = classical_cn(n - 1, p, beta, q)
        c0 = classical_cn(n, p, beta, q)
        cp1 = classical_cn(n + 1, p, beta, q)
    elif kind == BILATERAL_KIND:
        gamma = params.gamma
        cm1 = bilateral_cn(n - 1, p, params, policy).value
        c0 = bilateral_cn(n, p, params, policy).value
        cp1 = bilateral_cn(n + 1, p, params, policy).value
    else:
        raise DomainError(f"unknown kind {kind!r}")
    lhs = 2 * x * (1 - beta * gamma ** 2 * q ** n) * c0
    rhs = (1 - gamma ** 2 * q ** (n + 1)) * cp1 \
        + (1 - beta ** 2 * gamma ** 2 * q ** (n - 1)) * cm1
    return abs(lhs - rhs) / max(1.0, abs(c0))


def symmetry_residual(n: int, p: SpectralPoint, params: UltraParams,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Residual of C_n(x; beta, gamma) = (beta/q)^n C_{-n}(x; beta, 1/(beta gamma))."""
    q, beta, gamma = params.q, params.beta, params.gamma
    lhs = bilateral_cn(n, p, params, policy).value
    mirrored = params.with_gamma(1.0 / (beta * gamma))
    rhs = (beta / q) ** n * bilateral_cn(-n, p, mirrored, policy).value
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def constant_term(n: int, params: UltraParams,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Value of the bilateral function at x = 0 (z = i): zero for odd
    index, an explicit product for even index 2m (any integer m)."""
    if n % 2:
        return 0.0 + 0j
    check_pole_lattice(params)
    q, beta, gamma = params.q, params.beta, params.gamma
    m = n // 2
    q2 = q * q
    head = ((-1.0) ** m * poch(beta ** 2 * gamma ** 2, q2, m, policy)
            * poch_recip(q2 * gamma ** 2, q2, m))
    tail = (poch_multi([q, q / beta, -q * gamma, -q / (beta * gamma)],
                       q, INFINITY, policy)
            / poch_multi([-q, -q / beta, q * gamma, q / (beta * gamma)],
                         q, INFINITY, policy))
    return head * tail


def special_value_c0(params: UltraParams,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Closed product form of C_0 at the point z = q^{1/4}
    (x = (q^{1/4} + q^{-1/4})/2); requires real 0 < q < 1."""
    q = check_real_base(params.q)
    beta, gamma = params.beta, params.gamma
    r = math.sqrt(q)
    return (poch_multi([q, q / beta, r / (beta * gamma), r * gamma],
                       q, INFINITY, policy)
            / poch_multi([q / (beta * gamma), q * gamma, r, r / beta],
                         q, INFINITY, policy))


def special_value_cm1(params: UltraParams) -> complex:
    """The stated product P = q^{1/2}(1-gamma)^2 / (gamma (1-beta)).

    P is not C_{-1} at z = q^{1/2}.  It is the d -> q limit of Bailey's
    second well-poised 3psi3 sum (Gasper & Rahman, (II.32)), and that limit
    flips the sign of the k < 0 terms: P is the defining sum at q^{1/2}
    with those terms negated.  Adding twice them back in closed form gives
    the exact relation, valid for |beta| > q^2 (where the 3phi2 converges):

        C_{-1}(q^{1/2}) = P + 2 q^{1/2} (1-gamma) / (q - beta gamma)
            [3phi2(beta gamma/q, 1/gamma, q; q/(beta gamma), gamma; q, q^2/beta) - 1].
    """
    q = check_real_base(params.q)
    beta, gamma = params.beta, params.gamma
    return math.sqrt(q) * (1 - gamma) ** 2 / (gamma * (1 - beta))


def linearization_residual(m: int, n: int, p: SpectralPoint, beta, q) -> float:
    """Residual of the product formula C_m C_n = sum_k coeff(k) C_{m+n-2k}
    over k = 0..min(m, n), with fully factored coefficients."""
    if m < 0 or n < 0:
        raise DomainError("linearization needs m, n >= 0")
    q = check_base(q)
    beta = complex(beta)
    lhs = classical_cn(m, p, beta, q) * classical_cn(n, p, beta, q)
    acc = 0.0 + 0j
    for k in range(min(m, n) + 1):
        s = m + n - 2 * k
        coeff = (poch(q, q, s) * poch(beta, q, m - k) * poch(beta, q, n - k)
                 * poch(beta, q, k) * poch(beta ** 2, q, m + n - k))
        coeff /= (poch(beta ** 2, q, s) * poch(q, q, m - k) * poch(q, q, n - k)
                  * poch(q, q, k) * poch(q * beta, q, m + n - k))
        coeff *= (1 - beta * q ** s) / (1 - beta)
        acc += coeff * classical_cn(s, p, beta, q)
    return abs(lhs - acc) / max(1.0, abs(lhs))

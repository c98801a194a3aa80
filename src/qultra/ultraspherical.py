"""Continuous q-ultraspherical polynomials and their two-parameter
bilateral extension: evaluation, generating functions, recurrence,
symmetry, constant terms, special values and linearization.

The bilateral function

    C_n(x; beta, gamma | q) = sum_k g_k g_{n-k} z^{n-2k},
    g_j = (beta*gamma; q)_j / (q*gamma; q)_j,   x = (z + 1/z)/2,

converges for |q z^2 / beta| < 1 and |q / (beta z^2)| < 1.  Inside that
annulus the primary evaluation path is the direct two-sided sum.  Every
n uses the same g_j, so bilateral_cn_range sums a whole range of n at
every point in one pass: g_j is formed once by its one-step recursions,
each step adds one term of each side to every row, and each row keeps
the truncation checks it would have alone.  bilateral_cn is its one-row
case.

Outside the annulus the function is still analytic in x along paths
avoiding the annulus-boundary singularities, and evaluation switches to
one of two analytic-continuation representations:

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
                    poch, poch_multi, poch_ratio)

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


@dataclass(frozen=True)
class UltraRange:
    """C_n for n_lo <= n <= n_hi at one point, from bilateral_cn_range
    with params and policy: values[n - n_lo] has the shape of point.z, and
    truncation_terms[n - n_lo] counts the terms of that row (the most at
    any of its points)."""

    n_lo: int
    point: SpectralPoint
    params: UltraParams
    policy: TruncationPolicy
    values: np.ndarray
    truncation_terms: np.ndarray

    @property
    def n_hi(self) -> int:
        return self.n_lo + len(self.values) - 1

    def __getitem__(self, n: int):
        if not self.n_lo <= n <= self.n_hi:
            raise IndexError(f"n = {n} outside [{self.n_lo}, {self.n_hi}]")
        return self.values[n - self.n_lo]

    def widened(self, n_lo: int, n_hi: int) -> "UltraRange":
        """These rows plus the rows of [n_lo, n_hi] they lack; only the
        missing rows are computed."""
        parts = [self]
        if n_lo < self.n_lo:
            parts.insert(0, bilateral_cn_range(n_lo, self.n_lo - 1, self.point,
                                               self.params, self.policy))
        if n_hi > self.n_hi:
            parts.append(bilateral_cn_range(self.n_hi + 1, n_hi, self.point,
                                            self.params, self.policy))
        if len(parts) == 1:
            return self
        return UltraRange(parts[0].n_lo, self.point, self.params, self.policy,
                          np.concatenate([r.values for r in parts]),
                          np.concatenate([r.truncation_terms for r in parts]))


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


def _g_table(params: UltraParams, j_lo: int, j_hi: int) -> np.ndarray:
    """g_j = (beta gamma; q)_j / (q gamma; q)_j for j_lo <= j <= j_hi
    (j_lo <= 0 <= j_hi) by the one-step recursions both ways from g_0 = 1;
    entry i holds g_{j_lo + i}."""
    q, bg, gq = params.q, params.beta * params.gamma, params.q * params.gamma
    up, u = [1.0 + 0j], 1.0 + 0j          # g_j for j >= 0; u = q^j
    for _ in range(j_hi):
        den = 1.0 - gq * u
        if den == 0:
            raise PoleError("parameter lattice hit in the direct sum")
        up.append(up[-1] * (1.0 - bg * u) / den)
        u *= q
    down, g, v = [], 1.0 + 0j, q           # g_{-j} for j >= 1; v = q^j
    for _ in range(-j_lo):
        den = v - bg
        if den == 0:
            raise PoleError("parameter lattice hit in the direct sum")
        g = g * (v - gq) / den
        down.append(g)
        v *= q
    return np.array(down[::-1] + up, dtype=complex)


def _z_powers(z: np.ndarray, n_lo: int, n_hi: int) -> np.ndarray:
    """Rows z^n for n_lo <= n <= n_hi by repeated multiplication from
    z^0, which loses fewer digits than numpy's power for large |n|."""
    lo, hi = min(n_lo, 0), max(n_hi, 0)
    up = np.cumprod(np.broadcast_to(z, (hi,) + z.shape), axis=0)
    down = np.cumprod(np.broadcast_to(1.0 / z, (-lo,) + z.shape), axis=0)
    table = np.concatenate((down[::-1], np.ones((1,) + z.shape, dtype=complex), up))
    return table[n_lo - lo:n_hi - lo + 1]


#: rows times points of one direct-sum pass; longer ranges take several
_BLOCK_SIZE = 1024

#: a term magnitude above this times the previous one counts as growth
_GROWTH = 1.0 + 1e-6


def _direct_rows(n_lo: int, n_hi: int, z: np.ndarray, params: UltraParams,
                 policy: TruncationPolicy):
    """C_n for n_lo <= n <= n_hi at every z of a 1-D array, as one
    two-sided pass over the defining series.

    Step s adds the term k = s of the upper side and the term k = -1 - s
    of the lower side to every row, so each step updates a
    (side x row x point) block.  Each side of each row keeps its own
    checks, on its largest term and partial sum over the points: a
    non-finite term or a run of 8 tail_window + 2|n| + 8 growing terms
    (term magnitudes plateau for about |n| steps before the geometric
    tails set in) raises NonConvergence; a zero term,
    or tail_window terms in a row at most rel_tol times the partial sum
    plus abs_tol, ends the side.  A row's values and stopping steps
    therefore do not depend on the other rows.  Returns the (rows x
    points) values and the terms summed per row.
    """
    ns = np.arange(n_lo, n_hi + 1)
    shape = (2, ns.size)
    z2 = z * z
    zpow = np.empty(shape + z.shape, dtype=complex)
    zpow[0] = _z_powers(z, n_lo, n_hi)     # z^{n-2k} at k = 0
    zpow[1] = zpow[0] * z2                 # ... at k = -1
    zmul = np.stack((1.0 / z2, z2))[:, None, :]
    # g_k and g_{n-k} are entries ia and ib of the g table; one step moves
    # k up by one on the upper side and down by one on the lower side
    dk = np.array([[1], [-1]])
    reach = 2 * max(abs(n_lo), abs(n_hi)) + 32    # steps the table covers
    j_lo = min(n_lo, 0) - reach - 1
    g = _g_table(params, j_lo, max(n_hi, 0) + reach + 1)
    ia = np.array([[0], [-1]]) - j_lo
    ib = np.stack((ns, ns + 1)) - j_lo
    window = 8 * policy.tail_window + 2 * np.abs(ns) + 8
    total = np.zeros_like(zpow)
    comp = np.zeros_like(zpow)             # Kahan compensation
    prev = np.full(shape, np.inf)
    growth = np.zeros(shape, dtype=int)
    below = np.zeros(shape, dtype=int)
    active = np.ones(shape, dtype=bool)
    value = np.zeros_like(zpow)
    terms = np.zeros(shape, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(policy.max_terms):
            if step > reach:
                reach *= 2
                shift = j_lo - (min(n_lo, 0) - reach - 1)
                j_lo -= shift
                g = _g_table(params, j_lo, max(n_hi, 0) + reach + 1)
                ia += shift
                ib += shift
            t = (g[ia] * g[ib])[:, :, None] * zpow
            zpow *= zmul
            ia += dk
            ib -= dk
            y = t - comp
            acc = total + y
            comp = (acc - total) - y
            total = acc
            tm = np.abs(t).max(axis=2)
            grew = tm > prev * _GROWTH
            prev = tm
            growth = (growth + 1) * grew
            below = (below + 1) * (tm <= policy.rel_tol * np.abs(total).max(axis=2)
                                   + policy.abs_tol)
            zero = tm == 0
            done = zero | (below >= policy.tail_window)
            overflow = ~(tm < np.inf)
            diverging = growth >= window
            if not ((done | overflow | diverging) & active).any():
                continue
            if (overflow & active).any():
                raise NonConvergence("direct bilateral sum overflowed")
            if (diverging & active).any():
                raise NonConvergence(
                    "bilateral terms failed to decay (out of region?)")
            done &= active
            value[done] = total[done] - comp[done]
            terms[done] = step + 1 - zero[done]
            active &= ~done
            if not active.any():
                return value.sum(axis=0), terms.sum(axis=0)
    raise NonConvergence(
        f"bilateral sum did not converge within {policy.max_terms} terms per side")


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


def bilateral_cn_range(n_lo: int, n_hi: int, p: SpectralPoint,
                       params: UltraParams,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> UltraRange:
    """C_n at p for every n_lo <= n <= n_hi.

    The points of p inside the direct annulus share two-sided passes of
    the defining series over all rows: g_j is formed once per pass, each
    row keeps its own truncation checks, and a pass takes as many rows as
    keep its block of rows times points near _BLOCK_SIZE values.  Every
    other point is continued per n as in bilateral_cn.  Raises PoleError
    on the gamma parameter lattices, RegionError when no evaluation route
    applies, NonConvergence when the policy budget is exhausted.
    """
    n_lo, n_hi = int(n_lo), int(n_hi)
    if n_hi < n_lo:
        raise DomainError("bilateral_cn_range needs n_lo <= n_hi")
    check_pole_lattice(params)
    z = np.asarray(p.z, dtype=complex).ravel()
    r1, r2 = region_ratios(z, params.beta, params.q)
    inside = (r1 < DIRECT_REGION_MARGIN) & (r2 < DIRECT_REGION_MARGIN)
    rows = n_hi - n_lo + 1
    values = np.empty((rows, z.size), dtype=complex)
    terms = np.zeros(rows, dtype=int)
    if inside.any():
        # rows are independent, so splitting a long range changes no value
        step = max(1, _BLOCK_SIZE // int(inside.sum()))
        for lo in range(n_lo, n_hi + 1, step):
            hi = min(lo + step - 1, n_hi)
            block = slice(lo - n_lo, hi - n_lo + 1)
            values[block, inside], terms[block] = _direct_rows(
                lo, hi, z[inside], params, policy)
    for i in np.flatnonzero(~inside):
        for r in range(rows):
            values[r, i], t = _bilateral_continued(n_lo + r, complex(z[i]),
                                                   params, policy)
            terms[r] = max(terms[r], t)
    return UltraRange(n_lo, p, params, policy,
                      values.reshape((rows,) + np.shape(p.z)), terms)


def bilateral_cn(n: int, p: SpectralPoint, params: UltraParams,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> UltraValue:
    """Bilateral q-ultraspherical function value at p: the one-row case of
    bilateral_cn_range.

    Direct two-sided summation inside the convergence annulus, analytic
    continuation outside it (see the module docstring); p.z may be an
    array, and then each point takes its own route.  Raises PoleError on
    the gamma parameter lattices, RegionError when no evaluation route
    applies, NonConvergence when the policy budget is exhausted.
    """
    rows = bilateral_cn_range(n, n, p, params, policy)
    value = rows.values[0]
    if not isinstance(p.z, np.ndarray):
        value = complex(value)
    return UltraValue(int(n), p, value, int(rows.truncation_terms[0]))


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


def recurrence_gap(n: int, p: SpectralPoint, params: UltraParams,
                   cm1, c0, cp1) -> float:
    """Residual of the three-term recurrence
    2x (1 - beta gamma^2 q^n) C_n = (1 - gamma^2 q^{n+1}) C_{n+1}
    + (1 - beta^2 gamma^2 q^{n-1}) C_{n-1} for the given values
    C_{n-1}, C_n, C_{n+1} at p, scaled by max(1, |C_n|)."""
    q, beta, gamma = params.q, params.beta, params.gamma
    lhs = 2 * p.x * (1 - beta * gamma ** 2 * q ** n) * c0
    rhs = (1 - gamma ** 2 * q ** (n + 1)) * cp1 \
        + (1 - beta ** 2 * gamma ** 2 * q ** (n - 1)) * cm1
    return abs(lhs - rhs) / max(1.0, abs(c0))


def recurrence_residual(kind: str, n: int, p: SpectralPoint,
                        params: UltraParams,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """recurrence_gap of C_{n-1}, C_n, C_{n+1} at p; the classical kind
    uses the polynomials and gamma = 1."""
    if kind == CLASSICAL:
        if n < 1:
            raise DomainError("classical recurrence check needs n >= 1")
        vals = [classical_cn(j, p, params.beta, params.q) for j in (n - 1, n, n + 1)]
        return recurrence_gap(n, p, params.with_gamma(1.0), *vals)
    if kind != BILATERAL_KIND:
        raise DomainError(f"unknown kind {kind!r}")
    rows = bilateral_cn_range(n - 1, n + 1, p, params, policy)
    return recurrence_gap(n, p, params, *rows.values)


def symmetry_gap(n: int, params: UltraParams, cn, mirrored_c_minus_n) -> float:
    """Residual of C_n(x; beta, gamma) = (beta/q)^n C_{-n}(x; beta, 1/(beta gamma))
    for the given values of both sides, scaled by max(1, |C_n|)."""
    rhs = (params.beta / params.q) ** n * mirrored_c_minus_n
    return abs(cn - rhs) / max(1.0, abs(cn))


def symmetry_params(params: UltraParams) -> UltraParams:
    """The parameters (beta, 1/(beta gamma), q) of the symmetry relation."""
    return params.with_gamma(1.0 / (params.beta * params.gamma))


def symmetry_residual(n: int, p: SpectralPoint, params: UltraParams,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """symmetry_gap of C_n(x; beta, gamma) and C_{-n}(x; beta, 1/(beta gamma))."""
    lhs = bilateral_cn(n, p, params, policy).value
    rhs = bilateral_cn(-n, p, symmetry_params(params), policy).value
    return symmetry_gap(n, params, lhs, rhs)


def constant_term(n: int, params: UltraParams,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Value of the bilateral function at x = 0 (z = i): zero for odd
    index, an explicit product for even index 2m (any integer m).  The
    head (-1)^m (beta^2 gamma^2; q^2)_m / (q^2 gamma^2; q^2)_m pairs its
    factors, so it stays finite for large negative m."""
    if n % 2:
        return 0.0 + 0j
    check_pole_lattice(params)
    q, beta, gamma = params.q, params.beta, params.gamma
    m = n // 2
    q2 = q * q
    head = (-1.0) ** m * poch_ratio(beta ** 2 * gamma ** 2, q2 * gamma ** 2, q2, m)
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

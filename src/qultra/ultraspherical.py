"""Continuous q-ultraspherical polynomials and their two-parameter
bilateral extension: evaluation, generating functions, recurrence,
symmetry, constant terms, special values and linearization.

The bilateral function

    C_n(x; beta, gamma | q) = sum_k g_k g_{n-k} z^{n-2k},
    g_j = (beta*gamma; q)_j / (q*gamma; q)_j,   x = (z + 1/z)/2,

converges for |q z^2 / beta| < 1 and |q / (beta z^2)| < 1.  Inside that
annulus the primary evaluation path is the direct two-sided sum.  Every
n uses the same g_j (cached per parameters), so bilateral_cn_range sums a
whole range of n at every point at once: each side of the series (k >= 0
and k < 0) is one matrix product of a (rows x steps) block of scaled
coefficients g_k g_{n-k} and a (steps x points) table of powers of z.
Each side of each row sums a number of terms fixed in advance by a
geometric bound from the region ratios (_tail_bound), which leaves a
remainder of at most rel_tol b times that side's largest term at every
point, b < 1 the bound's term ratio, and no row's terms depend on the
other rows.  bilateral_cn is its one-row case.

Outside the annulus evaluation switches to analytic continuation, and
every row at a point takes the route of the point, by one test of the
lattice z^2 in q^Z.  Off it, a row comes from the generating function's
pole expansion (_PoleRings), whose H_0 products and H_k tables the rows
and the off-annulus points of one call share (a point's values do not
depend on the points it shares them with), wherever its rings settle to
a ratio below 1 and its tail and cancellation check out, per point; a
row it refuses comes from the paper's three-term recurrence between the
nearest rows it accepts, checked by an error estimate
(_recurrence_band).  On the lattice the expansion degenerates, but C_n
is analytic there, and a row is its mean over a circle about the point
whose points take the routes above (_lattice_rows).  So C_n is
computable at the points q^{+-1/2} z of divided differences and at
z = q^{1/2}, q^{1/4}, where the direct sum diverges.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, RegionError
from .hyperseries import BILATERAL, SeriesSpec, sum_psi
from .qcore import (DEFAULT_POLICY, INFINITY, CompensatedSum, SpectralPoint,
                    TruncationPolicy, _product_bound_terms, check_base, check_real_base,
                    check_vanishing, finite, index, indices, is_q_power, poch,
                    poch_multi, poch_pm, poch_quotient, poch_ratio, pointwise,
                    power)

CLASSICAL = "classical"
BILATERAL_KIND = "bilateral"

#: switch from the direct sum to a continuation once either region ratio
#: exceeds this (strictly inside 1 to avoid arbitrarily slow tails)
DIRECT_REGION_MARGIN = 0.98

#: log of the largest double
_LOG_MAX = math.log(np.finfo(float).max)


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
        if not (cmath.isfinite(self.beta) and cmath.isfinite(self.gamma)):
            raise DomainError("beta and gamma must be finite")
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
    """C_n for n_lo <= n <= n_hi at one point, from bilateral_cn_range:
    values[n - n_lo] has the shape of point.z; truncation_terms[n - n_lo]
    is the most terms any point of that row summed."""

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


@functools.lru_cache(maxsize=16)
def _check_poles(params: UltraParams) -> None:
    """PoleError where a denominator of some g_k vanishes, that of (q gamma;
    q)_inf or (q/(beta gamma); q)_inf.  Cached like check_pole_lattice."""
    q, bg = params.q, params.beta * params.gamma
    check_vanishing({"q gamma": q * params.gamma, "q/(beta gamma)": q / bg}, q)


@functools.lru_cache(maxsize=16)
def check_pole_lattice(params: UltraParams) -> None:
    """_check_poles, and PoleError where the continuations' (beta gamma;
    q)_inf vanishes, beta gamma = q^m with m <= 0, and would need a limit
    (the direct sum is regular there: g_j = 0 for j >= 1 - m).  A passing
    params is remembered (sixteen at most); a failing one raises at every
    call."""
    _check_poles(params)
    check_vanishing({"beta gamma": params.beta * params.gamma}, params.q,
                    why="requires a limit evaluation (unsupported lattice)")


def direct_region_mask(z, beta, q) -> np.ndarray:
    """Elementwise: both ratios |q z^2 / beta| and |q / (beta z^2)| are
    below DIRECT_REGION_MARGIN.  The one routing rule for scalar and array
    points alike (numpy rounds some ratios apart from Python)."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):     # z^2 out of the double range is outside
        z2 = z * z
        return ((np.abs(q * z2 / beta) < DIRECT_REGION_MARGIN)
                & (np.abs(q / (beta * z2)) < DIRECT_REGION_MARGIN))


def in_direct_region(z, beta, q) -> bool:
    """True when every point of z is inside the direct annulus."""
    return bool(np.all(direct_region_mask(z, beta, q)))


def classical_cn(n: int, p: SpectralPoint, beta, q):
    """Continuous q-ultraspherical polynomial of degree n at p.

    Finite sum sum_{k=0}^{n} c_k c_{n-k} z^{n-2k} with
    c_k = (beta; q)_k / (q; q)_k; exact finite arithmetic.  NonConvergence
    where the largest power |z|^{+-n} of any point leaves the double range.
    """
    n = index(n, 0, "classical polynomials need n")
    q = check_base(q)
    beta = complex(beta)
    z = p.z
    scalar = not isinstance(z, np.ndarray)
    if scalar:      # hypot gives inf where abs(z) raises: |z| > DBL_MAX
        lo = hi = math.hypot(z.real, z.imag)
    else:
        with np.errstate(over="ignore"):
            mag = np.abs(z)
        lo, hi = mag.min(initial=1.0), mag.max(initial=1.0)
    if n > 0 and n * max(math.log(hi), -math.log(lo)) > _LOG_MAX:
        raise NonConvergence(f"classical C_{n}: z^(+-{n}) overflowed double precision")
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    qk = 1.0 + 0j
    for k in range(n):
        c[k + 1] = c[k] * (1.0 - beta * qk) / (1.0 - qk * q)
        qk *= q
    z = np.asarray(z, dtype=complex)
    acc = CompensatedSum(z)
    zpow = z ** n
    keep = None         # where z^2 is a normal double, if not everywhere
    if n and (lo < 2.0 ** -510 or hi > 2.0 ** 510):     # only n <= 2 gets here
        with np.errstate(over="ignore"):
            z2 = z * z
            keep = (np.abs(z2) >= np.finfo(float).tiny) & np.isfinite(z2)
    elif n:
        z2 = z * z
    for k in range(n + 1):
        acc.add(c[k] * c[n - k] * zpow)
        if k < n:       # by z twice where z^2 leaves the normal doubles
            zpow = (zpow / z2 if keep is None else
                    np.divide(zpow, z2, out=np.asarray(zpow / z / z), where=keep))
    out = acc.value
    return complex(out) if scalar else out


@functools.lru_cache(maxsize=16)
def _g_table(params: UltraParams, m: int) -> np.ndarray:
    """g_j = (beta gamma; q)_j / (q gamma; q)_j for -m <= j <= m, entry
    m + j, from the one-step recursions from g_0 = 1, with entry m - j
    scaled to (beta/q)^j g_{-j}, which tends to a constant as j -> inf.
    Cached per params (sixteen tables at most) and read-only."""
    q, bg, gq = params.q, params.beta * params.gamma, params.q * params.gamma
    rho = q / params.beta
    out = np.empty(2 * m + 1, dtype=complex)
    g, u = 1.0 + 0j, 1.0 + 0j              # g_j for j >= 0; u = q^j
    out[m] = g
    for j in range(1, m + 1):
        g = g * (1.0 - bg * u) / (1.0 - gq * u)
        out[m + j] = g
        u *= q
    g, v = 1.0 + 0j, q                     # (beta/q)^j g_{-j}; v = q^j
    for j in range(1, m + 1):
        g = g * (v - gq) / (rho * v - gq)  # rho (v - beta gamma)
        out[m - j] = g
        v *= q
    out.setflags(write=False)
    return out


def _z_powers(z: np.ndarray, n_lo: int, n_hi: int) -> np.ndarray:
    """Rows z^n for n_lo <= n <= n_hi by repeated multiplication outward
    from z^0, by z for n >= 0 and by 1/z for n < 0, which loses fewer
    digits than numpy's power or binary powering for large |n|.  Only the
    block's rows are kept (_power_chain)."""
    out = np.empty((n_hi - n_lo + 1,) + z.shape, dtype=complex)
    if n_hi >= 0:
        out[max(n_lo, 0) - n_lo:] = _power_chain(z, max(n_lo, 0), n_hi)
    if n_lo < 0:
        top = min(n_hi, -1)
        out[:top - n_lo + 1] = _power_chain(1.0 / z, -top, -n_lo)[::-1]
    return out


def _power_chain(w: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rows w^e for 0 <= a <= e <= b along the chain w^{e+1} = w^e w from
    w^0 = 1.  The powers below the block run through one table of about
    _BLOCK_SIZE values, or of the block's rows and one more if that is
    larger, and are not kept."""
    span = max(b - a, _BLOCK_SIZE // w.size, 1)
    table = np.empty((span + 1,) + w.shape, dtype=complex)
    table[0] = 1.0

    def extend(k):          # table[0] holds some w^e: table[i] = w^{e + i}
        table[1:k + 1] = w
        np.cumprod(table[:k + 1], axis=0, out=table[:k + 1])

    last = max(0, b - span)             # the block lies in w^last..w^b
    for e in range(0, last, span):
        k = min(span, last - e)
        extend(k)
        table[0] = table[k]
    extend(b - last)
    return table[a - last:b - last + 1]


#: the most rows times points of one direct-sum pass, and an eighth of the
#: most rows times steps (1 MB of coefficients at the step cap); a
#: shifted-orthogonality node set of 64 points and 93 rows takes two passes
_BLOCK_SIZE = 4096


@functools.lru_cache(maxsize=16)
def _tail_bound(r_min: float, r_max: float, params: UltraParams,
                policy: TruncationPolicy) -> tuple:
    """The (upper, lower) budgets of the direct sum at points with
    r_min <= |z| <= r_max: each side of row n sums its steps below base +
    length, base = max(n, 0) on the upper side and max(-n - 1, 0) on the
    lower, which leaves a remainder of at most rel_tol b times the side's
    largest term at every point.  Cached per arguments (sixteen at most).

    A term ratio is the side's region ratio R, |q/(beta z^2)| or
    |q z^2/beta| (largest at r_min or r_max), times g_{j+1}/g_j and
    (g_{-j-1}/g_{-j})/(q/beta) at j >= start, whose moduli are at most
    (1 + |beta gamma| |q|^j)/(1 - |q gamma| |q|^j) and (|q gamma| +
    |q|^{j+1})/((|beta gamma| - |q|^{j+1}) |q/beta|), both falling to 1;
    start is the first j where the product is at most b = R + (1 - R)/8.
    From step base + start on every term ratio is at most b, and length
    is start plus the k with b^k rho/(1 - rho) <= rel_tol, rho = (1 + R)/2,
    plus two, so the remainder is at most b^{k+2}/(1 - b) times the term at
    base + start, below rel_tol b times it.

    b sits near R so that the budget stays short: at the defaults on the
    unit circle (R = 0.375) it is |n| + 44 steps per side, where b =
    (1 + R)/2 gave |n| + 87; rho in k, not b, keeps a step as margin."""
    aq, qb = abs(params.q), abs(params.q / params.beta)
    abg, aqg = abs(params.beta * params.gamma), abs(params.q * params.gamma)
    region = (qb / r_min ** 2, qb * r_max ** 2)
    bound = [r + (1 - r) / 8 for r in region]
    start = [-1, -1]
    u = 1.0                                        # |q|^j
    for j in range(policy.max_terms):
        up, lo = 1 - aqg * u, (abg - aq * u) * qb
        if up > 0 and lo > 0:
            growth = (1 + abg * u) / up * (aqg + aq * u) / lo
            start = [j if s < 0 and r * growth <= b else s
                     for s, r, b in zip(start, region, bound)]
            if min(start) >= 0:
                break
        u *= aq
    else:
        raise NonConvergence(f"direct-sum tail bound not reached within "
                             f"{policy.max_terms} terms")
    rho = [(1 + r) / 2 for r in region]
    return tuple(
        s + max(0, math.ceil(math.log(policy.rel_tol * (1 - p) / p) / math.log(b))) + 2
        for s, p, b in zip(start, rho, bound))


def _scaled_coefficients(ns: np.ndarray, steps: int, params: UltraParams,
                         sigma: float, tau: float) -> np.ndarray:
    """The (side x row x step) coefficients of _direct_rows: step s of
    row n holds sigma^{-s} g_s g_{n-s} on the upper side and
    tau^s g_{-1-s} g_{n+1+s} on the lower side.  g_j decays like
    (q/beta)^{-j} as j -> -inf, so they are assembled from the scaled
    entries of _g_table, powers no larger than one and the row factor
    sigma^{-n}: no factor over- or underflows where the coefficient does
    not."""
    n_lo, n_hi = int(ns[0]), int(ns[-1])
    rho = params.q / params.beta
    m = 1 << max(8, (steps + max(-n_lo - 1, n_hi, 0) - 1).bit_length())
    g = _g_table(params, m)    # power-of-two sizes: few tables per params
    s = np.arange(steps)
    out = np.empty((2, ns.size, steps), dtype=complex)
    # a_j = g_j sigma^j for j = n - s >= 0, (beta/q)^{-j} g_j (q/(beta sigma))^{-j}
    # for j < 0; the upper coefficient is sigma^{-n} g_s a_{n-s}
    j0 = n_lo - steps + 1
    j = np.arange(j0, n_hi + 1)
    up = np.maximum(j, 0)
    a = g[m + j0:m + n_hi + 1] * sigma ** up * (rho / sigma) ** (up - j)
    np.multiply((sigma ** -ns.astype(float))[:, None] * g[m:m + steps],
                a[ns[:, None] - s - j0], out=out[0])
    # b_i = g_i for i = n + 1 + s; the lower coefficient is
    # (q/beta) [(beta/q)^{1+s} g_{-1-s}] (q tau/beta)^s b_{n+1+s}
    i = np.arange(n_lo + 1, n_hi + steps + 1)
    b = g[m + n_lo + 1:m + n_hi + steps + 1] * rho ** np.maximum(-i, 0)
    np.multiply(rho * g[m - steps:m][::-1] * (rho * tau) ** s,
                b[ns[:, None] + s - n_lo], out=out[1])
    return out


def _side_sums(coeff: np.ndarray, pre: np.ndarray, ratio) -> np.ndarray:
    """pre times the product of coeff with the power table W[s] = ratio^s
    for each side, W by repeated multiplication, one side's table at a
    time, as BLAS matrix products coeff @ W.T (6x an einsum over steps)."""
    out = np.empty_like(pre)
    table = np.ones(pre.shape[2:] + (coeff.shape[2],), dtype=complex)
    for side in range(2):
        table[:, 1:] = ratio[side][:, None]
        np.cumprod(table[:, 1:], axis=1, out=table[:, 1:])
        np.multiply(pre[side], coeff[side] @ table.T, out=out[side])
    return out


def _direct_rows(n_lo: int, n_hi: int, z: np.ndarray, params: UltraParams,
                 budgets: tuple):
    """C_n for n_lo <= n <= n_hi at every z of a 1-D array inside the
    annulus, with no loop over the terms; budgets is the _tail_bound of
    these points.

    The upper side sums the terms k = s >= 0, g_s g_{n-s} z^{n-2s}, and
    the lower side the terms k = -1 - s, g_{-1-s} g_{n+1+s} z^{n+2+2s}.
    Each side of all rows is one masked matrix product,

        C_n = z^n (C_up @ W_up)[n] + z^{n+2} (C_lo @ W_lo)[n],

    with the (steps x points) power tables W_up[s] = (sigma/z^2)^s,
    sigma = min(|z|^2, 1) over the points, and W_lo[s] = (z^2/tau)^s,
    tau = max(|z|^2, 1), so |W| <= 1.  The (rows x steps) coefficients
    (_scaled_coefficients) absorb sigma^{-s} and tau^s and decay
    geometrically inside the annulus.  On the unit circle sigma = tau = 1
    and nothing is scaled; off it the upper coefficients of row n > 0
    reach sigma^{-n}, so a row raises NonConvergence once |z|^{-2n}
    leaves the double range.

    Each side of row n sums exactly its steps below base + length (base =
    max(n, 0) upper, max(-n - 1, 0) lower, length from budgets); the mask
    zeroes each row's steps past its own budget, so a row's terms do not
    depend on the other rows.  A non-finite value raises NonConvergence.
    Returns the (rows x points) values and the (side x row) nonzero terms.
    """
    ns = np.arange(n_lo, n_hi + 1)
    r = np.abs(z)
    sigma, tau = min(float(r.min()) ** 2, 1.0), max(float(r.max()) ** 2, 1.0)
    z2 = z * z
    pre = np.empty((2, ns.size, z.size), dtype=complex)   # z^n and z^{n+2}
    ratio = (sigma / z2, z2 / tau)                       # |ratio| <= 1
    ends = np.maximum(np.array([ns, -1 - ns]), 0) + np.array(budgets)[:, None]
    steps = int(ends.max())
    with np.errstate(over="ignore", invalid="ignore"):
        pre[0] = _z_powers(z, n_lo, n_hi)
        np.multiply(pre[0], z2, out=pre[1])
        coeff = _scaled_coefficients(ns, steps, params, sigma, tau)
        coeff[np.arange(steps) >= ends[:, :, None]] = 0
        value = _side_sums(coeff, pre, ratio).sum(axis=0)
    return finite(value, "direct bilateral sum"), np.count_nonzero(coeff, axis=2)


class _RouteUnusable(RegionError):
    """A continuation route does not apply at this point."""


class _OutOfRange(_RouteUnusable):
    """z^2 leaves the double range, so no continuation route applies."""


#: the pole expansion continues row n only where its rings do not cancel:
#: eps sum_k |ring_k| is at most this times |C_n|
POLE_CANCELLATION = 1e-13

_EPS = 2.0 ** -52
#: a ring ratio counts as settled once |q|^{k+1} is at most this fraction
#: of min(1, |beta|) min(|z|^2, |z|^-2): each of its two factors is then
#: within (1 + 1/32)/(1 - 1/32) of its limit (_PoleRings)
_POLE_NEAR = 1 / 32
_POLE_SETTLED = ((1 + _POLE_NEAR) / (1 - _POLE_NEAR)) ** 2
#: z^2 within this of q^Z (is_q_power's band) takes the circle mean: the
#: expansion's poles nearly coalesce there.  The pole and termination
#: checks keep is_q_power's 1e-9, lest a nonzero product count as zero
_LATTICE_BAND = 1e-8


class _PoleHead:
    """The z-free pieces of the pole expansion at one (params, policy),
    made once by _pole_head: |gamma|^2, the z-free factor of H_0,

        S = (q, q/beta, beta gamma; q)_inf
            / [(q gamma; q)_inf^2 (q/(beta gamma); q)_inf],

    and, grown on demand, the tables u_k = q^{k+1} and
    F_k = gamma^2 (u_k - beta)/(u_k - 1).  A piece that is not finite
    raises _RouteUnusable, naming it, and nothing is kept."""

    def __init__(self, params: UltraParams, policy: TruncationPolicy):
        q, beta, gamma = params.q, params.beta, params.gamma
        self.q, self.beta, self.bg, self.gamma2 = q, beta, beta * gamma, gamma * gamma
        qbg = _pole_finite("q/(beta gamma)", q / (beta * gamma))
        # the rings can cancel, which scales up every piece's error alike,
        # so the products are truncated at eps, not at rel_tol
        self.exact = policy = TruncationPolicy(_EPS, policy.max_terms)
        self.near = _POLE_NEAR * min(1.0, abs(beta))
        try:
            self.scale = _pole_finite(
                "the z-free factor of H_0",
                poch_multi([q, q / beta, beta * gamma], q, INFINITY, policy)
                / poch_multi([q * gamma, q * gamma, qbg], q, INFINITY, policy))
        except (DomainError, NonConvergence, ZeroDivisionError) as exc:
            raise _RouteUnusable(f"the z-free factor of H_0: {exc}") from exc
        self._u = self._f = np.empty(0, dtype=complex)

    def tables(self, k: int):
        """u_j and F_j for j < k, read-only; a longer table holds the same
        leading values."""
        if self._u.size < k:
            u = np.full(max(k, 2 * self._u.size), self.q, dtype=complex)
            np.cumprod(u, out=u)
            f = self.gamma2 * (u - self.beta) / (u - 1)
            u.setflags(write=False)
            f.setflags(write=False)
            self._u, self._f = u, f
        return self._u[:k], self._f[:k]


def _pole_finite(name: str, value: complex) -> complex:
    if not cmath.isfinite(value):
        raise _RouteUnusable(f"{name} = {value} leaves the double range")
    return value


@functools.lru_cache(maxsize=32)
def _pole_head(params: UltraParams, mirrored: bool,
               policy: TruncationPolicy) -> _PoleHead:
    """The _PoleHead of params, or of symmetry_params(params) if mirrored
    (the expansion of the rows n < 0); one per arguments."""
    if mirrored:
        mirror = 1.0 / (params.beta * params.gamma)
        params = params.with_gamma(_pole_finite("1/(beta gamma)", mirror))
    return _PoleHead(params, policy)


class _PoleRings:
    """C_n at points z off the annulus by the generating function's pole
    expansion (Darboux's method).  Moving the Cauchy contour of the
    coefficient of t^n outward past the simple poles t = q^{-k} z^{+-1}
    gives, for n >= 0,

        C_n(z) = sum_{k>=0} q^{kn} [H_k(z) z^{-n} + H_k(1/z) z^n],
        H_0(z) = S (beta gamma w, q/(beta gamma w); q)_inf
                   / (w, q/(beta w); q)_inf,
        H_{k+1}/H_k = F_k (u_k - beta w)/(u_k - w),  w = z^2,

    with S, u_k = q^{k+1} and F_k from _PoleHead; the theta pair of
    beta gamma w contributes only the factor gamma^2 to the ratio.  The
    rows n < 0 are (q/beta)^{-n} C_{-n}(z; beta, 1/(beta gamma))
    (symmetry_params).  The H tables do not depend on n: each sign of n
    makes them once for all its rows and points (_PoleSide), and a row
    multiplies them by q^{kn} at every point at once.

    A ring ratio tends to the row's limit L = |beta gamma|^2 |q|^n.
    From a point's ring `start`, where |q|^{k+1} <= _POLE_NEAR
    min(1, |beta|) min(|w|, 1/|w|), each ratio is at most
    b = _POLE_SETTLED L, and the row sums start + J rings at that point,
    J the rings after which b^J/(1 - b) is below eps, and bounds its tail
    by the ratio's factors at |u| = |q|^{rings} (_PoleSide.bound).  Each
    point sums exactly its own rings, and a table grown for a later row
    or another point holds the same leading values, so one point is the
    one-point case of the same code, bit for bit.

    value(n, i) gives C_n at point i; every value of the expansion leaves
    through it.  It raises _RouteUnusable where the route refuses: b not
    below 1, rings over max_terms, z^2 on the q^Z lattice (where the poles
    q^{-k} z and q^{-j}/z coalesce), a piece that is not finite, a tail
    bound over rel_tol |C_n|, or eps sum|ring| over POLE_CANCELLATION |C_n|."""

    def __init__(self, z, params: UltraParams, policy: TruncationPolicy):
        """z is one point or a list of Python-complex points; lattice[i]
        tells whether z^2 at point i is within _LATTICE_BAND of q^Z."""
        self.points = z if isinstance(z, list) else [complex(z)]
        self.lattice = [is_q_power(v * v, params.q, _LATTICE_BAND) is not None
                        for v in self.points]
        self.params, self.policy = params, policy
        self._sides, self._rows = {}, {}

    def value(self, n: int, i: int = 0):
        """(value, rings, sum |ring|) of C_n at point i."""
        row = self._rows.get(n)
        if row is None:
            row = self._rows[n] = self._row(n)
        if isinstance(row, str):
            raise _RouteUnusable(row)
        side, rings, found = row
        params, z = self.params, self.points[i]
        q, beta, m, aq = params.q, params.beta, abs(n), abs(params.q)
        u, w = (q / (beta * z), q * z / beta) if n < 0 else (1 / z, z)
        try:
            a, c = power(u, m, "z^n"), power(w, m, "z^n")
        except NonConvergence as exc:
            raise _RouteUnusable(f"z^n overflowed at n = {n}") from exc
        j = side.index[i]
        if isinstance(j, _RouteUnusable):
            raise type(j)(*j.args)
        if rings[j] > self.policy.max_terms:
            raise _RouteUnusable(f"C_{n} needs {rings[j]} rings, over max_terms")
        sums, mass, last, k = found[j]     # entries k and k + 1: z and 1/z
        value = a * sums[k] + c * sums[k + 1]
        total = abs(a) * mass[k] + abs(c) * mass[k + 1]
        if not (cmath.isfinite(value) and math.isfinite(total)):
            raise _RouteUnusable(f"the rings of C_{n} are not finite")
        ratio = aq ** m * side.bound(aq ** rings[j], j)
        tail = abs(a) * last[k] + abs(c) * last[k + 1]
        size = abs(value)
        if not (ratio < 1 and tail * ratio <= (1 - ratio) * self.policy.rel_tol * size):
            raise _RouteUnusable(f"the ring tail of C_{n} is not bounded "
                                 f"below rel_tol")
        if not _EPS * total <= POLE_CANCELLATION * size:
            raise _RouteUnusable(f"the rings of C_{n} cancel: sum |ring| = "
                                 f"{total:.3g}, |C_n| = {size:.3g}")
        return value, rings[j], total

    def _row(self, n: int):
        """Row n at the points its side keeps, by the point's row j in the
        side's tables: (side, rings, found), where rings[j] is the point's
        ring count and found[j] = (sums, mass, last, k) of its group of
        points with that count: the sums of their rings, the sums of the
        rings' moduli and the moduli of their last rings, at z in entry k
        and at 1/z in entry k + 1; or the reason the whole row refuses."""
        params, mirrored, m = self.params, n < 0, abs(n)
        aq, g2 = abs(params.q), abs(params.gamma) ** 2
        limit = ((aq ** m / g2 if g2 else math.inf) if mirrored
                 else abs(params.beta * params.gamma) ** 2 * aq ** m)
        b = max(_POLE_SETTLED * limit, 1e-300)
        if not b < 1:
            return f"ring ratio {limit:.3g}: its settled bound {b:.3g} is not below 1"
        settled = math.ceil(math.log(_EPS * (1 - b)) / math.log(b)) + 1
        with np.errstate(all="ignore"):
            side = self._sides.get(mirrored)
            if side is None:
                side = self._sides[mirrored] = _PoleSide(self, mirrored)
            rings = [start + settled for start in side.start]
            # the points with one ring count sum their rings together, each
            # of their two table rows along its contiguous axis, as a point
            # alone does: no point's sums depend on the others
            groups, top = {}, self.policy.max_terms
            for j, r in enumerate(rings):
                if r <= top:
                    groups.setdefault(r, []).append(j)
            found = [None] * len(rings)
            if not groups:
                return side, rings, found
            width = max(groups)
            terms = side.table(width) * np.power(params.q ** m, np.arange(width))
            sizes = np.abs(terms)
            for r, js in groups.items():
                if len(js) == len(rings):      # one group: the whole table
                    t, s = terms, sizes
                else:
                    rows = [k for j in js for k in (2 * j, 2 * j + 1)]
                    t, s = terms[rows, :r], sizes[rows, :r]
                sums = (t.sum(axis=1).tolist(), s.sum(axis=1).tolist(),
                        s[:, -1].tolist())
                for k, j in enumerate(js):
                    found[j] = sums + (2 * k,)
        return side, rings, found


class _PoleSide:
    """The H tables of one sign of n at the points of a _PoleRings: H_0 at
    z and 1/z of all its points from one table of their eight infinite
    products each (_pole_products), made at construction, and the ring
    table of H_k(z), H_k(1/z) by the ratio form, rows 2j and 2j + 1 for
    the point of row j, grown on demand.  index[i] is point i's row j, or
    the _RouteUnusable that says why the expansion refuses at point i;
    start[j] and aw[j] = |z^2| belong to row j.  The per-point checks,
    factor counts and ring starts are Python arithmetic: at one point
    numpy's call overhead would outweigh them."""

    def __init__(self, rings: _PoleRings, mirrored: bool):
        params, policy = rings.params, rings.policy
        q, aq, log_aq = params.q, abs(params.q), math.log(abs(params.q))
        self.index, self.aw, self.start = [], [], []
        lead, counts, bw, ws, head = [], [], [], [], None
        for z, lattice in zip(rings.points, rings.lattice):
            w = z * z
            aw = abs(w)
            try:
                if lattice:
                    raise _RouteUnusable("z^2 on the q^Z lattice, where the "
                                         "poles coalesce")
                if not 0 < aw < math.inf:
                    raise _OutOfRange("z^2 leaves the double range")
                head = head or _pole_head(params, mirrored, policy)
                beta, bg = head.beta, head.bg
                near = head.near * min(aw, 1 / aw)
                if not near > 0:
                    raise _OutOfRange("z^2 leaves the double range")
                try:
                    row = [bg * w, q / (bg * w), w, q / (beta * w),
                           bg / w, q * w / bg, 1 / w, q * w / beta]
                    if not all(map(cmath.isfinite, row)):
                        for c in row:
                            _pole_finite("an H_0 parameter", c)
                    count = _product_bound_terms(max(map(abs, row)), aq, head.exact)
                except (NonConvergence, ZeroDivisionError) as exc:
                    raise _RouteUnusable(f"H_0 at z = {z}: {exc}") from exc
            except _RouteUnusable as exc:
                self.index.append(exc)
                continue
            self.index.append(len(counts))
            self.aw.append(aw)
            self.start.append(max(0, math.ceil(math.log(near) / log_aq)))
            counts.append(count)
            lead += row
            bw += (beta * w, beta / w)
            ws += (w, row[6])
        self.head = head
        if lead:
            # H_0 at z and at 1/z of each point from its eight products, by
            # numpy's scalar complex arithmetic (its array loops round some
            # products differently), as one point has always been formed
            p = _pole_products(lead, counts, q).tolist()
            h0 = [np.complex128(p[k] * p[k + 1]) / (p[k + 2] * p[k + 3])
                  for k in range(0, len(p), 4)]
            self._table = self._h0 = (head.scale * np.array(h0))[:, None]
            self._bw, self._w = np.array(bw + ws).reshape(2, -1, 1)

    def table(self, rings: int) -> np.ndarray:
        """The first `rings` columns k of H_k(z), H_k(1/z) at every row."""
        if self._table.shape[1] < rings:
            u, f = self.head.tables(rings - 1)
            table = np.empty((self._h0.size, rings), dtype=complex)
            table[:, :1] = self._h0
            np.multiply(f, (u - self._bw) / (u - self._w), out=table[:, 1:])
            np.cumprod(table, axis=1, out=table)
            self._table = table
        return self._table[:, :rings]

    def bound(self, a: float, j: int) -> float:
        """A bound on |H_{k+1}/H_k| at z and at 1/z of row j for every k
        with |q|^{k+1} <= a: F_k (u - beta w)/(u - w) by the moduli of its
        factors, each monotone in a; inf where a denominator bound is not
        positive."""
        ag, ab = abs(self.head.gamma2), abs(self.head.beta)
        out = 0.0
        for x in (self.aw[j], 1 / self.aw[j]):
            if not (a < x and a < 1):
                return math.inf
            out = max(out, ag * (a + ab) * (a + ab * x) / ((1 - a) * (x - a)))
        return out


def _pole_products(a: list, counts: list, q) -> np.ndarray:
    """(a_i; q)_inf for the parameters a of several points, the same
    number per point, each to its point's count of factors, from one
    (parameters x factors) table (half the time of poch's transposed
    table here).  The factors past a point's count are exactly 1, so a
    point's products do not depend on the points it shares the table with."""
    width = max(counts)
    table = np.empty((len(a), width), dtype=complex)
    table[:, 0] = a
    table[:, 1:] = q
    np.cumprod(table, axis=1, out=table)
    np.subtract(1.0, table, out=table)
    if min(counts) < width:
        per = np.repeat(counts, len(a) // len(counts))
        table[np.arange(width) >= per[:, None]] = 1
    return table.prod(axis=1)


def _lattice_radius(z: complex, params: UltraParams) -> float:
    """The distance from z, z^2 on the q^Z lattice, to the nearest other
    lattice point, at least r (1 - |q|^{1/2}) away (r = |z|), or singular
    point of C_n, w^2 = q^{k+1}/beta or beta q^{-k-1} with k >= 0."""
    r, lq, lb = abs(z), cmath.log(params.q), cmath.log(params.beta)
    radius = r * (1 - abs(params.q) ** 0.5)
    for lc, first, last in ((lq - lb, 0, math.inf), (lb - lq, -math.inf, 0)):
        # the w^2 = e^{lc} q^k with ||w| - r| <= radius: 2 log|w| = Re(lc + k lq)
        lo, hi = ((2 * math.log(r + s * radius) - lc.real) / lq.real for s in (1, -1))
        for k in range(max(first, math.ceil(lo)), min(last, math.floor(hi)) + 1):
            w = cmath.exp((lc + k * lq) / 2)
            radius = min(radius, abs(z - w), abs(z + w))
    return radius


def _lattice_rows(n_lo: int, n_hi: int, z: complex, params: UltraParams,
                  policy: TruncationPolicy) -> list:
    """The (value, terms) rows of _point_rows at z with z^2 on the q^Z
    lattice, where the continuations degenerate but C_n is analytic: its
    trapezoid mean over z + rho e^{2 pi i j/64}, j < 64, rho a third of
    _lattice_radius, from one _range_values call (terms is the most any
    point took).  A row is accepted where the mean of every other point
    agrees with it to rel_tol |mean|; else RegionError names the gap."""
    rho = _lattice_radius(z, params) / 3
    circle = z + rho * np.exp(2j * np.pi * np.arange(64) / 64)
    if any(is_q_power(w * w, params.q, _LATTICE_BAND) is not None
           for w in circle.tolist()):
        raise RegionError(f"the circle about z = {z} meets the q^Z lattice")
    values, terms = _range_values(n_lo, n_hi, circle, params, policy)
    means = values.mean(axis=1).tolist()
    for n, mean, half in zip(range(n_lo, n_hi + 1), means,
                             values[:, ::2].mean(axis=1).tolist()):
        if not abs(mean - half) <= policy.rel_tol * abs(mean):
            raise RegionError(f"the circle mean of C_{n} at the lattice point z = {z} "
                              f"is not settled: its 32- and 64-point means differ "
                              f"by {abs(mean - half):.3g}, |C_n| = {abs(mean):.3g}")
    return list(zip(means, terms.tolist()))


def _direct_range(n_lo: int, n_hi: int, z: np.ndarray, params: UltraParams,
                  policy: TruncationPolicy):
    """C_n for n_lo <= n <= n_hi at the 1-D points z, all inside the
    annulus, in passes of _direct_rows: the (rows x points) values and
    the terms of each row, both sides together."""
    radii = np.abs(z)
    budgets = _tail_bound(float(radii.min()), float(radii.max()), params, policy)
    steps = max(max(n_hi, 0) + budgets[0], max(-n_lo - 1, 0) + budgets[1])
    if steps > policy.max_terms:
        raise NonConvergence(f"bilateral sum needs {steps} terms per side, "
                             f"over max_terms = {policy.max_terms}")
    # passes capped through _BLOCK_SIZE; where they split a range changes
    # no row's terms, only, through BLAS's summation order, its last bits
    step = max(1, min(_BLOCK_SIZE // z.size, 8 * _BLOCK_SIZE // steps))
    values = np.empty((n_hi - n_lo + 1, z.size), dtype=complex)
    terms = np.empty(n_hi - n_lo + 1, dtype=int)
    for lo in range(n_lo, n_hi + 1, step):
        block = slice(lo - n_lo, min(lo + step, n_hi + 1) - n_lo)
        values[block], sides = _direct_rows(lo, min(lo + step - 1, n_hi), z,
                                            params, budgets)
        terms[block] = sides.sum(axis=0)
    return values, terms


def _scalar_inside(z: complex, beta, q) -> bool:
    """direct_region_mask at one Python-complex z, in Python arithmetic
    where the ratios clear the margin by more than 1e-9 relative; closer
    to it, and where z^2 leaves the double range, the mask decides."""
    z2 = z * z
    if z2 != 0 and cmath.isfinite(z2):
        lo, hi = abs(q * z2 / beta), abs(q / (beta * z2))
        if max(lo, hi) < DIRECT_REGION_MARGIN * (1 - 1e-9):
            return True
        if max(lo, hi) > DIRECT_REGION_MARGIN * (1 + 1e-9):
            return False
    return bool(direct_region_mask(np.array([z]), beta, q)[0])


#: off-annulus points per _PoleRings: bounds its ring tables near b = 1
_POLE_BLOCK = 64


def _point_rows(n_lo: int, n_hi: int, zs: list, params: UltraParams,
                policy: TruncationPolicy) -> list:
    """Per point of zs (Python complex, all off the annulus), the (values,
    terms) tuples of C_n, n_lo <= n <= n_hi, every row by the route of
    the point: where z^2 is on the q^Z lattice a circle mean
    (_lattice_rows), else the pole expansion and the recurrence where it
    refuses (_continued_rows).  Each block of _POLE_BLOCK points shares
    one _PoleRings, which tests each point for the lattice in scalar
    arithmetic (numpy's log could round a point in the test's band to the
    other side).  Blocks, points and rows are walked in order, so a
    failing row raises the error a loop over the points one at a time
    would raise first.  Raises check_pole_lattice's PoleError first."""
    check_pole_lattice(params)
    out = []
    for lo in range(0, len(zs), _POLE_BLOCK):
        block = zs[lo:lo + _POLE_BLOCK]
        rings = _PoleRings(block, params, policy)
        for i, z in enumerate(block):
            if rings.lattice[i]:
                rows = _lattice_rows(n_lo, n_hi, z, params, policy)
            else:
                rows = _continued_rows(n_lo, n_hi, rings, i)
            out.append(tuple(zip(*rows)))
    return out


def _continued_rows(n_lo: int, n_hi: int, rings: _PoleRings, i: int) -> list:
    """The (value, terms) rows n_lo..n_hi at point i of rings, off the q^Z
    lattice: the pole expansion's where it accepts, else the recurrence's
    (_recurrence_band).  At z = +-i, to within its rounding, every odd row
    is 0 (C_n(-z) = (-1)^n C_n(z), -z = 1/z) and the recurrence splits by
    parity.  RegionError where z^2 leaves the double range."""
    z = rings.points[i]
    x = (z + 1.0 / z) / 2.0
    x = 0.0 if abs(x) <= 2 * _EPS else x
    known = {}

    def row(n):     # the expansion's (value, terms, sum |ring|), or its refusal
        if n not in known:
            try:
                known[n] = (0j, 0, 0.0) if x == 0 and n % 2 else rings.value(n, i)
            except _OutOfRange as exc:
                raise RegionError(f"no route gives C_{n} at z = {z}: {exc}") from exc
            except _RouteUnusable as exc:
                known[n] = exc
        return known[n]

    out = []
    for n in range(n_lo, n_hi + 1):
        if isinstance(row(n), _RouteUnusable):
            known.update(_recurrence_band(n, row, z, x, rings.params, rings.policy))
        out.append(known[n][:2])
    return out


#: how far past a refused row _recurrence_band looks for its band's ends
_END_SEARCH = 128

#: a recurrence row is kept where its error estimate is at most this times
#: rel_tol: the rows kept on the sweep grid at q <= 0.7 estimate up to
#: 1.9e-12; C_0 at (0.7, 0.4, 1.5), z = fl(q^{1/4}), 9.1e-11 off, 2.3e-11
RECURRENCE_SLACK = 32


def _recurrence_band(a: int, row, z: complex, x: complex, params: UltraParams,
                     policy: TruncationPolicy) -> dict:
    """{n: (value, terms, 0.0)} for the refused rows of the band about the
    refused row a at z, x = (z + 1/z)/2, by the three-term recurrence
    from the rows row(n) gives: the expansion's (value, terms, sum |ring|)
    or its _RouteUnusable.  The band runs from lo, the nearest accepted
    row below a, to hi, the first row above a accepted with the row after
    it; both may lie past the rows asked for.  Its refused rows come from
    1. the recurrence run downward from C_{hi+1} and C_hi, where it
       reproduces C_lo to rel_tol;
    2. else the two-point system of the band with the ends C_lo and C_hi
       (F. W. J. Olver, J. Res. NBS 71B (1967) 111-129);
    either kept where its error estimate (_band_solve) is at most
    RECURRENCE_SLACK rel_tol at every refused row, else NonConvergence
    names the gap.  Far from the unit circle the wanted solution is
    minimal downward (W. Gautschi, SIAM Rev. 9 (1967) 24-82): the run
    misses C_lo, and the system gives the band.  A row's terms are the
    most rings its ends summed.  PoleError first at a singular point of
    C_n, z^2 = q^{k+1}/beta or beta q^{-k-1}, k >= 0."""
    q, w, b = params.q, z * z, params.beta
    check_vanishing({"q/(beta z^2)": q / (b * w), "q z^2/beta": q * w / b}, q,
                    why=f"C_n is singular there, at z = {z}")

    def refused(n):
        return isinstance(row(n), _RouteUnusable)

    lo = next((n for n in range(a - 1, a - _END_SEARCH - 1, -1) if not refused(n)), None)
    hi = None if lo is None else next((n for n in range(a + 1, a + _END_SEARCH)
                                       if not (refused(n) or refused(n + 1))), None)
    if hi is None:
        where = "below it" if lo is None else "above it, with the row after it,"
        raise _no_route(a, z, row, f"no row {where} within {_END_SEARCH} rows is "
                                   f"accepted to bound the recurrence")
    band = [n for n in range(lo + 1, hi) if refused(n)]
    (end, t_lo, s_lo), (top, t_hi, s_hi), (over, t_over, s_over) = (
        row(lo), row(hi), row(hi + 1))
    m, tol = hi - lo - 1, RECURRENCE_SLACK * policy.rel_tol
    # row k: the recurrence at n = lo + 1 + k, on C_lo .. C_{hi+1}
    system = np.zeros((m + 1, m + 3), dtype=complex)
    for k in range(m + 1):
        down, mid, up = _recurrence_coefficients(lo + 1 + k, params)
        system[k, k:k + 3] = down, -2 * x * mid, up
    # downward: the triangular system of rows lo .. hi - 1 under C_hi, C_{hi+1}
    values, first = _band_solve(system[:, :m + 1], system[:, m + 1:], [top, over],
                                [s_hi, s_over], [n - lo for n in band])
    miss = abs(values[0] - end)
    if not (miss <= policy.rel_tol * abs(end) and first <= tol):
        values, second = _band_solve(system[:m, 1:m + 1], system[:m, [0, m + 1]],
                                     [end, top], [s_lo, s_hi], [n - lo - 1 for n in band])
        if not second <= tol:
            raise _no_route(a, z, row, (
                f"the recurrence from C_{hi} misses C_{lo} by "
                f"{miss / abs(end) if end else miss:.3g} relative, error "
                f"estimate {first:.3g}, and the two-point system between "
                f"them has error estimate {second:.3g}"))
        values = [end] + values
    return {n: (values[n - lo], max(t_lo, t_hi, t_over), 0.0) for n in band}


def _no_route(n: int, z: complex, row, why: str) -> NonConvergence:
    return NonConvergence(f"no route gives C_{n} at z = {z}: the pole expansion "
                          f"refuses it ({row(n)}), and {why}")


def _band_solve(band: np.ndarray, given: np.ndarray, ends: list, sizes: list,
                picked: list) -> tuple:
    """(sol, err): the solution of band sol + given ends = 0, a list, and
    the largest first-order relative error of its entries picked where
    every coefficient is off by eps relative and end j by eps sizes[j],
    eps (|band^{-1}| (|band| |sol| + |given| sizes))_k / |sol_k|
    (Skeel's componentwise condition, the ends as data), 0 where the data
    leave no spread; inf for a singular band."""
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(band)
        except np.linalg.LinAlgError:
            return [math.nan] * len(band), math.inf
        sol = -(inv @ (given @ ends))
        size = np.abs(sol)
        spread = np.abs(inv) @ (np.abs(band) @ size + np.abs(given) @ sizes)
        err = np.divide(spread, size, out=np.zeros_like(size), where=spread > 0)
    return sol.tolist(), _EPS * err[picked].max()


def _range_values(n_lo: int, n_hi: int, z, params: UltraParams,
                  policy: TruncationPolicy):
    """The values and truncation_terms of bilateral_cn_range at z = p.z;
    tuples at one point off the annulus."""
    n_lo = index(n_lo)
    n_hi = index(n_hi, n_lo, "bilateral_cn_range needs n_hi")
    _check_poles(params)
    if not isinstance(z, np.ndarray):    # one point: no index bookkeeping
        if _scalar_inside(z, params.beta, params.q):
            values, terms = _direct_range(n_lo, n_hi, np.array([z]), params, policy)
            return values.reshape(-1), terms
        return _point_rows(n_lo, n_hi, [z], params, policy)[0]
    shape = z.shape
    z = np.asarray(z, dtype=complex).ravel()
    inside = direct_region_mask(z, params.beta, params.q)
    rows = n_hi - n_lo + 1
    values = np.empty((rows, z.size), dtype=complex)
    terms = np.zeros(rows, dtype=int)
    if inside.any():
        values[:, inside], terms[:] = _direct_range(n_lo, n_hi, z[inside],
                                                    params, policy)
    outside = ~inside
    if outside.any():
        continued, counts = zip(*_point_rows(n_lo, n_hi, z[outside].tolist(),
                                             params, policy))
        values[:, outside] = np.array(continued).T
        np.maximum(terms, np.max(counts, axis=0), out=terms)
    return values.reshape((rows,) + shape), terms


def bilateral_cn_range(n_lo: int, n_hi: int, p: SpectralPoint,
                       params: UltraParams,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> UltraRange:
    """C_n at p for every n_lo <= n <= n_hi: the points inside the direct
    annulus summed together for all rows (_direct_range), every other
    point continued by its route (_point_rows), independently of the
    points it shares the call with.  A scalar p.z gets the values and term
    counts of the one-element array, bit for bit; an array raises the
    error of its first failing point at its first failing row.  PoleError
    on the gamma parameter lattices (_check_poles, and off the annulus
    check_pole_lattice), RegionError where no route applies, and
    NonConvergence where a budget is exhausted or a check refuses."""
    values, terms = _range_values(n_lo, n_hi, p.z, params, policy)
    return UltraRange(int(n_lo), p, params, policy,
                      np.asarray(values, dtype=complex), np.asarray(terms, dtype=int))


def bilateral_cn(n: int, p: SpectralPoint, params: UltraParams,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> UltraValue:
    """Bilateral q-ultraspherical function value at p: the one-row case of
    bilateral_cn_range, whose routes and errors it shares; p.z may be an
    array, and then each point takes its own route."""
    values, terms = _range_values(n, n, p.z, params, policy)
    value = values[0]
    if not isinstance(p.z, np.ndarray):
        value = complex(value)
    return UltraValue(int(n), p, value, int(terms[0]))


def bilateral_cn_psi_form(n: int, p: SpectralPoint, params: UltraParams,
                          policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """In-region cross-check of the direct sum: the defining series as the
    well-poised P 2psi2(beta gamma, b; q gamma, d; q, q/(beta z^2)),
    P = (beta gamma; q)_n / (q gamma; q)_n z^n, b = q^{-n}/gamma and
    d = q^{1-n}/(beta gamma); NonConvergence where P, b or d overflows,
    or b or d underflows to 0.  p is one point: the sum is one scalar
    2psi2, and an array of z raises DomainError."""
    if isinstance(p.z, np.ndarray):
        raise DomainError("bilateral_cn_psi_form takes one point, got an array of z")
    check_pole_lattice(params)
    q, beta, gamma = params.q, params.beta, params.gamma
    bg, z, n = beta * gamma, p.z, index(n)
    try:
        ratio = poch_ratio(bg, q * gamma, q, n)
    except NonConvergence as exc:   # its one NonConvergence: the ratio overflowed
        raise NonConvergence(f"(beta gamma; q)_n/(q gamma; q)_n at n = {n} "
                             f"leaves the double range") from exc
    pref = ratio * power(z, n, "z^n")
    b, d = power(q, -n, "q^{-n}") / gamma, power(q, 1 - n, "q^{1-n}") / bg
    for name, value in (("q^{-n}/gamma", b), ("q^{1-n}/(beta gamma)", d)):
        if not (value and cmath.isfinite(value)):
            raise NonConvergence(f"{name} = {value} at n = {n} leaves the double range")
    spec = SeriesSpec(BILATERAL, (bg, b), (q * gamma, d), q, q / (beta * z * z))
    return pref * sum_psi(spec, policy)[0]


def bilateral_cn_continued(n: int, z, params: UltraParams,
                           policy: TruncationPolicy = DEFAULT_POLICY) -> UltraValue:
    """C_n at z by the analytic continuation of _point_rows, wherever z
    lies, also inside the direct annulus: the pole expansion, the
    recurrence where it refuses, and on the q^Z lattice of z^2 the circle
    mean.  z may be an array: one _point_rows runs over its points, each
    value that of its scalar call bit for bit, and truncation_terms is
    the most any point summed.  Its errors are _point_rows'."""
    n, p = index(n), SpectralPoint(z)
    array = isinstance(p.z, np.ndarray)
    zs = np.asarray(p.z, dtype=complex).ravel().tolist() if array else [p.z]
    rows = _point_rows(n, n, zs, params, policy)    # per point ((C_n,), (terms,))
    values = [value for (value,), _ in rows]
    terms = max((count for _, (count,) in rows), default=0)
    return UltraValue(n, p, np.array(values, dtype=complex).reshape(p.z.shape)
                      if array else values[0], terms)


def generating_rhs(kind: str, t, p: SpectralPoint, params: UltraParams,
                   policy: TruncationPolicy = DEFAULT_POLICY):
    """Closed product form of the generating function sum_n C_n t^n.

    classical: (beta t z, beta t / z; q)_inf / (t z, t / z; q)_inf for
    |t z| < 1 and |t / z| < 1.  bilateral: includes the constant
    (q, q/beta; q)_inf^2 / (q gamma, q/(beta gamma); q)_inf^2 and requires
    |q / beta| < |t z^{+-1}| < 1.  t may be a numpy array, and then the
    region is checked at every t and an array is returned.
    """
    q, beta, gamma = params.q, params.beta, params.gamma
    t = t.astype(complex) if isinstance(t, np.ndarray) else complex(t)
    z = p.z
    tz, t_z = np.abs(t * z), np.abs(t / z)
    if kind == CLASSICAL:
        if not (np.all(tz < 1) and np.all(t_z < 1)):
            raise RegionError("classical generating function needs |t z^(+-1)| < 1")
        return poch_pm(beta * t, p, q, policy) / poch_pm(t, p, q, policy)
    if kind != BILATERAL_KIND:
        raise DomainError(f"unknown kind {kind!r}")
    check_pole_lattice(params)
    lo = abs(q / beta)
    if not np.all((lo < tz) & (tz < 1) & (lo < t_z) & (t_z < 1)):
        raise RegionError(
            "bilateral generating function needs |q/beta| < |t z^(+-1)| < 1")
    bg = beta * gamma
    pref = (power(poch(q, q, INFINITY, policy) * poch(q / beta, q, INFINITY, policy),
                  2, "(q, q/beta; q)^2")
            / power(poch(q * gamma, q, INFINITY, policy) * poch(q / bg, q, INFINITY, policy),
                    2, "(q gamma, q/(beta gamma); q)^2"))
    num = poch_pm(bg * t, p, q, policy) * poch_pm(q / (bg * t), p, q, policy)
    den = poch_pm(t, p, q, policy) * poch_pm(q / (beta * t), p, q, policy)
    return pref * num / den


def _recurrence_coefficients(n: int, params: UltraParams) -> tuple:
    """(down, mid, up) of 2x mid C_n = up C_{n+1} + down C_{n-1} at n:
    1 - beta^2 gamma^2 q^{n-1}, 1 - beta gamma^2 q^n, 1 - gamma^2 q^{n+1};
    NonConvergence where q^{n-1}, the largest power, overflows."""
    q, beta, g2 = params.q, params.beta, params.gamma ** 2
    return (1 - beta ** 2 * g2 * power(q, n - 1, "q^{n-1}"),
            1 - beta * g2 * q ** n, 1 - g2 * q ** (n + 1))


def recurrence_gap(n: int, p: SpectralPoint, params: UltraParams,
                   cm1, c0, cp1) -> float:
    """Residual of the three-term recurrence (_recurrence_coefficients)
    for the given values C_{n-1}, C_n, C_{n+1} at p, scaled by
    max(1, |C_n|).  Where p or the values hold arrays, an array: each
    point's scalar gap (pointwise)."""
    down, mid, up = _recurrence_coefficients(index(n), params)

    def gap(z, cm1, c0, cp1):
        x = (z + 1.0 / z) / 2.0         # p.x at one point
        return abs(2 * x * mid * c0 - (up * cp1 + down * cm1)) / max(1.0, abs(c0))
    return pointwise(gap, p.z, cm1, c0, cp1)


def recurrence_residual(kind: str, n: int, p: SpectralPoint,
                        params: UltraParams,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """recurrence_gap of C_{n-1}, C_n, C_{n+1} at p; the classical kind
    uses the polynomials and gamma = 1.  An array p gives an array of its
    shape: each point's scalar residual."""
    n = index(n, 1 if kind == CLASSICAL else None, "classical recurrence check needs n")
    if kind == CLASSICAL:
        vals = [classical_cn(j, p, params.beta, params.q) for j in (n - 1, n, n + 1)]
        return recurrence_gap(n, p, params.with_gamma(1.0), *vals)
    if kind != BILATERAL_KIND:
        raise DomainError(f"unknown kind {kind!r}")
    rows = bilateral_cn_range(n - 1, n + 1, p, params, policy)
    return recurrence_gap(n, p, params, *rows.values)


def symmetry_gap(n: int, params: UltraParams, cn, mirrored_c_minus_n) -> float:
    """Residual of C_n(x; beta, gamma) = (beta/q)^n C_{-n}(x; beta, 1/(beta gamma))
    for the given values of both sides, scaled by max(1, |C_n|); an array
    where they hold arrays, of each point's scalar gap (pointwise)."""
    scale = power(params.beta / params.q, index(n), "(beta/q)^n")

    def gap(cn, mirrored):
        return abs(cn - scale * mirrored) / max(1.0, abs(cn))
    return pointwise(gap, cn, mirrored_c_minus_n)


def symmetry_params(params: UltraParams) -> UltraParams:
    """The parameters (beta, 1/(beta gamma), q) of the symmetry relation."""
    return params.with_gamma(1.0 / (params.beta * params.gamma))


def symmetry_residual(n: int, p: SpectralPoint, params: UltraParams,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """symmetry_gap of C_n(x; beta, gamma) and C_{-n}(x; beta, 1/(beta gamma));
    an array p gives an array of its shape."""
    lhs = bilateral_cn(n, p, params, policy).value
    rhs = bilateral_cn(-n, p, symmetry_params(params), policy).value
    return symmetry_gap(n, params, lhs, rhs)


def constant_term(n: int, params: UltraParams,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Value of the bilateral function at x = 0 (z = i): zero for odd
    index, an explicit product for even index 2m (any integer m).  The
    head (-1)^m (beta^2 gamma^2; q^2)_m / (q^2 gamma^2; q^2)_m pairs its
    factors, so it stays finite for large negative m.  PoleError where a
    denominator product of the tail vanishes, or of the head (poch_ratio)."""
    m, odd = divmod(index(n), 2)
    if odd:
        return 0.0 + 0j
    check_pole_lattice(params)
    q, beta, gamma = params.q, params.beta, params.gamma
    q2 = q * q
    head = (-1.0) ** m * poch_ratio(beta ** 2 * gamma ** 2, q2 * gamma ** 2, q2, m)
    tail = poch_quotient([q, q / beta, -q * gamma, -q / (beta * gamma)],
                         {"-q": -q, "-q/beta": -q / beta, "q gamma": q * gamma,
                          "q/(beta gamma)": q / (beta * gamma)}, q, policy)
    return head * tail


def special_value_c0(params: UltraParams,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Closed product form of C_0 at the point z = q^{1/4}
    (x = (q^{1/4} + q^{-1/4})/2); requires real 0 < q < 1.  PoleError
    where a denominator product vanishes."""
    q = check_real_base(params.q)
    beta, gamma = params.beta, params.gamma
    r = math.sqrt(q)
    return poch_quotient([q, q / beta, r / (beta * gamma), r * gamma],
                         {"q/(beta gamma)": q / (beta * gamma), "q gamma": q * gamma,
                          "q^(1/2)": r, "q^(1/2)/beta": r / beta}, q, policy)


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
    check_vanishing({"beta": beta}, q, 1)
    return math.sqrt(q) * (1 - gamma) ** 2 / (gamma * (1 - beta))


def linearization_residual(m, n, p: SpectralPoint, beta, q):
    """Residual of the product formula C_m C_n = sum_k coeff(k) C_{m+n-2k}
    over k = 0..min(m, n), with fully factored coefficients.

    m and n may be equal-length integer sequences: the residuals of the
    pairs (m[i], n[i]) then come back as an array, from one classical_cn
    per degree and one table (a; q)_j, j = 0..max(m + n), per base a of
    the coefficients.  Each pair's residual is the one its integer call
    gives, bit for bit.  An array p adds its shape to the result's, each
    point's residuals those of its scalar call (pointwise)."""
    ms, ns, single = indices(m, n, least=0, what="linearization needs m, n")
    q = check_base(q)
    beta = complex(beta)
    top = max(a + b for a, b in zip(ms, ns))
    # the divisors (beta; q)_1 (q beta; q)_{m+n-k} and (beta^2; q)_s
    check_vanishing({"beta": beta}, q, top + 1)
    check_vanishing({"beta^2": beta ** 2}, q, top)
    degrees = sorted({*ms, *ns} | {a + b - 2 * k for a, b in zip(ms, ns)
                                   for k in range(min(a, b) + 1)})
    values = [classical_cn(d, p, beta, q) for d in degrees]
    qq, bq, b2q, qbq = ([poch(a, q, j) for j in range(top + 1)]
                        for a in (q, beta, beta ** 2, q * beta))
    sums = []       # per pair, the (coeff, degree) terms of its right side
    for m, n in zip(ms, ns):
        terms = []
        for k in range(min(m, n) + 1):
            s = m + n - 2 * k
            coeff = qq[s] * bq[m - k] * bq[n - k] * bq[k] * b2q[m + n - k]
            coeff /= (b2q[s] * qq[m - k] * qq[n - k] * qq[k] * qbq[m + n - k])
            coeff *= (1 - beta * q ** s) / (1 - beta)
            terms.append((coeff, s))
        sums.append(terms)

    def residuals(*values):     # the pairs' residuals at one point
        cn = dict(zip(degrees, values))
        out = []
        for m, n, terms in zip(ms, ns, sums):
            lhs = cn[m] * cn[n]
            acc = 0.0 + 0j
            for coeff, s in terms:
                acc += coeff * cn[s]
            out.append(abs(lhs - acc) / max(1.0, abs(lhs)))
        return out[0] if single else np.array(out)
    return pointwise(residuals, *values)

"""The q-ultraspherical weight and the library's integral evaluations:
classical orthogonality, the two-parameter kernel integral, the bilateral
delta integral, and shifted orthogonality of the bilateral family.

All integrals are taken over x in [-1, 1] against w(x) dx with the
substitution x = cos(theta), which absorbs the 1/sqrt(1-x^2) endpoint
factor exactly:  (1/2pi) int_-1^1 f w dx = (1/2pi) int_0^pi f(cos t)
W(t) dt with W the weight without the square-root factor.  W extends to
an even 2pi-periodic analytic function that vanishes at t = 0, pi, so a
uniform trapezoid rule converges spectrally (Trefethen & Weideman, SIAM
Rev. 56, 2014).  One node loop, _refine, computes every integral here:
it sums the mass points described below once, then the 63 interior nodes
of the 64-interval rule, then only the midpoints of each doubled rule,
until two successive values agree.

The weight is the Askey-Wilson weight with parameters +-beta^{1/2},
+-(q beta)^{1/2}.  For beta <= 1 its measure is the circle part alone.
For beta > 1 the poles z^2 = beta q^k with beta q^k > 1 lie outside the
unit circle while their mirrors lie inside, and the full measure adds
one pair of mass points x = +-(u^{1/2} + u^{-1/2})/2 for every such
u = beta q^k (Askey & Wilson, Mem. AMS 319, 1985).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, PoleError, RegionError
from .hyperseries import UNILATERAL, SeriesSpec, eval_phi
from .qcore import (DEFAULT_POLICY, GROWTH_SLACK, INFINITY, SpectralPoint,
                    TruncationPolicy, check_real_base, is_q_power, poch,
                    poch_multi, poch_pm, poch_recip)
from .ultraspherical import (UltraParams, bilateral_cn, bilateral_cn_range,
                             classical_cn)

MAX_NODES = 2 ** 20


@dataclass(frozen=True)
class WeightParams:
    """Real weight parameters inside the positivity window
    -1 < beta < q^{-1/2} (real 0 < q < 1).

    The circle weight is positive on the whole window.  For
    1 < beta < q^{-1/2} the measure also carries one positive pair of mass
    points at x = +-(beta^{1/2} + beta^{-1/2})/2 (see mass_points)."""

    beta: float
    q: float

    def __post_init__(self):
        q = check_real_base(self.q)
        object.__setattr__(self, "q", q)
        beta = float(self.beta)
        object.__setattr__(self, "beta", beta)
        if not -1.0 < beta < q ** -0.5:
            raise DomainError(
                f"weight positivity window needs -1 < beta < q^(-1/2), got beta = {beta}")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    nodes_used: int
    last_refinement_delta: float


def _circle_weight(thetas, beta, q, policy: TruncationPolicy):
    """(e^{2it}, e^{-2it}; q)_inf / (beta e^{2it}, beta e^{-2it}; q)_inf
    on a theta array; real up to rounding by conjugate pairing."""
    z2 = np.exp(2j * np.asarray(thetas, dtype=float))
    num = poch(z2, q, INFINITY, policy) * poch(1.0 / z2, q, INFINITY, policy)
    den = poch(beta * z2, q, INFINITY, policy) * poch(beta / z2, q, INFINITY, policy)
    return num / den


def weight_value(theta: float, w: WeightParams,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The orthogonality weight at theta in (0, pi), including the
    1/sqrt(1-x^2) factor, x = cos(theta)."""
    theta = float(theta)
    if not 0.0 < theta < math.pi:
        raise DomainError("weight_value needs theta strictly inside (0, pi)")
    val = _circle_weight(np.array([theta]), w.beta, w.q, policy)[0] / math.sin(theta)
    if abs(val.imag) > 1e-12 * max(1.0, abs(val)):
        raise DomainError("weight evaluated with a non-negligible imaginary part")
    return val.real


def mass_points(beta: float, q: float,
                policy: TruncationPolicy = DEFAULT_POLICY):
    """Discrete part of the measure as (z, weight) arrays.

    For every k >= 0 with u_k = beta q^k > 1 the measure has mass
    m_k = (u_k, 1/u_k; q)_inf / ((beta u_k, q; q)_inf (q^{-k}; q)_k),
    split evenly between z = +sqrt(u_k) and z = -sqrt(u_k), i.e.
    x = +-(u_k^{1/2} + u_k^{-1/2})/2, on the same 1/2pi scale as the
    trapezoid part.  Both arrays are empty for beta <= 1.
    """
    zs, weights = [], []
    k = 0
    while beta * q ** k > 1.0:
        u = beta * q ** k
        m = (poch_multi([u, 1.0 / u], q, INFINITY, policy)
             / poch_multi([beta * u, q], q, INFINITY, policy)
             / poch(q ** -k, q, k)).real
        r = math.sqrt(u)
        zs += [r, -r]
        weights += [m / 2, m / 2]
        k += 1
    return np.array(zs, dtype=complex), np.array(weights, dtype=float)


def _refine(partial_sum, beta: float, q: float, tol: float,
            policy: TruncationPolicy) -> QuadratureResult:
    """The node-doubling loop.  partial_sum(sp, wts) returns the weighted
    sum of the integrand over the nodes sp; it is called once on the mass
    points, on the 63 interior nodes of the 64-interval rule, then on the
    midpoints of each doubled rule with the weights of the rule that level
    completes (the endpoint weights vanish, so no node is evaluated twice),
    until two successive values differ by < tol."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    mass_z, mass_w = mass_points(beta, q, policy)
    mass = partial_sum(SpectralPoint(mass_z), mass_w) if len(mass_z) else 0.0
    n, circle, value = 64, 0.0, math.inf
    thetas = math.pi / n * np.arange(1, n)
    while n <= MAX_NODES:
        # doubling the rule halves the weight of every node already summed
        wts = _circle_weight(thetas, beta, q, policy).real / (2 * n)
        circle = circle / 2 + partial_sum(SpectralPoint(np.exp(1j * thetas)), wts)
        # the first level's delta is infinite: it has no predecessor
        delta, value = abs(circle + mass - value), complex(circle + mass)
        if delta < tol:
            return QuadratureResult(value, n - 1 + len(mass_z), float(delta))
        thetas = math.pi / (2 * n) * np.arange(1, 2 * n, 2)
        n *= 2
    raise NonConvergence(
        f"quadrature did not reach tol = {tol} within {MAX_NODES} nodes")


def _eval_at(f, sp):
    """Evaluate an x-evaluator on an array SpectralPoint, preferring one
    vectorized call and falling back to a scalar loop."""
    try:
        vals = np.asarray(f(sp), dtype=complex)
        if vals.shape == sp.z.shape:
            return vals
    except TypeError:
        pass
    return np.array([complex(f(SpectralPoint(complex(z)))) for z in sp.z],
                    dtype=complex)


def integrate(f, w: WeightParams, tol: float,
              policy: TruncationPolicy = DEFAULT_POLICY) -> QuadratureResult:
    """(1/2pi) int_-1^1 f(x) w(x) dx over the full measure.

    The theta-substituted trapezoid rule starts from 63 interior nodes
    plus the mass points of the measure (beta > 1) and doubles the
    interval count, adding only the midpoints, until successive values
    differ by < tol.  f takes a SpectralPoint; a vectorized f is called
    once per level."""
    return _refine(lambda sp, wts: np.sum(_eval_at(f, sp) * wts),
                   w.beta, w.q, tol, policy)


def orthogonality_quadrature(m: int, n: int, w: WeightParams, tol: float = 1e-10,
                             policy: TruncationPolicy = DEFAULT_POLICY
                             ) -> QuadratureResult:
    """Integral of C_m C_n against the weight; its value equals
    delta_{mn} times orthogonality_diagonal(n, w)."""
    if m < 0 or n < 0:
        raise DomainError("orthogonality_entry needs m, n >= 0")

    def f(sp):
        return classical_cn(m, sp, w.beta, w.q) * classical_cn(n, sp, w.beta, w.q)

    return integrate(f, w, tol, policy)


def orthogonality_entry(m: int, n: int, w: WeightParams, tol: float = 1e-10,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The value of orthogonality_quadrature."""
    return orthogonality_quadrature(m, n, w, tol, policy).value


def orthogonality_diagonal(n: int, w: WeightParams,
                           policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Closed form of the diagonal entry:
    (beta, q beta; q)_inf/(q, beta^2; q)_inf (beta^2; q)_n/(q; q)_n
    (1-beta)/(1-beta q^n)."""
    beta, q = w.beta, w.q
    head = (poch_multi([beta, q * beta], q, INFINITY, policy)
            / poch_multi([q, beta ** 2], q, INFINITY, policy))
    head *= poch(beta ** 2, q, n) * poch_recip(q, q, n)
    head *= (1 - beta) / (1 - beta * q ** n)
    return head.real


def kernel_quadrature(t1, t2, w: WeightParams, tol: float = 1e-10,
                      policy: TruncationPolicy = DEFAULT_POLICY
                      ) -> QuadratureResult:
    """(1/2pi) int (beta t1 e^{+-it}, beta t2 e^{+-it}; q)_inf /
    (t1 e^{+-it}, t2 e^{+-it}; q)_inf w(x) dx for |t1|, |t2| < 1; its
    value equals kernel_integral_rhs(t1, t2, w)."""
    t1, t2 = complex(t1), complex(t2)
    if not (abs(t1) < 1 and abs(t2) < 1):
        raise RegionError("kernel integral requires |t1| < 1 and |t2| < 1")
    beta, q = w.beta, w.q

    def f(sp):
        num = poch_pm(beta * t1, sp, q, policy) * poch_pm(beta * t2, sp, q, policy)
        den = poch_pm(t1, sp, q, policy) * poch_pm(t2, sp, q, policy)
        return num / den

    return integrate(f, w, tol, policy)


def kernel_integral(t1, t2, w: WeightParams, tol: float = 1e-10,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The value of kernel_quadrature."""
    return kernel_quadrature(t1, t2, w, tol, policy).value


def kernel_integral_rhs(t1, t2, w: WeightParams,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """(beta, q beta; q)_inf/(q, beta^2; q)_inf  2phi1(beta^2, beta; q beta; q, t1 t2)."""
    beta, q = w.beta, w.q
    pref = (poch_multi([beta, q * beta], q, INFINITY, policy)
            / poch_multi([q, beta ** 2], q, INFINITY, policy))
    spec = SeriesSpec(UNILATERAL, (beta ** 2, beta), (q * beta,), q,
                      complex(t1) * complex(t2))
    return pref * eval_phi(spec, policy)


def bilateral_delta_quadrature(n: int, beta: float, q: float,
                               tol: float = 1e-9,
                               policy: TruncationPolicy = DEFAULT_POLICY
                               ) -> QuadratureResult:
    """(1/2pi) int C_n(x; beta^2, 1/beta | q) w(x | beta) dx.

    Its value equals bilateral_delta_rhs(beta, q) times delta_{n,0} for
    beta > sqrt(q), away from the points where (beta^2; q)_inf vanishes.
    The bilateral family parameters are (beta^2, 1/beta); the weight
    parameter is beta itself, taken without the positivity window, so
    beta >= q^{-1/2} is allowed too.  For beta > 1 the integral is over
    the full measure, including mass_points(beta, q), without which the
    identity fails.
    """
    q = check_real_base(q)
    beta = float(beta)
    if beta <= 0:
        raise DomainError("beta must be positive")
    if not q < beta ** 2:
        raise RegionError(
            "the integrand family needs |q/beta^2| < 1 on the unit circle")
    params = UltraParams(beta ** 2, 1.0 / beta, q)

    def f(sp):
        return bilateral_cn(n, sp, params, policy).value

    # bypass the WeightParams window check: beta may exceed q^{-1/2}
    return _refine(lambda sp, wts: np.sum(_eval_at(f, sp) * wts),
                   beta, q, tol, policy)


def bilateral_delta_integral(n: int, beta: float, q: float,
                             tol: float = 1e-9,
                             policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The value of bilateral_delta_quadrature."""
    return bilateral_delta_quadrature(n, beta, q, tol, policy).value


def bilateral_delta_rhs(beta: float, q: float,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """(q; q)_inf^2 (beta, q/beta^2; q)_inf / ((q/beta; q)_inf^3
    (beta^2; q)_inf).  Raises PoleError where a denominator product
    vanishes: beta^2 = q^{-j} or q/beta = q^{-j} with j >= 0."""
    q = check_real_base(q)
    beta = float(beta)
    for name, a in (("beta^2", beta ** 2), ("q/beta", q / beta)):
        j = is_q_power(a, q)
        if j is not None and j <= 0:
            raise PoleError(f"({name}; q)_inf vanishes at {name} = q^{j}")
    num = poch(q, q, INFINITY, policy) ** 2 * poch_multi(
        [beta, q / beta ** 2], q, INFINITY, policy)
    den = poch(q / beta, q, INFINITY, policy) ** 3 * poch(
        beta ** 2, q, INFINITY, policy)
    return num / den


def shifted_orthogonality_rhs(params: UltraParams,
                              policy: TruncationPolicy = DEFAULT_POLICY,
                              n: int = 0) -> complex:
    """The (n, n) value of the shifted-orthogonality closed form:
    (q; q)^3 (q/b; q)^4 (b, qb; q) / ((q g; q)^4 (q/(b g); q)^4 (b^2; q))
    2phi1(b^2, b; q b; q, q/(b^2 g)) (b^2 g / q)^n, all products to
    infinity.  For real parameters the factor (b^2 g / q)^n is a float
    power, so rhs(n) == rhs(0) * (b^2 g / q)^n holds exactly."""
    q, beta, gamma = params.q, params.beta, params.gamma
    rho = q / (beta ** 2 * gamma)
    pref = (poch(q, q, INFINITY, policy) ** 3
            * poch(q / beta, q, INFINITY, policy) ** 4
            * poch_multi([beta, q * beta], q, INFINITY, policy))
    pref /= (poch(q * gamma, q, INFINITY, policy) ** 4
             * poch(q / (beta * gamma), q, INFINITY, policy) ** 4
             * poch(beta ** 2, q, INFINITY, policy))
    spec = SeriesSpec(UNILATERAL, (beta ** 2, beta), (q * beta,), q, rho)
    if beta.imag or gamma.imag or q.imag:
        scale = beta ** 2 * gamma / q
    else:  # complex powers round differently from float ones
        scale = beta.real ** 2 * gamma.real / q.real
    return pref * eval_phi(spec, policy) * scale ** n


#: shells of C_j rows computed beyond the last shell the loop is expected to need
_SHELL_MARGIN = 2


def shifted_orthogonality_quadrature(m: int, n: int, params: UltraParams,
                                     tol: float = 1e-6,
                                     policy: TruncationPolicy = DEFAULT_POLICY,
                                     k_extra: int = 0):
    """lhs and rhs of the shifted orthogonality relation, the lhs as a
    QuadratureResult.

    lhs = (1/2pi) int sum_k C_{m+k} C_{n+k} (q/(beta^2 gamma))^k w dx over
    the full measure, by the module's node loop (mass points, 63 nodes,
    then midpoints) to tol * max(1, |rhs|) / 4.  On each set of nodes the
    k-sum adds shells +-k until two in a row contribute at most
    tol * max(1, |sum|) / 64, and not before the shell count of the
    previous set; k_extra forces extra shells beyond acceptance (used to
    check split independence).  The C_j of a node set come from one
    bilateral_cn_range pass over j = min(m, n) - K .. max(m, n) + K, with
    K the previous set's shell count plus k_extra and a margin; a shell k
    beyond it adds the rows up to shell 2k that the set lacks, so each
    C_j is evaluated once per node set.  8 tail_window shells in a row
    whose contribution grows (by more than GROWTH_SLACK) raise
    NonConvergence: the shells need not decay where |q/(beta^2 gamma)| < 1
    alone admits the parameters.

    rhs = shifted_orthogonality_rhs(params, policy, n) * delta_{mn}.
    """
    q = check_real_base(params.q)
    if params.beta.imag or params.gamma.imag:
        raise DomainError("shifted orthogonality uses real beta, gamma")
    beta, gamma = params.beta.real, params.gamma.real
    WeightParams(beta, q)  # positivity window check
    rho = q / (beta ** 2 * gamma)
    if not abs(rho) < 1:
        raise RegionError("shifted orthogonality needs |q/(beta^2 gamma)| < 1")
    rhs = shifted_orthogonality_rhs(params, policy, n) if m == n else 0j
    lo, hi = min(m, n), max(m, n)
    kmin = 8

    def partial_sum(sp, wts):
        nonlocal kmin
        reach = kmin + k_extra + _SHELL_MARGIN
        rows = bilateral_cn_range(lo - reach, hi + reach, sp, params, policy)

        def shell_integral(k):
            nonlocal rows
            if lo - k < rows.n_lo or hi + k > rows.n_hi:
                rows = rows.widened(lo - 2 * k, hi + 2 * k)
            vals = rows[m + k] * rows[n + k] * rho ** k
            if k != 0:
                vals = vals + rows[m - k] * rows[n - k] * rho ** (-k)
            return complex(np.sum(vals * wts))

        total = shell_integral(0)
        small = growth = 0
        prev = math.inf
        k = 0
        while True:
            k += 1
            contrib = shell_integral(k)
            total += contrib
            mag = abs(contrib)
            growth = growth + 1 if mag > prev * GROWTH_SLACK else 0
            if growth >= 8 * policy.tail_window:
                raise NonConvergence("shifted-orthogonality shells failed to decay")
            prev = mag
            if mag <= tol * max(1.0, abs(total)) / 64.0:
                small += 1
                if small >= 2 and k >= kmin:
                    break
            else:
                small = 0
            if k > policy.max_terms:
                raise NonConvergence("shifted-orthogonality shells failed to decay")
        for _ in range(k_extra):
            k += 1
            total += shell_integral(k)
        kmin = k
        return total

    lhs = _refine(partial_sum, beta, q, tol * max(1.0, abs(rhs)) / 4.0, policy)
    return lhs, complex(rhs)


def shifted_orthogonality_pair(m: int, n: int, params: UltraParams,
                               tol: float = 1e-6,
                               policy: TruncationPolicy = DEFAULT_POLICY,
                               k_extra: int = 0):
    """(lhs value, rhs) of shifted_orthogonality_quadrature."""
    lhs, rhs = shifted_orthogonality_quadrature(m, n, params, tol, policy, k_extra)
    return lhs.value, rhs

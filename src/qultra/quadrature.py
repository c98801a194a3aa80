"""The q-ultraspherical weight and the library's integral evaluations:
classical orthogonality, the two-parameter kernel integral, the bilateral
delta integral, and shifted orthogonality of the bilateral family.

All integrals are taken over x in [-1, 1] against w(x) dx with the
substitution x = cos(theta), which absorbs the 1/sqrt(1-x^2) endpoint
factor exactly:  (1/2pi) int_-1^1 f w dx = (1/2pi) int_0^pi f(cos t)
W(t) dt with W the weight without the square-root factor.  W extends to
an even 2pi-periodic analytic function that vanishes at t = 0, pi, so a
trapezoid rule converges spectrally, like exp(-2 N d) on N intervals,
with d the distance from the real t axis of the integrand's nearest
singular point (Trefethen & Weideman, SIAM Rev. 56, 2014).  For real
parameters those points sit over t = 0 and pi: the weight's poles and
the singular points of the C_n being integrated.  So the rule is the
trapezoid rule in phi, t = phi - (a/2) sin 2phi (A. Sidi, ISNM 112,
1993), which clusters the nodes at t = 0 and pi; a follows from the
closed-form singular points (_map_strength), and a = 0 gives the uniform
rule in t.  One node loop, _refine, computes every integral here: it sums
the mass points described below once, then the 63 interior nodes of the
64-interval rule, then only the midpoints of each doubled rule, until two
successive values agree.

orthogonality_entry and shifted_orthogonality_pair also take m and n as
equal-length integer sequences, and bilateral_delta_integral takes n as
an integer sequence; each returns .value (and the shifted rhs) as an
array over the pairs or the n.  All integrals of one call run on one node
loop, which stops when every delta is below that integral's tolerance,
and every function an integral needs is evaluated once per node set: one
classical_cn per distinct degree, one bilateral_cn per n, or one
bilateral_cn_range pass per shell family over the union of the pairs' C_j
rows.  This is the node reuse of the nested rule, applied across the
integrals of a relation as well as across its levels.  The shifted pair's
k-sum runs upward in two families, by the symmetry of C_n, one array pass
per run of shells that a family's rows cover, once closed-form shell rates
have shown that it converges.

The weight is the Askey-Wilson weight with parameters +-beta^{1/2},
+-(q beta)^{1/2}.  For beta <= 1 its measure is the circle part alone.
For beta > 1 the poles z^2 = beta q^k with beta q^k > 1 lie outside the
unit circle while their mirrors lie inside, and the full measure adds
one pair of mass points x = +-(u^{1/2} + u^{-1/2})/2 for every such
u = beta q^k (Askey & Wilson, Mem. AMS 319, 1985).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, RegionError
from .hyperseries import UNILATERAL, SeriesSpec, sum_phi
from .qcore import (DEFAULT_POLICY, INFINITY, SpectralPoint,
                    TruncationPolicy, check_real_base, check_vanishing, finite,
                    index, indices, poch, poch_multi, poch_pm, poch_quotient,
                    power)
from .ultraspherical import (UltraParams, bilateral_cn, bilateral_cn_range,
                             classical_cn, symmetry_params)

MAX_NODES = 2 ** 20


def _real_beta(beta) -> float:
    """beta as a float; DomainError where its imaginary part is nonzero."""
    beta = complex(beta)
    if beta.imag:
        raise DomainError(f"weight needs real beta, got {beta}")
    return beta.real


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
        beta = _real_beta(self.beta)
        object.__setattr__(self, "beta", beta)
        if not -1.0 < beta < q ** -0.5:
            raise DomainError(
                f"weight positivity window needs -1 < beta < q^(-1/2), got beta = {beta}")


@dataclass(frozen=True)
class QuadratureResult:
    """One integral, or (value and last_refinement_delta as arrays) the
    integrals of one node loop over several integrands; nodes_used counts
    the nodes of the last level the loop summed, mass points included."""

    value: complex
    nodes_used: int
    last_refinement_delta: float


def _circle_weight(thetas, beta, q, policy: TruncationPolicy):
    """(e^{2it}, e^{-2it}; q)_inf / (beta e^{2it}, beta e^{-2it}; q)_inf
    on a theta array, as the real |(e^{2it}; q)_inf / (beta e^{2it};
    q)_inf|^2: for real q and beta the e^{-2it} products are the complex
    conjugates of the e^{2it} ones, so two products do the work of four."""
    z2 = np.exp(2j * np.asarray(thetas, dtype=float))
    return np.abs(poch(z2, q, INFINITY, policy)
                  / poch(beta * z2, q, INFINITY, policy)) ** 2


def weight_value(theta: float, w: WeightParams,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The orthogonality weight at theta in (0, pi), including the
    1/sqrt(1-x^2) factor, x = cos(theta)."""
    theta = float(theta)
    if not 0.0 < theta < math.pi:
        raise DomainError("weight_value needs theta strictly inside (0, pi)")
    return float(_circle_weight(np.array([theta]), w.beta, w.q, policy)[0]
                 / math.sin(theta))


def mass_points(beta: float, q: float,
                policy: TruncationPolicy = DEFAULT_POLICY):
    """Discrete part of the measure as (z, weight) arrays.

    For every k >= 0 with u_k = beta q^k > 1 the measure has mass
    m_k = (u_k, 1/u_k; q)_inf / ((beta u_k, q; q)_inf (q^{-k}; q)_k),
    split evenly between z = +sqrt(u_k) and z = -sqrt(u_k), i.e.
    x = +-(u_k^{1/2} + u_k^{-1/2})/2, on the same 1/2pi scale as the
    trapezoid part.  Both arrays are empty for beta <= 1.  beta and q
    must be real (DomainError otherwise), 0 < q < 1; PoleError where
    (beta u_k; q)_inf vanishes.
    """
    q = check_real_base(q)
    beta = _real_beta(beta)
    zs, weights = [], []
    k = 0
    while (u := beta * q ** k) > 1.0:
        m = (poch_quotient([u, 1.0 / u], {f"beta u_{k}": beta * u, "q": q}, q, policy)
             / poch(q ** -k, q, k)).real
        r = math.sqrt(u)
        zs += [r, -r]
        weights += [m / 2, m / 2]
        k += 1
    return np.array(zs, dtype=complex), np.array(weights, dtype=float)


def _check_tol(tol) -> None:
    """DomainError unless every tolerance is positive (NaN is not)."""
    if not np.all(np.asarray(tol) > 0):
        raise DomainError(f"tol must be positive, got {tol}")


def _axis_distance(x0: float, step: float) -> float:
    """min over k >= 0 of |x0 + k step| / 2: how far from the real theta
    axis the nearest of the points z^2 = e^{x0 + k step} lies.  Each lies
    over theta = 0 (and its images over pi), at Im theta = -(x0 + k step)/2."""
    k = max(0.0, math.floor(-x0 / step))
    return min(abs(x0 + k * step), abs(x0 + (k + 1) * step)) / 2


def _map_strength(beta: float, q: float, family=None) -> float:
    """The a of the map theta = phi - (a/2) sin 2phi, from d, the distance
    from the real theta axis of the nearest singular point over theta = 0
    or pi: the weight's poles beta q^k e^{+-2i theta} = 1 (beta > 0), and,
    given a family parameter beta_f > 0, the singular points z^2 =
    q^{k+1}/beta_f and beta_f q^{-k-1} of its C_n.  1 - a = d^{2/3}
    balances the map's stretch near theta = 0 against how far it moves the
    singular point from the axis; a = 0 where d >= 1 or no point lies
    there (beta <= 0 puts the weight's poles over pi/2)."""
    d = math.inf
    if beta > 0:
        d = _axis_distance(math.log(beta), math.log(q))
    if family is not None and family > 0:
        d = min(d, _axis_distance(math.log(family / q), -math.log(q)))
    return max(0.0, 1.0 - d ** (2 / 3))


def _refine(partial_sum, beta: float, q: float, tol,
            policy: TruncationPolicy, family=None) -> QuadratureResult:
    """The node-doubling loop.  partial_sum(sp, wts) returns the weighted
    sum of the integrand over the nodes sp: a scalar, or one sum per
    integral when tol is an array of one tolerance per integral.  It is
    called once on the mass points, on the 63 interior nodes of the
    64-interval rule, then on the midpoints of each doubled rule with the
    weights of the rule that level completes (the endpoint weights vanish,
    so no node is evaluated twice), until every integral's two successive
    values differ by less than its tolerance.

    The rule is the trapezoid rule in phi, theta = phi - (a/2) sin 2phi,
    with each weight times theta'(phi) = 1 - a cos 2phi.  a comes from the
    weight's poles and, given family = beta_f, from the singular points of
    the integrand family C_n(.; beta_f, .) (_map_strength): the map
    clusters the nodes at theta = 0 and pi, where those points sit close
    to the axis.  With a = 0 it is the uniform rule in theta, bit for
    bit."""
    _check_tol(tol)
    a = _map_strength(beta, q, family)
    mass_z, mass_w = mass_points(beta, q, policy)
    mass = partial_sum(SpectralPoint(mass_z), mass_w) if len(mass_z) else 0.0
    n, circle, value = 64, 0.0, math.inf
    phis = math.pi / n * np.arange(1, n)
    while n <= MAX_NODES:
        thetas = phis - a / 2 * np.sin(2 * phis)
        # doubling the rule halves the weight of every node already summed
        wts = (_circle_weight(thetas, beta, q, policy)
               * (1 - a * np.cos(2 * phis)) / (2 * n))
        circle = circle / 2 + partial_sum(SpectralPoint(np.exp(1j * thetas)), wts)
        # the first level's delta is infinite: it has no predecessor
        delta, value = np.abs(circle + mass - value), circle + mass
        if np.all(delta < tol):
            if np.ndim(value) == 0:
                value, delta = complex(value), float(delta)
            return QuadratureResult(value, n - 1 + len(mass_z), delta)
        phis = math.pi / (2 * n) * np.arange(1, 2 * n, 2)
        n *= 2
    raise NonConvergence(
        f"quadrature did not reach tol = {tol} within {MAX_NODES} nodes")


def _node_sums(f):
    """The partial sums _refine takes for an integrand f: f on an array
    SpectralPoint is a complex array whose last axis runs over the nodes,
    one row per integral or a single row, summed against the weights along
    that axis.  A result without the nodes' shape (a constant f)
    broadcasts over them; one that does not broadcast raises DomainError."""
    def partial_sum(sp, wts):
        vals = np.asarray(f(sp), dtype=complex)
        try:
            return np.sum(vals * wts, axis=-1)     # wts has the nodes' shape
        except ValueError:
            raise DomainError(f"integrand gave shape {vals.shape} "
                              f"on {sp.z.shape} nodes") from None

    return partial_sum


def integrate(f, w: WeightParams, tol: float,
              policy: TruncationPolicy = DEFAULT_POLICY) -> QuadratureResult:
    """(1/2pi) int_-1^1 f(x) w(x) dx over the full measure.

    The node loop of _refine, its rule mapped by the weight's poles,
    starts from 63 interior nodes plus the mass points of the measure
    (beta > 1) and doubles the interval count, adding only the
    midpoints, until successive values differ by < tol.  f takes a
    SpectralPoint whose z is an array of nodes: it is called once on the
    mass points and once per level.  An f that returns one row of the
    nodes' shape per integrand computes all of them on the one node loop:
    .value and .last_refinement_delta are then arrays over the rows, and
    the loop runs until every row meets tol."""
    return _refine(_node_sums(f), w.beta, w.q, tol, policy)


def orthogonality_entry(m, n, w: WeightParams, tol: float = 1e-10,
                        policy: TruncationPolicy = DEFAULT_POLICY
                        ) -> QuadratureResult:
    """Integral of C_m C_n against the weight; its .value is
    delta_{mn} times orthogonality_diagonal(n, w).

    m and n may be equal-length integer sequences: the pairs (m[i], n[i])
    then share one node loop, which evaluates each distinct degree once
    per node set, and .value is an array over the pairs."""
    ms, ns, single = indices(m, n, least=0, what="orthogonality_entry needs m, n")

    def f(sp):
        cn = {d: classical_cn(d, sp, w.beta, w.q) for d in {*ms, *ns}}
        rows = [cn[a] * cn[b] for a, b in zip(ms, ns)]
        return rows[0] if single else rows

    return integrate(f, w, tol, policy)


def _total_mass(beta, q, policy: TruncationPolicy):
    """(beta, q beta; q)_inf / (q, beta^2; q)_inf, the total mass of w;
    PoleError where (beta^2; q)_inf vanishes."""
    return poch_quotient([beta, q * beta], {"q": q, "beta^2": beta ** 2}, q, policy)


def orthogonality_diagonal(n: int, w: WeightParams,
                           policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Closed form of the diagonal entry:
    (beta, q beta; q)_inf/(q, beta^2; q)_inf (beta^2; q)_n/(q; q)_n
    (1-beta)/(1-beta q^n)."""
    beta, q, n = w.beta, w.q, index(n, 0, "orthogonality_diagonal needs n")
    head = _total_mass(beta, q, policy)
    head *= poch(beta ** 2, q, n) / poch(q, q, n)
    head *= (1 - beta) / (1 - beta * q ** n)
    return head.real


def kernel_integral(t1, t2, w: WeightParams, tol: float = 1e-10,
                    policy: TruncationPolicy = DEFAULT_POLICY
                    ) -> QuadratureResult:
    """(1/2pi) int (beta t1 e^{+-it}, beta t2 e^{+-it}; q)_inf /
    (t1 e^{+-it}, t2 e^{+-it}; q)_inf w(x) dx for |t1|, |t2| < 1; its
    .value is kernel_integral_rhs(t1, t2, w)."""
    t1, t2 = complex(t1), complex(t2)
    if not (abs(t1) < 1 and abs(t2) < 1):
        raise RegionError("kernel integral requires |t1| < 1 and |t2| < 1")
    beta, q = w.beta, w.q

    def f(sp):
        num = poch_pm(beta * t1, sp, q, policy) * poch_pm(beta * t2, sp, q, policy)
        den = poch_pm(t1, sp, q, policy) * poch_pm(t2, sp, q, policy)
        return num / den

    return integrate(f, w, tol, policy)


def kernel_integral_rhs(t1, t2, w: WeightParams,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """(beta, q beta; q)_inf/(q, beta^2; q)_inf  2phi1(beta^2, beta; q beta; q, t1 t2)."""
    beta, q = w.beta, w.q
    pref = _total_mass(beta, q, policy)
    spec = SeriesSpec(UNILATERAL, (beta ** 2, beta), (q * beta,), q,
                      complex(t1) * complex(t2))
    return pref * sum_phi(spec, policy)[0]


def bilateral_delta_integral(n, beta: float, q: float,
                             tol: float = 1e-9,
                             policy: TruncationPolicy = DEFAULT_POLICY
                             ) -> QuadratureResult:
    """(1/2pi) int C_n(x; beta^2, 1/beta | q) w(x | beta) dx.

    Its .value is bilateral_delta_rhs(beta, q) times delta_{n,0} for
    beta > sqrt(q), away from the points where (beta^2; q)_inf vanishes.
    The bilateral family parameters are (beta^2, 1/beta); the weight
    parameter is beta itself, taken without the positivity window, so
    beta >= q^{-1/2} is allowed too.  For beta > 1 the integral is over
    the full measure, including mass_points(beta, q), without which the
    identity fails.

    n may be a nonempty integer sequence: its integrals then share one
    node loop, whose mass points and weights are computed once per level
    for all of them, and which runs until every n meets tol; .value and
    .last_refinement_delta are arrays over n.  An n whose integral alone
    would stop at an earlier level is refined to the last level any n
    needs.
    """
    ns, single = indices(n)
    q = check_real_base(q)
    beta = _real_beta(beta)
    if beta <= 0:
        raise DomainError("beta must be positive")
    if not q < beta ** 2:
        raise RegionError(
            "the integrand family needs |q/beta^2| < 1 on the unit circle")
    params = UltraParams(beta ** 2, 1.0 / beta, q)

    def f(sp):
        rows = [bilateral_cn(k, sp, params, policy).value for k in ns]
        return rows[0] if single else rows

    # bypass the WeightParams window check: beta may exceed q^{-1/2}
    return _refine(_node_sums(f), beta, q, tol, policy, family=beta ** 2)


def bilateral_delta_rhs(beta: float, q: float,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """(q; q)_inf^2 (beta, q/beta^2; q)_inf / ((q/beta; q)_inf^3
    (beta^2; q)_inf).  Raises PoleError where a denominator product
    vanishes: beta^2 = q^{-j} or q/beta = q^{-j} with j >= 0."""
    q = check_real_base(q)
    beta = _real_beta(beta)
    check_vanishing({"beta^2": beta ** 2, "q/beta": q / beta}, q)
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
    power, so rhs(n) == rhs(0) * (b^2 g / q)^n holds exactly.  RegionError
    unless |q/(b^2 g)| < 1, the relation's hypothesis; PoleError where a
    denominator product vanishes: q g, q/(b g) or b^2 = q^{-j}, j >= 0."""
    q, beta, gamma, n = params.q, params.beta, params.gamma, index(n)
    rho = q / (beta ** 2 * gamma)
    if not abs(rho) < 1:
        raise RegionError("shifted orthogonality needs |q/(beta^2 gamma)| < 1")
    check_vanishing({"q gamma": q * gamma, "q/(beta gamma)": q / (beta * gamma),
                     "beta^2": beta ** 2}, q)
    pref = (power(poch(q, q, INFINITY, policy), 3, "(q; q)^3")
            * power(poch(q / beta, q, INFINITY, policy), 4, "(q/b; q)^4")
            * poch_multi([beta, q * beta], q, INFINITY, policy))
    pref /= (power(poch(q * gamma, q, INFINITY, policy), 4, "(q g; q)^4")
             * power(poch(q / (beta * gamma), q, INFINITY, policy), 4, "(q/(b g); q)^4")
             * poch(beta ** 2, q, INFINITY, policy))
    spec = SeriesSpec(UNILATERAL, (beta ** 2, beta), (q * beta,), q, rho)
    return pref * sum_phi(spec, policy)[0] * _shifted_scale(params, n)


def _shifted_scale(params: UltraParams, n: int):
    """(beta^2 gamma / q)^n by qcore.power, the base a float for real
    parameters: complex powers round differently from float ones."""
    q, beta, gamma = params.q, params.beta, params.gamma
    if not (beta.imag or gamma.imag or q.imag):
        q, beta, gamma = q.real, beta.real, gamma.real
    return power(beta ** 2 * gamma / q, n, "(beta^2 gamma/q)^n")


#: shells of C_j rows computed beyond the last shell the loop is expected to need
_SHELL_MARGIN = 2
#: rows a widening adds past shell 2k - K, so that a node set's first scan,
#: from K = 8 shells, reaches the 40-odd shells of the defaults in one widening
_WIDEN_ROWS = 32


def shifted_orthogonality_pair(m, n, params: UltraParams,
                               tol: float = 1e-6,
                               policy: TruncationPolicy = DEFAULT_POLICY):
    """lhs and rhs of the shifted orthogonality relation, the lhs as a
    QuadratureResult.

    lhs = (1/2pi) int sum_k C_{m+k} C_{n+k} rho^k w dx, rho = q/(beta^2
    gamma), over the full measure, by the module's node loop to tol *
    max(1, |rhs|) / 4.  By the symmetry C_{-j}(beta, gamma) = (q/beta)^j
    C'_j, C' = C(.; beta, 1/(beta gamma)), shell k contributes u_k +
    (beta/q)^{m+n} d_k: u_k the weighted node sum of C_{m+k} C_{n+k} rho^k,
    and d_k (d_0 = 0) that of C'_{k-m} C'_{k-n} (q gamma)^k.  So both
    families run upward, and no weight leaves the double range.  On each
    node set the k-sum adds shells until two in a row contribute at most
    tol * max(1, |sum|) / 64, and not before the shell count K of the
    previous set.  Each family's rows come from one bilateral_cn_range pass
    up to shell K plus a margin, widened upward to shell 2k - K +
    _WIDEN_ROWS by a shell k beyond them, so each C_j is evaluated once per
    node set and family.  Each run of shells that the rows cover is one
    array pass, in the order of a lone shell's operations, and the scan
    adds the shells in order, bit for bit a shell-by-shell loop.  Before
    any row, NonConvergence names the shells' largest limiting ratio if it
    is at least 1: |q gamma| (d_k) on the unit circle and, for beta > 1,
    |q/(beta gamma)| (u_k) and |q beta gamma| (d_k) at the mass point
    sqrt(beta), where |C_j| grows like u^{j/2} (|rho| < 1, for u_k on the
    circle, is the hypothesis).  A non-finite shell raises NonConvergence.
    rhs = shifted_orthogonality_rhs(params, policy, n) * delta_{mn}.

    m and n may be equal-length integer sequences: the pairs share the
    node loop, which runs until each meets its own tolerance, a family's
    pass spans the union of their rows, and each pair keeps its own stop
    rule and shell count; lhs.value, .last_refinement_delta and rhs are
    then arrays over the pairs.
    """
    _check_tol(tol)
    ms, ns, single = indices(m, n)
    q = check_real_base(params.q)
    if params.beta.imag or params.gamma.imag:
        raise DomainError("shifted orthogonality uses real beta, gamma")
    beta, gamma = params.beta.real, params.gamma.real
    WeightParams(beta, q)  # positivity window check
    rho = q / (beta ** 2 * gamma)
    head = shifted_orthogonality_rhs(params, policy)     # checks |rho| < 1
    rhs = [complex(head * _shifted_scale(params, b) if a == b else 0j)
           for a, b in zip(ms, ns)]
    rates = {"|q gamma|": abs(q * gamma)}
    if beta > 1:
        rates.update({"|q/(beta gamma)|": abs(q / (beta * gamma)),
                      "|q beta gamma|": abs(q * beta * gamma)})
    name = max(rates, key=rates.get)
    if rates[name] >= 1:
        raise NonConvergence(f"shifted-orthogonality shells failed to decay: "
                             f"{name} = {rates[name]:.3g} >= 1")
    kmin = [8] * len(ms)
    scales = [power(beta / q, a + b, "(beta/q)^(m+n)") for a, b in zip(ms, ns)]
    # (params, weight, first shell, sign of the pair's row indices)
    families = ((params, rho, 0, 1), (symmetry_params(params), q * gamma, 1, -1))

    def partial_sum(sp, wts):
        rows = [bilateral_cn_range(
            min(min(s * a, s * b) for a, b in zip(ms, ns)) + first,
            max(max(s * a, s * b) + k for a, b, k in zip(ms, ns, kmin)) + _SHELL_MARGIN,
            sp, fam, policy) for fam, _, first, s in families]

        def family(i, a, b, k0):
            """The weighted node sums of rows a + k and b + k of family i
            times its weight^k, from its first shell on, as Python complex
            numbers, one array pass per run of shells that the rows cover;
            k0 is the pair's shell count on the previous node set."""
            _, weight, k, _ = families[i]
            while True:
                if max(a, b) + k > rows[i].n_hi:
                    rows[i] = rows[i].widened(rows[i].n_lo,
                                              max(a, b) + 2 * k - k0 + _WIDEN_ROWS)
                v, lo = rows[i].values, rows[i].n_lo
                top = rows[i].n_hi - max(a, b)
                # each shell's elementwise operations in the order of a
                # single shell; shells past the stop may overflow unseen
                with np.errstate(over="ignore", invalid="ignore"):
                    vals = (v[a + k - lo:a + top + 1 - lo] * v[b + k - lo:b + top + 1 - lo]
                            * np.array([weight ** j for j in range(k, top + 1)])[:, None])
                    yield from np.sum(vals * wts, axis=-1).tolist()
                k = top + 1

        totals = []
        for i, (m, n) in enumerate(zip(ms, ns)):
            total, small = 0j, 0
            down = itertools.chain([0j], family(1, -m, -n, kmin[i]))
            for k, (u, d) in enumerate(zip(family(0, m, n, kmin[i]), down)):
                contrib = finite(u + scales[i] * d, f"shifted-orthogonality shell {k}")
                total += contrib
                small = small + 1 if abs(contrib) <= tol * max(1.0, abs(total)) / 64.0 else 0
                if small >= 2 and k >= kmin[i]:
                    break
                if k > policy.max_terms:
                    raise NonConvergence("shifted-orthogonality shells failed to decay")
            kmin[i] = k
            totals.append(total)
        return totals[0] if single else np.array(totals)

    tols = np.array([tol * max(1.0, abs(r)) / 4.0 for r in rhs])
    lhs = _refine(partial_sum, beta, q, tols[0] if single else tols, policy, family=beta)
    return (lhs, rhs[0]) if single else (lhs, np.array(rhs))

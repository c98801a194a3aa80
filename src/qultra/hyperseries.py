"""Evaluation of unilateral (r_phi_s) and bilateral (r_psi_s) basic
hypergeometric series, closed-form summations, and residual checks of
2psi2 transformations.

Series are summed by term-ratio recursion: consecutive terms differ by a
ratio that is rational in q^k, so each term costs O(r + s) work.  The
backward (k -> -inf) recursion is expressed in the decaying power
v = q^{1-k}, which keeps every intermediate bounded.  Partial sums use
compensated accumulation because bilateral sums mix magnitudes across
the two tails.  A nonterminating tail stops after TAIL_WINDOW terms in a
row below rel_tol |partial sum| + _TAIL_FLOOR, and raises NonConvergence
after max_terms terms, 8 TAIL_WINDOW growing terms in a row, or a term or
partial sum that is not finite.  sum_psi and sum_phi return the value and
the number of terms summed.

One term loop, _psi_terms, sums every series: sum_psi checks a bilateral
series and calls it, and sum_phi calls it as the one-sided psi sum (the
k >= 0 half with q as an extra first lower parameter, whose factor
1/(q; q)_k makes every k < 0 term zero, and with no k < 0 steps).

closed_form gives the product side of a summation formula, and
transform_residual checks a 2psi2 transformation, Bailey's, that one
applied twice, or the very-well-poised 6psi8 form (Gasper & Rahman,
ch. 5), by summing both sides.  Every denominator product of a closed
form is first tested by qcore.check_vanishing, so that one that vanishes
raises PoleError naming it.  No evaluation of C_n uses the
transformations: ultraspherical continues by its pole expansion and
recurrence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, NonConvergence, PoleError, RegionError
from .qcore import (DEFAULT_POLICY, GROWTH_SLACK, INFINITY, TAIL_WINDOW,
                    TruncationPolicy, check_base, check_vanishing, is_q_power,
                    poch, poch_multi, poch_quotient)

UNILATERAL = "unilateral"
BILATERAL = "bilateral"

#: the tail rule's absolute floor: a tail whose sum cancels to about 0 must still stop
_TAIL_FLOOR = 1e-300


@dataclass(frozen=True)
class SeriesSpec:
    """An r_phi_s or r_psi_s series: parameters, base and argument."""

    kind: str
    upper: tuple
    lower: tuple
    q: complex
    z: complex

    def __post_init__(self):
        if self.kind not in (UNILATERAL, BILATERAL):
            raise DomainError(f"unknown series kind {self.kind!r}")
        object.__setattr__(self, "upper", tuple(complex(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in self.lower))
        object.__setattr__(self, "q", check_base(self.q))
        object.__setattr__(self, "z", complex(self.z))


def terminates_above(upper: Sequence[complex], q) -> int | None:
    """Smallest n >= 0 with some upper parameter equal to q^{-n}, or None."""
    best = None
    for a in upper:
        m = is_q_power(a, q)
        if m is not None and m <= 0 and (best is None or -m < best):
            best = -m
    return best


def terminates_below(lower: Sequence[complex], q) -> int | None:
    """Smallest m >= 0 with some lower parameter equal to q^{1+m}, or None."""
    best = None
    for b in lower:
        e = is_q_power(b, q)
        if e is not None and e >= 1 and (best is None or e - 1 < best):
            best = e - 1
    return best


def _psi_terms(upper, lower, q, z, n_top: int | None, m_bot: int | None,
               policy: TruncationPolicy):
    """The term loop of every psi and phi sum: (value, terms) of the
    bilateral series with these complex parameters, base and argument.

    It sums k = 1, 2, ... after the k = 0 term, up to k = n_top when that
    is not None and else until the tail stops (module docstring), then
    k = -1, -2, ... down to k = -m_bot in the same way.  The k >= 0 term
    ratio is prod(1 - a q^k) / prod(1 - b q^k) (-q^k)^{s - r} z, where a
    zero lower parameter gives the factor 1 + 0j and is skipped.  The
    k < 0 ratio is taken in the decaying power v = q^{1-k}, as
    prod(v - b) / prod(v - a) (-1)^{s - r} / z, and keeps every factor.
    Partial sums are Kahan-compensated."""
    rel_tol, floor, max_terms = policy.rel_tol, _TAIL_FLOOR, policy.max_terms
    d = len(lower) - len(upper)
    nonzero_lower = [b for b in lower if b != 0]
    sign = (-1.0) ** d
    s, c = 1.0 + 0j, 0j                  # the sum and its compensation
    terms = 1
    for ascending, stop in ((True, n_top), (False, m_bot)):
        t = 1.0 + 0j
        x = 1.0 + 0j if ascending else q  # q^k, or v = q^{1-k}
        below = growth = j = 0
        prev_mag = INFINITY
        while stop is None or j < stop:
            num = den = 1.0 + 0j
            if ascending:
                for a in upper:
                    num = num * (1.0 - a * x)
                for b in nonzero_lower:
                    f = 1.0 - b * x
                    if f == 0:
                        raise PoleError(f"lower parameter {b} hits the q^-k lattice")
                    den = den * f
                t = t * num / den * ((-1.0) * x) ** d * z
            else:
                for b in lower:
                    num = num * (x - b)
                for a in upper:
                    f = x - a
                    if f == 0:
                        raise PoleError(f"upper parameter {a} hits the q^k lattice")
                    den = den * f
                t = t * sign * num / den / z
            x = x * q
            j += 1
            if t == 0:
                break
            y = t - c
            acc = s + y
            c = (acc - s) - y
            s = acc
            if stop is not None:
                continue
            term_mag, sum_mag = abs(t), abs(s)
            if not (term_mag < INFINITY and sum_mag < INFINITY):
                raise NonConvergence("series term or partial sum is not finite")
            if term_mag > prev_mag * GROWTH_SLACK:
                growth += 1
                if growth >= 8 * TAIL_WINDOW:
                    raise NonConvergence(
                        "series terms grew for %d consecutive steps" % growth)
            else:
                growth = 0
            prev_mag = term_mag
            if term_mag <= rel_tol * sum_mag + floor:
                below += 1
                if below >= TAIL_WINDOW:
                    break
            else:
                below = 0
            if j >= max_terms:
                raise NonConvergence(
                    "series did not converge within %d terms" % max_terms)
        terms += j
    return s, terms


def _phi_region_check(spec: SeriesSpec, n_top: int | None) -> None:
    """Convergence region of a unilateral series; n_top is
    terminates_above(spec.upper, spec.q)."""
    r, s = len(spec.upper), len(spec.lower)
    if n_top is not None:
        return
    if r > s + 1:
        raise RegionError(f"nonterminating {r}phi{s} diverges for r > s + 1")
    if r == s + 1 and not abs(spec.z) < 1:
        raise RegionError(
            f"{r}phi{s} requires |z| < 1, got |z| = {abs(spec.z)}")


def sum_phi(spec: SeriesSpec, policy: TruncationPolicy = DEFAULT_POLICY):
    """Sum a unilateral r_phi_s series; returns (value, terms used).

    Terminating series are summed exactly to the terminating index, others
    until their tail stops (see the module docstring).  This is the k >= 0
    half of the psi sum with q as its first lower parameter (z = 0 is
    allowed).
    """
    if spec.kind != UNILATERAL:
        raise DomainError("sum_phi requires a unilateral spec")
    n_top = terminates_above(spec.upper, spec.q)
    _phi_region_check(spec, n_top)
    return _psi_terms(spec.upper, (spec.q,) + spec.lower, spec.q, spec.z,
                      n_top, 0, policy)


def _psi_region_check(upper, lower, z, n_top: int | None,
                      m_bot: int | None) -> None:
    """Convergence region of the bilateral series with these complex
    parameters and argument; n_top and m_bot are terminates_above(upper,
    q) and terminates_below(lower, q)."""
    if z == 0:
        raise DomainError("bilateral series require z != 0")
    r, s = len(upper), len(lower)
    if r > s and (n_top is None or m_bot is None):
        raise RegionError(f"nonterminating {r}psi{s} diverges for r > s")
    if r == s and n_top is None and not abs(z) < 1:
        raise RegionError(f"{r}psi{s} requires |z| < 1, got |z| = {abs(z)}")
    if r == s and m_bot is None:    # b_i / a_i pair up where a1..ar z underflows to 0
        den = math.prod(upper) * z
        ratio = abs(math.prod(lower) / den if den else math.prod(
            b / a if a else math.inf for a, b in zip(upper, lower)) / z)
        if not ratio < 1:
            raise RegionError(f"{r}psi{s} requires |b1..bs/(a1..ar z)| < 1, got {ratio}")


def sum_psi(spec: SeriesSpec, policy: TruncationPolicy = DEFAULT_POLICY):
    """Sum a bilateral r_psi_s series by two-sided accumulation, k >= 0
    and then k < 0, with independent tail control; returns (value, terms
    used).

    Zero lower parameters are allowed: their reciprocal factors are 1
    for every k, which is how very-well-poised 6psi8 specs with two
    trailing zero lower parameters are summed.
    """
    if spec.kind != BILATERAL:
        raise DomainError("sum_psi requires a bilateral spec")
    upper, lower, q, z = spec.upper, spec.lower, spec.q, spec.z
    n_top = terminates_above(upper, q)
    m_bot = terminates_below(lower, q)
    _psi_region_check(upper, lower, z, n_top, m_bot)
    return _psi_terms(upper, lower, q, z, n_top, m_bot, policy)


def _as_params(params, names: str):
    names = names.split()
    if len(params) != len(names):
        raise DomainError(
            f"expected {len(names)} parameters ({', '.join(names)}), got {len(params)}")
    return [complex(p) for p in params]


def closed_form(name: str, params: Sequence[complex], q,
                policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Right-hand-side product of a named summation formula; PoleError
    where a denominator product vanishes (check_vanishing).

    Names: q_binomial(a, z), q_gauss(a, b, c), ramanujan_1psi1(a, b, z),
    q_kummer_2psi2(a, b, c), bailey_3psi3_a(b, c, d), bailey_3psi3_b(b, c, d).
    """
    q = check_base(q)
    if name == "q_binomial":
        a, z = _as_params(params, "a z")
        if not abs(z) < 1:
            raise RegionError("q_binomial requires |z| < 1")
        check_vanishing({"z": z}, q)
        return poch(a * z, q, INFINITY, policy) / poch(z, q, INFINITY, policy)
    if name == "q_gauss":
        a, b, c = _as_params(params, "a b c")
        if not abs(c / (a * b)) < 1:
            raise RegionError("q_gauss requires |c/ab| < 1")
        return poch_quotient([c / a, c / b], {"c": c, "c/(ab)": c / (a * b)}, q, policy)
    if name == "ramanujan_1psi1":
        a, b, z = _as_params(params, "a b z")
        if not abs(b / a) < abs(z) < 1:
            raise RegionError("ramanujan_1psi1 requires |b/a| < |z| < 1")
        return poch_quotient([q, a * z, q / (a * z), b / a],
                             {"b": b, "z": z, "b/(az)": b / (a * z), "q/a": q / a},
                             q, policy)
    if name == "q_kummer_2psi2":
        a, b, c = _as_params(params, "a b c")
        if not abs(a * q / (b * c)) < 1:
            raise RegionError("q_kummer_2psi2 requires |aq/bc| < 1")
        q2 = q * q
        num = poch(a * q / (b * c), q, INFINITY, policy) * poch_multi(
            [q2, a * q, q / a, a * q2 / (b * b), a * q2 / (c * c)], q2, INFINITY, policy)
        den = {"aq/b": a * q / b, "aq/c": a * q / c, "q/b": q / b, "q/c": q / c,
               "-aq/(bc)": -a * q / (b * c)}
        check_vanishing(den, q)
        return num / poch_multi(list(den.values()), q, INFINITY, policy)
    if name in ("bailey_3psi3_a", "bailey_3psi3_b"):
        b, c, d = _as_params(params, "b c d")
        p, s = (q, "q") if name == "bailey_3psi3_a" else (q * q, "q^2")
        if not abs(p / (b * c * d)) < 1:
            raise RegionError(f"{name} requires |{s}/bcd| < 1")
        return poch_quotient([q, p / (b * c), p / (b * d), p / (c * d)],
                             {f"{s}/b": p / b, f"{s}/c": p / c, f"{s}/d": p / d,
                              f"{s}/(bcd)": p / (b * c * d)}, q, policy)
    raise DomainError(f"unknown closed form {name!r}")


def transform_residual(name: str, params: Sequence[complex], q,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """|LHS - RHS| / max(1, |LHS|) for a named 2psi2 transformation, both
    sides summed by sum_psi (Gasper & Rahman, ch. 5):

    * bailey_2psi2_single(a, b, c, d, z), Bailey's transformation, for
      max(|z|, |cd/abz|, |d/a|, |c/b|) < 1:
      2psi2(a, b; c, d; q, z) = P 2psi2(a, abz/d; az, c; q, d/a),
      P = (az, d/a, c/b, dq/(abz); q)_inf / (z, d, q/b, cd/(abz); q)_inf;
    * bailey_2psi2_iterated(a, b, c, d, z), that transformation applied
      twice, for max(|z|, |cd/abz|) < 1:
      2psi2(a, b; c, d; q, z) = P 2psi2(abz/c, abz/d; az, bz; q, cd/(abz)),
      P = (az, bz, cq/(abz), dq/(abz); q)_inf / (q/a, q/b, c, d; q)_inf;
    * wellpoised_6psi8(a, c, d, e, f), the very-well-poised 6psi8 form of a
      2psi2, for |aq/cd| < 1 and |aq/ef| < 1:
      2psi2(e, f; aq/c, aq/d; q, aq/ef) = P 6psi8(q a^{1/2}, -q a^{1/2},
      c, d, e, f; a^{1/2}, -a^{1/2}, aq/c, aq/d, aq/e, aq/f, 0, 0;
      q, a^3 q^2/cdef), P = (q/c, q/d, aq/e, aq/f; q)_inf
      / (aq, q/a, aq/cd, aq/ef; q)_inf.

    RegionError outside the region, PoleError where a denominator
    product of P vanishes (check_vanishing).
    """
    q = check_base(q)
    if name == "wellpoised_6psi8":
        a, c, d, e, f = _as_params(params, "a c d e f")
        if not (abs(a * q / (c * d)) < 1 and abs(a * q / (e * f)) < 1):
            raise RegionError(
                "wellpoised_6psi8 requires |aq/cd| < 1 and |aq/ef| < 1")
        left = (e, f), (a * q / c, a * q / d), a * q / (e * f)
        pref = poch_quotient([q / c, q / d, a * q / e, a * q / f],
                             {"aq": a * q, "q/a": q / a, "aq/cd": a * q / (c * d),
                              "aq/ef": a * q / (e * f)}, q, policy)
        sq = cmath.sqrt(a)
        right = ((q * sq, -q * sq, c, d, e, f),
                 (sq, -sq, a * q / c, a * q / d, a * q / e, a * q / f, 0.0, 0.0),
                 a ** 3 * q ** 2 / (c * d * e * f))
    elif name in ("bailey_2psi2_single", "bailey_2psi2_iterated"):
        a, b, c, d, z = _as_params(params, "a b c d z")
        left = (a, b), (c, d), z
        if name == "bailey_2psi2_single":
            if not max(abs(z), abs(c * d / (a * b * z)), abs(d / a), abs(c / b)) < 1:
                raise RegionError(
                    "bailey_2psi2_single requires max(|z|,|cd/abz|,|d/a|,|c/b|) < 1")
            pref = poch_quotient([a * z, d / a, c / b, d * q / (a * b * z)],
                                 {"z": z, "d": d, "q/b": q / b,
                                  "cd/(abz)": c * d / (a * b * z)}, q, policy)
            right = (a, a * b * z / d), (a * z, c), d / a
        else:
            if not max(abs(z), abs(c * d / (a * b * z))) < 1:
                raise RegionError(
                    "bailey_2psi2_iterated requires max(|z|,|cd/abz|) < 1")
            pref = poch_quotient([a * z, b * z, c * q / (a * b * z), d * q / (a * b * z)],
                                 {"q/a": q / a, "q/b": q / b, "c": c, "d": d}, q, policy)
            right = (a * b * z / c, a * b * z / d), (a * z, b * z), c * d / (a * b * z)
    else:
        raise DomainError(f"unknown transformation {name!r}")

    def psi(upper, lower, w):
        return sum_psi(SeriesSpec(BILATERAL, upper, lower, q, w), policy)[0]

    lhs = psi(*left)
    return abs(lhs - pref * psi(*right)) / max(1.0, abs(lhs))

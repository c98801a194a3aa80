"""Evaluation of unilateral (r_phi_s) and bilateral (r_psi_s) basic
hypergeometric series, closed-form summations, and transformation
residual checks.

Series are summed by term-ratio recursion: consecutive terms differ by a
ratio that is rational in q^k, so each term costs O(r + s) work.  The
backward (k -> -inf) recursion is expressed in the decaying power
v = q^{1-k}, which keeps every intermediate bounded.  Partial sums use
compensated accumulation because bilateral sums mix magnitudes across
the two tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NonConvergence, PoleError, RegionError
from .qcore import (DEFAULT_POLICY, GROWTH_SLACK, INFINITY, CompensatedSum,
                    TruncationPolicy, check_base, is_q_power, poch, poch_multi)

UNILATERAL = "unilateral"
BILATERAL = "bilateral"


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


class _TailState:
    """Stop/guard bookkeeping for one summation direction."""

    def __init__(self, policy: TruncationPolicy):
        self.policy = policy
        self.below = 0
        self.growth = 0
        self.prev_mag = None
        self.terms = 0

    def update(self, term_mag: float, sum_mag: float) -> bool:
        """Record a term; return True when this tail is converged."""
        p = self.policy
        self.terms += 1
        if term_mag == 0.0:
            return True
        if self.prev_mag is not None and term_mag > self.prev_mag * GROWTH_SLACK:
            self.growth += 1
            if self.growth >= 8 * p.tail_window:
                raise NonConvergence(
                    "series terms grew for %d consecutive steps" % self.growth)
        else:
            self.growth = 0
        self.prev_mag = term_mag
        if term_mag <= p.rel_tol * sum_mag + p.abs_tol:
            self.below += 1
            if self.below >= p.tail_window:
                return True
        else:
            self.below = 0
        if self.terms >= p.max_terms:
            raise NonConvergence(
                "series did not converge within %d terms" % p.max_terms)
        return False


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


def eval_phi(spec: SeriesSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Evaluate a unilateral r_phi_s series.

    Terminating series are summed exactly to the terminating index;
    otherwise terms are accumulated until ``tail_window`` consecutive
    terms fall below rel_tol * |partial sum| + abs_tol.
    """
    return sum_phi(spec, policy)[0]


def sum_phi(spec: SeriesSpec, policy: TruncationPolicy = DEFAULT_POLICY):
    """eval_phi plus the number of terms used."""
    if spec.kind != UNILATERAL:
        raise DomainError("eval_phi requires a unilateral spec")
    q, z = spec.q, spec.z
    n_top = terminates_above(spec.upper, q)
    _phi_region_check(spec, n_top)
    d = 1 + len(spec.lower) - len(spec.upper)
    acc = CompensatedSum()
    acc.add(1.0 + 0j)
    t = 1.0 + 0j
    qk = 1.0 + 0j
    tail = _TailState(policy)
    k = 0
    while n_top is None or k < n_top:
        num = 1.0 + 0j
        for a in spec.upper:
            num *= (1.0 - a * qk)
        den = 1.0 - q * qk
        for j, b in enumerate(spec.lower):
            f = 1.0 - b * qk
            if f == 0:
                raise PoleError(f"lower parameter {j} hits the q^-k lattice")
            den *= f
        t = t * num / den * ((-1.0) * qk) ** d * z
        qk *= q
        k += 1
        if t == 0:
            break
        acc.add(t)
        if n_top is None and tail.update(abs(t), abs(acc.value)):
            break
    return acc.value, k + 1


def _psi_region_check(spec: SeriesSpec, n_top: int | None,
                      m_bot: int | None) -> None:
    """Convergence region of a bilateral series; n_top and m_bot are
    terminates_above(spec.upper, spec.q) and
    terminates_below(spec.lower, spec.q)."""
    if spec.z == 0:
        raise DomainError("bilateral series require z != 0")
    r, s = len(spec.upper), len(spec.lower)
    if n_top is None:
        if r > s:
            raise RegionError(f"nonterminating {r}psi{s} diverges for r > s")
        if r == s and not abs(spec.z) < 1:
            raise RegionError(
                f"{r}psi{s} requires |z| < 1, got |z| = {abs(spec.z)}")
    if m_bot is None:
        if r > s:
            raise RegionError(f"nonterminating {r}psi{s} diverges for r > s")
        if r == s:
            bprod = math.prod(spec.lower)
            aprod = math.prod(spec.upper)
            ratio = abs(bprod / (aprod * spec.z))
            if not ratio < 1:
                raise RegionError(
                    f"{r}psi{s} requires |b1..bs/(a1..ar z)| < 1, got {ratio}")


def eval_psi(spec: SeriesSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Evaluate a bilateral r_psi_s series by symmetric two-sided
    accumulation k = 0, +-1, +-2, ... with independent tail control.

    Zero lower parameters are allowed: their reciprocal factors are 1
    for every k, which is how very-well-poised 6psi8 specs with two
    vanishing lower parameters are summed.
    """
    return sum_psi(spec, policy)[0]


def sum_psi(spec: SeriesSpec, policy: TruncationPolicy = DEFAULT_POLICY):
    """eval_psi plus the number of terms used."""
    if spec.kind != BILATERAL:
        raise DomainError("eval_psi requires a bilateral spec")
    q, z = spec.q, spec.z
    n_top = terminates_above(spec.upper, q)
    m_bot = terminates_below(spec.lower, q)
    _psi_region_check(spec, n_top, m_bot)
    d = len(spec.lower) - len(spec.upper)
    acc = CompensatedSum()
    acc.add(1.0 + 0j)

    # forward tail k = 1, 2, ...
    t = 1.0 + 0j
    qk = 1.0 + 0j
    tail = _TailState(policy)
    k = 0
    while n_top is None or k < n_top:
        num = 1.0 + 0j
        for a in spec.upper:
            num *= (1.0 - a * qk)
        den = 1.0 + 0j
        for j, b in enumerate(spec.lower):
            f = 1.0 - b * qk
            if f == 0:
                raise PoleError(f"lower parameter {j} hits the q^-k lattice")
            den *= f
        t = t * num / den * ((-1.0) * qk) ** d * z
        qk *= q
        k += 1
        if t == 0:
            break
        acc.add(t)
        if n_top is None and tail.update(abs(t), abs(acc.value)):
            break

    # backward tail k = -1, -2, ...; ratio in v = q^{1-k} keeps values bounded
    t = 1.0 + 0j
    v = q
    sign = (-1.0) ** d
    tail = _TailState(policy)
    m = 0
    while m_bot is None or m < m_bot:
        num = 1.0 + 0j
        for b in spec.lower:
            num *= (v - b)
        den = 1.0 + 0j
        for i, a in enumerate(spec.upper):
            f = v - a
            if f == 0:
                raise PoleError(f"upper parameter {i} hits the q^k lattice")
            den *= f
        t = t * sign * num / den / z
        v *= q
        m += 1
        if t == 0:
            break
        acc.add(t)
        if m_bot is None and tail.update(abs(t), abs(acc.value)):
            break
    return acc.value, k + m + 1


def _as_params(params, names: str):
    names = names.split()
    if len(params) != len(names):
        raise DomainError(
            f"expected {len(names)} parameters ({', '.join(names)}), got {len(params)}")
    return [complex(p) for p in params]


def closed_form(name: str, params: Sequence[complex], q,
                policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Right-hand-side product of a named summation formula.

    Names: q_binomial(a, z), q_gauss(a, b, c), ramanujan_1psi1(a, b, z),
    q_kummer_2psi2(a, b, c), bailey_3psi3_a(b, c, d), bailey_3psi3_b(b, c, d).
    """
    q = check_base(q)
    if name == "q_binomial":
        a, z = _as_params(params, "a z")
        if not abs(z) < 1:
            raise RegionError("q_binomial requires |z| < 1")
        return poch(a * z, q, INFINITY, policy) / poch(z, q, INFINITY, policy)
    if name == "q_gauss":
        a, b, c = _as_params(params, "a b c")
        if not abs(c / (a * b)) < 1:
            raise RegionError("q_gauss requires |c/ab| < 1")
        return (poch_multi([c / a, c / b], q, INFINITY, policy)
                / poch_multi([c, c / (a * b)], q, INFINITY, policy))
    if name == "ramanujan_1psi1":
        a, b, z = _as_params(params, "a b z")
        if not abs(b / a) < abs(z) < 1:
            raise RegionError("ramanujan_1psi1 requires |b/a| < |z| < 1")
        return (poch_multi([q, a * z, q / (a * z), b / a], q, INFINITY, policy)
                / poch_multi([b, z, b / (a * z), q / a], q, INFINITY, policy))
    if name == "q_kummer_2psi2":
        a, b, c = _as_params(params, "a b c")
        if not abs(a * q / (b * c)) < 1:
            raise RegionError("q_kummer_2psi2 requires |aq/bc| < 1")
        q2 = q * q
        num = poch(a * q / (b * c), q, INFINITY, policy) * poch_multi(
            [q2, a * q, q / a, a * q2 / (b * b), a * q2 / (c * c)], q2, INFINITY, policy)
        den = poch_multi([a * q / b, a * q / c, q / b, q / c, -a * q / (b * c)],
                         q, INFINITY, policy)
        return num / den
    if name == "bailey_3psi3_a":
        b, c, d = _as_params(params, "b c d")
        if not abs(q / (b * c * d)) < 1:
            raise RegionError("bailey_3psi3_a requires |q/bcd| < 1")
        return (poch_multi([q, q / (b * c), q / (b * d), q / (c * d)], q, INFINITY, policy)
                / poch_multi([q / b, q / c, q / d, q / (b * c * d)], q, INFINITY, policy))
    if name == "bailey_3psi3_b":
        b, c, d = _as_params(params, "b c d")
        q2 = q * q
        if not abs(q2 / (b * c * d)) < 1:
            raise RegionError("bailey_3psi3_b requires |q^2/bcd| < 1")
        return (poch_multi([q, q2 / (b * c), q2 / (b * d), q2 / (c * d)], q, INFINITY, policy)
                / poch_multi([q2 / b, q2 / c, q2 / d, q2 / (b * c * d)], q, INFINITY, policy))
    raise DomainError(f"unknown closed form {name!r}")


def _psi(upper, lower, q, z, policy) -> complex:
    return eval_psi(SeriesSpec(BILATERAL, tuple(upper), tuple(lower), q, z), policy)


def transform_residual(name: str, params: Sequence[complex], q,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """|LHS - RHS| / max(1, |LHS|) for a named 2psi2 transformation.

    Names: bailey_2psi2_single(a, b, c, d, z), bailey_2psi2_iterated(a, b,
    c, d, z), wellpoised_6psi8(a, c, d, e, f).
    """
    q = check_base(q)
    if name == "bailey_2psi2_single":
        a, b, c, d, z = _as_params(params, "a b c d z")
        if not max(abs(z), abs(c * d / (a * b * z)), abs(d / a), abs(c / b)) < 1:
            raise RegionError(
                "bailey_2psi2_single requires max(|z|,|cd/abz|,|d/a|,|c/b|) < 1")
        lhs = _psi([a, b], [c, d], q, z, policy)
        pref = (poch_multi([a * z, d / a, c / b, d * q / (a * b * z)], q, INFINITY, policy)
                / poch_multi([z, d, q / b, c * d / (a * b * z)], q, INFINITY, policy))
        rhs = pref * _psi([a, a * b * z / d], [a * z, c], q, d / a, policy)
    elif name == "bailey_2psi2_iterated":
        a, b, c, d, z = _as_params(params, "a b c d z")
        if not max(abs(z), abs(c * d / (a * b * z))) < 1:
            raise RegionError(
                "bailey_2psi2_iterated requires max(|z|,|cd/abz|) < 1")
        lhs = _psi([a, b], [c, d], q, z, policy)
        pref = (poch_multi([a * z, b * z, c * q / (a * b * z), d * q / (a * b * z)],
                           q, INFINITY, policy)
                / poch_multi([q / a, q / b, c, d], q, INFINITY, policy))
        rhs = pref * _psi([a * b * z / c, a * b * z / d], [a * z, b * z], q,
                          c * d / (a * b * z), policy)
    elif name == "wellpoised_6psi8":
        a, c, d, e, f = _as_params(params, "a c d e f")
        if not (abs(a * q / (c * d)) < 1 and abs(a * q / (e * f)) < 1):
            raise RegionError(
                "wellpoised_6psi8 requires |aq/cd| < 1 and |aq/ef| < 1")
        lhs = _psi([e, f], [a * q / c, a * q / d], q, a * q / (e * f), policy)
        sq = np.sqrt(complex(a))
        pref = (poch_multi([q / c, q / d, a * q / e, a * q / f], q, INFINITY, policy)
                / poch_multi([a * q, q / a, a * q / (c * d), a * q / (e * f)],
                             q, INFINITY, policy))
        rhs = pref * _psi(
            [q * sq, -q * sq, c, d, e, f],
            [sq, -sq, a * q / c, a * q / d, a * q / e, a * q / f, 0.0, 0.0],
            q, a ** 3 * q ** 2 / (c * d * e * f), policy)
    else:
        raise DomainError(f"unknown transformation {name!r}")
    return abs(lhs - rhs) / max(1.0, abs(lhs))

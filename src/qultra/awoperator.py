"""The Askey-Wilson divided-difference operator.

The operator acts on evaluators of x = (z + 1/z)/2 (functions that are
invariant under z -> 1/z) by sampling at the q^{+-1/2}-shifted points:

    D_q f = [f at q^{1/2} z  -  f at q^{-1/2} z]
            / ((q^{1/2} - q^{-1/2}) (z - 1/z) / 2).

Evaluators are passed a SpectralPoint; they must be reentrant, and they
are expected to support evaluation off the unit circle (the shifted
points scale |z^2| by q^{+-1}).
"""

from __future__ import annotations

import cmath
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, SingularPoint
from .qcore import (DEFAULT_POLICY, SpectralPoint, TruncationPolicy,
                    check_base, check_vanishing, indices, power)
from .ultraspherical import (BILATERAL_KIND, CLASSICAL, UltraParams,
                             bilateral_cn_range, classical_cn)

XFunction = Callable[[SpectralPoint], complex]

#: |z -+ 1| below this leaves no denominator headroom in double precision
SINGULAR_TOL = 1e-12


def _one_point(p: SpectralPoint, name: str) -> complex:
    """p.z; DomainError where it is an array."""
    if isinstance(p.z, np.ndarray):
        raise DomainError(f"{name} takes one point, got an array of z")
    return p.z


def apply_dq(f: XFunction, p: SpectralPoint, q) -> complex:
    """Apply the divided-difference operator to f at p.

    f may return an array of values at a point, such as the rows of a
    range: the operator then acts on each, and each element is divided in
    Python complex arithmetic, as the value of a scalar f would be (numpy
    divides complex numbers by another rule).  Raises SingularPoint for z
    within 1e-12 of +-1, where the denominator (q^{1/2} - q^{-1/2})(z -
    1/z)/2 vanishes, and DomainError where p.z is an array.
    """
    q = check_base(q)
    z = _one_point(p, "apply_dq")
    if abs(z - 1.0) <= SINGULAR_TOL or abs(z + 1.0) <= SINGULAR_TOL:
        raise SingularPoint(f"divided difference is singular at z = {z}")
    rq = cmath.sqrt(q)
    num = f(p.scaled(rq)) - f(p.scaled(1.0 / rq))
    den = (rq - 1.0 / rq) * (z - 1.0 / z) / 2.0
    if isinstance(num, np.ndarray):
        return np.array([v / den for v in num.tolist()])
    return num / den


class DqResiduals(NamedTuple):
    """The residuals of dq_action_residual over a sequence of n, and the
    most terms any row of the bilateral family summed (0 for the
    classical polynomials, which are finite sums)."""

    residual: np.ndarray
    terms_used: int


def dq_action_residual(kind: str, n, p: SpectralPoint,
                       params: UltraParams,
                       policy: TruncationPolicy = DEFAULT_POLICY):
    """Residual of the lowering action of the operator.

    classical:  D_q C_n(.; beta) = 2(1-beta)/(1-q) q^{(1-n)/2} C_{n-1}(.; q beta)
    bilateral:  D_q C_n(.; beta, gamma)
                = 2(1-beta gamma)^2 / ((1-q)(1-beta) gamma) q^{(1-n)/2}
                  C_{n-1}(.; q beta, gamma)

    scaled by max(1, |rhs|).

    n may be a nonempty integer sequence; the call then returns
    DqResiduals over it.  Each family is evaluated once per point for all
    of n: classical_cn once per degree at p q^{1/2}, p q^{-1/2} and (for
    the lowered family) p, or one bilateral_cn_range over min(n)..max(n)
    at each shifted point and over min(n) - 1..max(n) - 1 at p.  A
    classical or continued bilateral residual equals that of its integer
    call bit for bit; a row of the direct sum may round differently in a
    range than alone (bilateral_cn_range), by about an ulp.  p is one
    point: an array of z raises DomainError.
    """
    ns, single = indices(n, least=1 if kind == CLASSICAL else None,
                         what="classical lowering check needs n")
    _one_point(p, "dq_action_residual")
    q, beta, gamma = params.q, params.beta, params.gamma
    terms = [0]
    if kind == CLASSICAL:
        lhs = apply_dq(lambda sp: np.array([classical_cn(k, sp, beta, q)
                                            for k in ns]), p, q)
        lower = [classical_cn(k - 1, p, q * beta, q) for k in ns]
        const = 2 * (1 - beta) / (1 - q)
    elif kind == BILATERAL_KIND:
        check_vanishing({"beta": beta}, q, 1)      # const's divisor 1 - beta
        lo, hi = min(ns), max(ns)

        def rows(sp, family, shift):
            r = bilateral_cn_range(lo - shift, hi - shift, sp, family, policy)
            terms.append(r.truncation_terms.max())
            return r.values[[k - lo for k in ns]]

        lhs = apply_dq(lambda sp: rows(sp, params, 0), p, q)
        lower = rows(p, params.with_beta(q * beta), 1).tolist()
        const = 2 * (1 - beta * gamma) ** 2 / ((1 - q) * (1 - beta) * gamma)
    else:
        raise DomainError(f"unknown kind {kind!r}")
    out = []
    for k, left, low in zip(ns, lhs.tolist(), lower):
        rhs = const * power(complex(q), (1 - k) / 2.0, "q^{(1-n)/2}") * low
        out.append(abs(left - rhs) / max(1.0, abs(rhs)))
    if single:
        return out[0]
    return DqResiduals(np.array(out), int(max(terms)))

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
from typing import Callable

from .errors import DomainError, SingularPoint
from .qcore import DEFAULT_POLICY, SpectralPoint, TruncationPolicy, check_base
from .ultraspherical import (BILATERAL_KIND, CLASSICAL, UltraParams,
                             bilateral_cn, classical_cn)

XFunction = Callable[[SpectralPoint], complex]

#: |z -+ 1| below this leaves no denominator headroom in double precision
SINGULAR_TOL = 1e-12


def apply_dq(f: XFunction, p: SpectralPoint, q) -> complex:
    """Apply the divided-difference operator to f at p.

    Raises SingularPoint for z within 1e-12 of +-1, where the denominator
    (q^{1/2} - q^{-1/2})(z - 1/z)/2 vanishes.
    """
    q = check_base(q)
    z = complex(p.z)
    if abs(z - 1.0) <= SINGULAR_TOL or abs(z + 1.0) <= SINGULAR_TOL:
        raise SingularPoint(f"divided difference is singular at z = {z}")
    rq = cmath.sqrt(q)
    num = f(p.scaled(rq)) - f(p.scaled(1.0 / rq))
    den = (rq - 1.0 / rq) * (z - 1.0 / z) / 2.0
    return num / den


def dq_action_residual(kind: str, n: int, p: SpectralPoint,
                       params: UltraParams,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Residual of the lowering action of the operator.

    classical:  D_q C_n(.; beta) = 2(1-beta)/(1-q) q^{(1-n)/2} C_{n-1}(.; q beta)
    bilateral:  D_q C_n(.; beta, gamma)
                = 2(1-beta gamma)^2 / ((1-q)(1-beta) gamma) q^{(1-n)/2}
                  C_{n-1}(.; q beta, gamma)

    scaled by max(1, |rhs|).
    """
    q, beta, gamma = params.q, params.beta, params.gamma
    qpow = complex(q) ** ((1 - n) / 2.0)
    if kind == CLASSICAL:
        if n < 1:
            raise DomainError("classical lowering check needs n >= 1")
        lhs = apply_dq(lambda sp: classical_cn(n, sp, beta, q), p, q)
        rhs = 2 * (1 - beta) / (1 - q) * qpow * classical_cn(n - 1, p, q * beta, q)
    elif kind == BILATERAL_KIND:
        lhs = apply_dq(lambda sp: bilateral_cn(n, sp, params, policy).value, p, q)
        shifted = params.with_beta(q * beta)
        rhs = (2 * (1 - beta * gamma) ** 2 / ((1 - q) * (1 - beta) * gamma)
               * qpow * bilateral_cn(n - 1, p, shifted, policy).value)
    else:
        raise DomainError(f"unknown kind {kind!r}")
    return abs(lhs - rhs) / max(1.0, abs(rhs))

"""Complex scalar scaffolding and q-shifted factorials.

Conventions used throughout the library:

* scalars are Python/numpy doubles; ``complex`` is the working type,
* the base ``q`` is any complex number with ``0 < |q| < 1`` (operations
  that need a positive measure additionally demand real ``0 < q < 1``),
* ``(a; q)_k`` is the q-shifted factorial, extended to negative ``k``
  through ``(a; q)_{-m} = 1 / (a q^{-m}; q)_m`` and to ``k = inf`` as the
  infinite product ``prod_{j>=0} (1 - a q^j)``,
* evaluation points on and off the unit circle are carried as a
  :class:`SpectralPoint` holding the coordinate ``z`` with
  ``x = (z + 1/z)/2``; ``z`` generalizes ``e^{i theta}``.

Most functions accept a numpy array in place of the scalar first
argument (or of ``SpectralPoint.z``) and then return an array; this is
what the quadrature module uses to evaluate integrands on full node
grids in one call.  The q-series kernels (``poch``, ``poch_recip``,
``CompensatedSum``) run one loop body for both element types: a scalar
stays a Python ``complex`` from entry to return and is computed in
Python complex arithmetic, an array is computed elementwise in numpy.
Only the final reciprocal of ``poch`` for k < 0 and of ``poch_recip``
is a numpy division for both, since numpy and Python round complex
quotients differently.  Products of two non-real numbers may still
differ in the last bit: numpy fuses their multiply-adds on arrays where
the CPU has FMA, Python does not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, PoleError

INFINITY = math.inf

#: a term magnitude above this times the previous one counts as growth
GROWTH_SLACK = 1.0 + 1e-6


def check_base(q) -> complex:
    """Validate 0 < |q| < 1 and return q as a complex number."""
    q = complex(q)
    if not (math.isfinite(q.real) and math.isfinite(q.imag)):
        raise DomainError("base q must be finite")
    if not 0.0 < abs(q) < 1.0:
        raise DomainError(f"base q must satisfy 0 < |q| < 1, got |q| = {abs(q)}")
    return q


def check_real_base(q) -> float:
    """Validate q real with 0 < q < 1 (positive-measure operations)."""
    q = check_base(q)
    if q.imag != 0.0 or not 0.0 < q.real < 1.0:
        raise DomainError(f"operation requires real q with 0 < q < 1, got {q}")
    return q.real


@dataclass(frozen=True)
class TruncationPolicy:
    """Certified truncation of infinite products and bilateral tails.

    ``tail_window`` consecutive sub-threshold terms are required before a
    tail is accepted as converged; ``max_terms`` bounds the total work.
    """

    rel_tol: float = 1e-13
    abs_tol: float = 1e-300
    max_terms: int = 10000
    tail_window: int = 3

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("rel_tol and abs_tol must be positive")
        if not (self.max_terms >= self.tail_window >= 1):
            raise DomainError("need max_terms >= tail_window >= 1")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SpectralPoint:
    """A nonzero z encoding x = (z + 1/z)/2.

    z and 1/z encode the same x.  Real z in (0, 1) encodes x > 1, which
    is how evaluation points such as z = q**0.5 off [-1, 1] are reached.
    z may be a complex scalar or a numpy array of nonzero values.
    """

    z: complex

    def __post_init__(self):
        z = self.z
        if isinstance(z, np.ndarray):
            if not np.all(z != 0):
                raise DomainError("spectral point requires z != 0")
            if not np.all(np.isfinite(z)):
                raise DomainError("spectral point requires finite z")
        else:
            object.__setattr__(self, "z", complex(z))
            z = self.z
            if z == 0:
                raise DomainError("spectral point requires z != 0")
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise DomainError("spectral point requires finite z")

    @property
    def x(self):
        return (self.z + 1.0 / self.z) / 2.0

    @classmethod
    def from_theta(cls, theta: float) -> "SpectralPoint":
        return cls(cmath.exp(1j * float(theta)))

    @classmethod
    def from_x(cls, x: float) -> "SpectralPoint":
        """Map real x to z: the unit-circle branch for |x| <= 1, the real
        root x + sqrt(x^2 - 1) for |x| > 1."""
        x = float(x)
        if abs(x) <= 1.0:
            return cls(complex(x, math.sqrt(1.0 - x * x)))
        return cls(complex(x + math.copysign(math.sqrt(x * x - 1.0), x), 0.0))

    def inverse(self) -> "SpectralPoint":
        return SpectralPoint(1.0 / self.z)

    def scaled(self, factor) -> "SpectralPoint":
        return SpectralPoint(self.z * factor)


def _operand(a):
    """a as a kernel element: a complex ndarray for an array, a Python
    complex for anything else."""
    return np.asarray(a, dtype=complex) if isinstance(a, np.ndarray) else complex(a)


def _one_like(a):
    return np.ones_like(a) if isinstance(a, np.ndarray) else 1.0 + 0j


def _all_finite(x) -> bool:
    if isinstance(x, np.ndarray):
        return bool(np.all(np.isfinite(x)))
    return math.isfinite(x.real) and math.isfinite(x.imag)


def _any_zero(x) -> bool:
    return bool(np.any(x == 0)) if isinstance(x, np.ndarray) else x == 0


def _max_abs(a) -> float:
    if isinstance(a, np.ndarray):
        return float(np.max(np.abs(a))) if a.size else 0.0
    return abs(a)


def _reciprocal(x):
    """1 / x by numpy's complex division for both element types."""
    r = np.divide(1.0, x)
    return r if isinstance(x, np.ndarray) else complex(r)


class CompensatedSum:
    """Kahan-compensated accumulator for complex scalars or arrays.

    The sum and its compensation start as 0j for a scalar template and
    as numpy zeros of the template's shape for an array, and ``add`` is
    one loop body for both: scalars are summed in Python complex
    arithmetic, arrays elementwise in numpy, with the same result bits.
    """

    def __init__(self, template=0j):
        if isinstance(template, np.ndarray):
            self.s = np.zeros(template.shape, dtype=complex)
            self.c = np.zeros(template.shape, dtype=complex)
        else:
            self.s = self.c = 0j

    def add(self, term):
        y = term - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    @property
    def value(self):
        return self.s


def _product_bound_terms(a_mag: float, q_mag: float, policy: TruncationPolicy) -> int:
    """Number of factors J = j0 + tail_window, where j0 is the first j with
    |a| |q|^j < rel_tol (1 - |q|): the geometric bound on the log-product
    tail then holds for tail_window consecutive j < J.  j0 comes from
    logarithms, settled by one comparison each way."""
    bound = policy.rel_tol * (1.0 - q_mag)
    j0 = 0
    if a_mag >= bound:
        j0 = max(0, math.ceil((math.log(a_mag) - math.log(bound)) / -math.log(q_mag)))
        if a_mag * q_mag ** j0 >= bound:
            j0 += 1
        elif j0 > 0 and a_mag * q_mag ** (j0 - 1) < bound:
            j0 -= 1
    if j0 + policy.tail_window > policy.max_terms:
        raise NonConvergence(f"infinite q-product did not satisfy its tail bound "
                             f"within {policy.max_terms} factors")
    return j0 + policy.tail_window


def poch(a, q, k, policy: TruncationPolicy | None = None):
    """q-shifted factorial (a; q)_k.

    k may be a (possibly negative) integer or ``math.inf``.  a may be a
    complex scalar, for which the result is a Python complex, or a numpy
    array.  For k = -m the value is 1 / (a q^{-m}; q)_m and a PoleError
    reports any vanishing factor.
    """
    q = check_base(q)
    a = _operand(a)
    if not _all_finite(a):
        raise DomainError("poch requires finite a")
    out = _one_like(a)
    if k == INFINITY:
        n_factors = _product_bound_terms(_max_abs(a), abs(q), policy or DEFAULT_POLICY)
        term = a
        for _ in range(n_factors):
            out = out * (1.0 - term)
            term = term * q
        return out

    k = int(k)
    if k >= 0:
        qj = 1.0 + 0j
        for _ in range(k):
            out = out * (1.0 - a * qj)
            qj *= q
    else:
        qmj = 1.0 / q
        for j in range(1, -k + 1):
            factor = 1.0 - a * qmj
            if _any_zero(factor):
                raise PoleError(f"(a; q)_{k}: factor 1 - a q^-{j} vanishes")
            out = out * factor
            qmj /= q
        out = _reciprocal(out)
    if not _all_finite(out):
        raise DomainError(f"(a; q)_{k} overflowed double precision")
    return out


def poch_recip(a, q, k):
    """1 / (a; q)_k computed without dividing for k < 0.

    For k < 0 this is the finite product (a q^k; q)_{-k}, which is the
    well-defined value 0 on the lattices where (a; q)_k blows up; used by
    series engines that must treat those zeros as term annihilation
    rather than poles.  A scalar a gives a Python complex.
    """
    q = check_base(q)
    a = _operand(a)
    k = int(k)
    out = _one_like(a)
    if k >= 0:
        qj = 1.0 + 0j
        for j in range(k):
            factor = 1.0 - a * qj
            if _any_zero(factor):
                raise PoleError(f"1/(a; q)_{k}: factor 1 - a q^{j} vanishes")
            out = out * factor
            qj *= q
        out = _reciprocal(out)
    else:
        qmj = 1.0 / q
        for _ in range(1, -k + 1):
            out = out * (1.0 - a * qmj)
            qmj /= q
    if not _all_finite(out):
        raise DomainError(f"1/(a; q)_{k} overflowed double precision")
    return out


def poch_ratio(a, b, q, k):
    """(a; q)_k / (b; q)_k with numerator and denominator factors paired,
    so the quotient stays representable even when each side alone would
    overflow (used for large negative k).

    For k = -m the paired form is prod_{j=1}^{m} (q^j - b)/(q^j - a).
    """
    q = check_base(q)
    a, b = complex(a), complex(b)
    k = int(k)
    out = 1.0 + 0j
    if k >= 0:
        qj = 1.0 + 0j
        for j in range(k):
            den = 1.0 - b * qj
            if den == 0:
                raise PoleError(f"poch_ratio: factor 1 - b q^{j} vanishes")
            out *= (1.0 - a * qj) / den
            qj *= q
    else:
        v = q
        for j in range(1, -k + 1):
            den = v - a
            if den == 0:
                raise PoleError(f"poch_ratio: factor 1 - a q^-{j} vanishes")
            out *= (v - b) / den
            v *= q
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise DomainError("poch_ratio overflowed double precision")
    return out


def poch_multi(factors, q, k, policy: TruncationPolicy | None = None):
    """Product of (a_i; q)_k over a sequence of parameters."""
    out = 1.0 + 0j
    for i, a in enumerate(factors):
        try:
            out = out * poch(a, q, k, policy)
        except (PoleError, NonConvergence) as exc:
            raise type(exc)(f"factor {i} (a = {a}): {exc}") from exc
    return out


def poch_pm(t, p: SpectralPoint, q, policy: TruncationPolicy | None = None):
    """(t z; q)_inf (t / z; q)_inf, the e^{+-i theta} product shorthand."""
    return poch(t * p.z, q, INFINITY, policy) * poch(t / p.z, q, INFINITY, policy)


def is_q_power(value, q, tol: float = 1e-9):
    """Return the integer m with value = q^m if one exists (within tol in
    the complex log-base-q plane), else None."""
    value = complex(value)
    if value == 0:
        return None
    q = complex(q)
    ratio = cmath.log(value) / cmath.log(q)
    # imaginary part of log q is 0 for real positive q; general complex q
    # handled by comparing the full complex logarithm.
    m = round(ratio.real)
    if abs(ratio - m) < tol:
        return int(m)
    return None

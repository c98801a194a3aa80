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

Only the infinite product takes an array: ``poch(a, q, inf)`` with a
numpy array a (or a SpectralPoint holding an array z, through
``poch_pm``) returns an array, which is how the quadrature module
evaluates weights and kernels on full node grids in one call.  It builds
one (factors x points) table, a q^j by repeated multiplication
(``cumprod``), and multiplies 1 - table along the factor axis in order;
it takes as many factors as the largest |a| needs, so an element of
smaller modulus may differ from its scalar product by up to the
truncation tolerance.  Every finite product is a scalar loop in Python
complex arithmetic, and an array with finite k raises DomainError.
is_q_power is the one test of value in q^Z, at every base; check_vanishing,
built on it, the one test of a vanishing denominator product, which every
closed form asks before it divides; power the one rule for a power of n
that leaves the double range, and finite that for any other value, each
a NonConvergence naming the value; index (indices for sequences) the one
rule for n.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, PoleError

INFINITY = math.inf

#: a term magnitude above this times the previous one counts as growth
GROWTH_SLACK = 1.0 + 1e-6

#: sub-threshold terms in a row that accept a tail (8x: growing ones reject)
TAIL_WINDOW = 3


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

    TAIL_WINDOW consecutive sub-threshold terms are required before a
    tail is accepted as converged; ``max_terms`` bounds every series.
    ``rel_tol`` must be finite with 0 < rel_tol < 1: a cut at a term as
    large as the sum keeps no digit.
    """

    rel_tol: float = 1e-13
    max_terms: int = 10000

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must satisfy 0 < rel_tol < 1, got {self.rel_tol}")
        if not self.max_terms >= TAIL_WINDOW:
            raise DomainError(f"need max_terms >= {TAIL_WINDOW}")


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
    """Number of factors J = j0 + TAIL_WINDOW, where j0 is the first j with
    |a| |q|^j < rel_tol (1 - |q|): the geometric bound on the log-product
    tail then holds for TAIL_WINDOW consecutive j < J.  j0 comes from
    logarithms, settled by one comparison each way."""
    bound = policy.rel_tol * (1.0 - q_mag)
    j0 = 0
    if a_mag >= bound:
        j0 = max(0, math.ceil((math.log(a_mag) - math.log(bound)) / -math.log(q_mag)))
        if a_mag * q_mag ** j0 >= bound:
            j0 += 1
        elif j0 > 0 and a_mag * q_mag ** (j0 - 1) < bound:
            j0 -= 1
    if j0 + TAIL_WINDOW > policy.max_terms:
        raise NonConvergence(f"infinite q-product did not satisfy its tail bound "
                             f"within {policy.max_terms} factors")
    return j0 + TAIL_WINDOW


#: elements of one factor table of an array's infinite product; a larger
#: array is taken a slice of points at a time
_TABLE_SIZE = 1 << 14


def _poch_inf_table(a: np.ndarray, q: complex, n_factors: int) -> np.ndarray:
    """(a; q)_inf on an array from a (factors x points) table: row j holds
    a q^j by repeated multiplication, and 1 - table is multiplied along
    the factor axis in order."""
    flat = a.ravel()
    out = np.empty_like(flat)
    step = max(1, _TABLE_SIZE // n_factors)
    table = np.empty((n_factors, min(step, flat.size)), dtype=complex)
    for lo in range(0, flat.size, step):
        t = table[:, :flat.size - lo]
        t[0] = flat[lo:lo + step]
        t[1:] = q
        np.cumprod(t, axis=0, out=t)
        np.prod(np.subtract(1.0, t, out=t), axis=0, out=out[lo:lo + step])
    return out.reshape(a.shape)


def poch(a, q, k, policy: TruncationPolicy | None = None):
    """q-shifted factorial (a; q)_k.

    k may be a (possibly negative) integer or ``math.inf``.  a is a
    complex scalar, for which the result is a Python complex; for k = inf
    it may also be a numpy array, for which the result is an array.  For
    k = -m the value is prod_{j=1}^{m} q^j / (q^j - a), which is
    1 / (a q^{-m}; q)_m with each reciprocal factor taken on its own, so
    a value below the double range underflows towards 0 instead of its
    reciprocal overflowing; a PoleError reports any vanishing factor.
    """
    q = check_base(q)
    policy = policy or DEFAULT_POLICY
    if isinstance(a, np.ndarray):
        if k != INFINITY:
            raise DomainError("poch takes an array a only for k = inf")
        a = np.asarray(a, dtype=complex)
        if not np.all(np.isfinite(a)):
            raise DomainError("poch requires finite a")
        a_mag = float(np.max(np.abs(a))) if a.size else 0.0
        n_factors = _product_bound_terms(a_mag, abs(q), policy)
        with np.errstate(over="ignore", invalid="ignore"):
            return finite(_poch_inf_table(a, q, n_factors), "(a; q)_inf")
    a = complex(a)
    if not cmath.isfinite(a):
        raise DomainError("poch requires finite a")
    if k == INFINITY:
        return _poch_inf_scalar(a, q, policy)
    k = index(k)
    return _paired(a, 0j, q, k, f"(a; q)_{k}")


def _poch_inf_scalar(a: complex, q: complex, policy: TruncationPolicy) -> complex:
    """(a; q)_inf for a finite complex a: poch's scalar loop, whose factor
    count comes from _product_bound_terms; finite's NonConvergence on
    overflow."""
    out = 1.0 + 0j
    term = a
    for _ in range(_product_bound_terms(abs(a), abs(q), policy)):
        out = out * (1.0 - term)   # not *=: complex has no in-place slot
        term = term * q
    return finite(out, "(a; q)_inf")


def poch_ratio(a, b, q, k):
    """(a; q)_k / (b; q)_k with numerator and denominator factors paired,
    so the quotient stays representable even when each side alone would
    overflow (used for large negative k).

    For k = -m the paired form is prod_{j=1}^{m} (q^j - b)/(q^j - a).
    """
    q = check_base(q)
    return _paired(complex(a), complex(b), q, index(k), "poch_ratio")


def _paired(a: complex, b: complex, q: complex, k: int, name: str) -> complex:
    """The finite loop of poch and poch_ratio: (a; q)_k / (b; q)_k, each
    factor 1 - a q^j (q^j - b for k < 0) over 1 - b q^j (q^j - a).  With
    b = 0 the quotient is poch's plain product bit for bit.  Where it is
    not finite the loop runs again scaled, each factor's two parts and
    each partial product as m 2^e (_binary_split) with the exponents
    summed apart, so that only the product can leave the double range.
    name opens each PoleError and finite's NonConvergence message."""
    for scaled in (False, True):
        out, exp, v = 1.0 + 0j, 0, (1.0 + 0j if k >= 0 else q)
        for j in range(abs(k)):
            num, den = (1.0 - a * v, 1.0 - b * v) if k >= 0 else (v - b, v - a)
            if den == 0:
                pole = f"1 - b q^{j}" if k >= 0 else f"1 - a q^-{j + 1}"
                raise PoleError(f"{name}: factor {pole} vanishes")
            if scaled:
                (num, e), (den, f) = _binary_split(num), _binary_split(den)
                out, g = _binary_split(out * num / den)
                exp += e - f + g
            else:
                out *= num / den
            v *= q
        if not scaled and cmath.isfinite(out):
            return out
    try:
        out = complex(math.ldexp(out.real, exp), math.ldexp(out.imag, exp))
    except OverflowError:       # ldexp raises where the value would be inf
        out = complex(math.inf)
    return finite(out, name)


def _binary_split(x: complex):
    """(m, e) with x = m 2^e exactly and the larger part of m in [0.5, 1)."""
    e = math.frexp(max(abs(x.real), abs(x.imag)))[1]
    return complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)), e


def poch_multi(factors, q, k, policy: TruncationPolicy | None = None):
    """Product of (a_i; q)_k over a sequence of parameters, multiplied in
    order.  q and the policy are checked once; for k = inf a scalar a_i
    runs poch's scalar loop directly, with poch's values and errors."""
    q = check_base(q)
    policy = policy or DEFAULT_POLICY
    out = 1.0 + 0j
    for i, a in enumerate(factors):
        try:
            if k == INFINITY and not isinstance(a, np.ndarray):
                x = complex(a)
                if not cmath.isfinite(x):
                    raise DomainError("poch requires finite a")
                p = _poch_inf_scalar(x, q, policy)
            else:
                p = poch(a, q, k, policy)
        except (PoleError, NonConvergence) as exc:
            raise type(exc)(f"factor {i} (a = {a}): {exc}") from exc
        out = out * p
    return out


def poch_pm(t, p: SpectralPoint, q, policy: TruncationPolicy | None = None):
    """(t z; q)_inf (t / z; q)_inf, the e^{+-i theta} product shorthand."""
    return poch(t * p.z, q, INFINITY, policy) * poch(t / p.z, q, INFINITY, policy)


def power(x, n, name: str):
    """x ** n where Python forms it and its modulus without an error, else
    NonConvergence naming the power, name, x and n."""
    try:
        abs(out := x ** n)
        return out
    except (OverflowError, ZeroDivisionError):   # x ** -m where x ** m is 0
        raise NonConvergence(f"{name} overflowed at {x!r} ** {n}") from None


def finite(value, name: str):
    """value where it, or every element of an array, is finite, else
    NonConvergence f"{name} overflowed": the one rule for a value that
    leaves the double range."""
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray)
            else cmath.isfinite(value)):
        raise NonConvergence(f"{name} overflowed")
    return value


def index(n, least=None, what: str = "n") -> int:
    """The one index rule: n as a Python int where operator.index takes it,
    else DomainError, and DomainError f"{what} >= {least}" below least."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"indices must be integers, got {n!r}") from None
    if least is not None and n < least:
        raise DomainError(f"{what} >= {least}")
    return n


def indices(*args, least=None, what: str = "n"):
    """(*lists, single): each of args by index in a one-element list, with
    single True, or all args nonempty 1-D integer sequences of one length,
    as lists of Python ints with single False; DomainError otherwise."""
    try:
        arrays = [np.asarray(n) for n in args]
    except ValueError:      # a ragged nested sequence
        arrays = [np.empty((0, 0))]
    if all(a.ndim == 0 for a in arrays):
        return (*([index(n, least, what)] for n in args), True)
    if not all(a.ndim == 1 and a.shape == arrays[0].shape and a.size for a in arrays):
        raise DomainError("index sequences must be nonempty, 1-D and of one length")
    for n, a in zip(args, arrays):
        if not np.issubdtype(a.dtype, np.integer):
            raise DomainError(f"indices must be integers, got {n!r}")
        index(a.min(), least, what)
    return (*(a.tolist() for a in arrays), False)


def check_vanishing(products: dict, q, k=INFINITY, why: str = "") -> None:
    """The one test of a vanishing q-product: PoleError, naming the product
    and then why, where some (a; q)_k of products (name: a) has a zero
    factor, a = q^{-j} with 0 <= j < k by is_q_power."""
    for name, a in products.items():
        j = is_q_power(a, q)
        if j is not None and 0 <= -j < k:
            raise PoleError(f"({name}; q)_{'inf' if k == INFINITY else k} vanishes "
                            f"at {name} = q^{j}" + (f": {why}" if why else ""))


def poch_quotient(num, den: dict, q, policy: TruncationPolicy | None = None):
    """poch_multi(num) / poch_multi(den's values), all to infinity, once
    check_vanishing has passed den (name: a)."""
    check_vanishing(den, q)
    return (poch_multi(num, q, INFINITY, policy)
            / poch_multi(list(den.values()), q, INFINITY, policy))


def is_q_power(value, q, tol=1e-9):
    """The integer m with value = q^m, else None: m = round(log|value| /
    log|q|), accepted where log value - m log q, its phase reduced mod
    2 pi, is within tol |log q|.  The reduction holds at every base, also
    where m arg q wraps past pi; no q^m is formed, so none overflows."""
    if value == 0 or not cmath.isfinite(value):
        return None
    lv, lq = cmath.log(value), cmath.log(q)
    m = round(lv.real / lq.real)
    d = lv - m * lq
    if math.hypot(d.real, math.remainder(d.imag, math.tau)) < tol * abs(lq):
        return m
    return None

"""Check that two source trees of qultra give the same values, bit for bit.

    python3 tools/compare_values.py OLD_SRC NEW_SRC   # compare, exit 1 on a difference
    python3 tools/compare_values.py SRC               # print the records of one tree

OLD_SRC and NEW_SRC are directories that hold the package ``qultra`` (such
as ``src`` of two checkouts).  Each tree runs the same fixed, seeded set
of calls in its own subprocess, and every call gives one record: its
values as float reprs (which tell -0.0 from 0.0) and its term counts, or
the type and message of the error it raised.  The calls are

* ``bilateral_cn`` at scalar and array points and ``bilateral_cn_range``,
  on and off the direct annulus, at six parameter sets, including the
  special points z = +-q^{1/2} (on the lattice z^2 in q^Z, one point
  per square root) and q^{1/4} (on the half-integer lattice) and the
  points z = +-1 (x = +-1, on the lattice where the annulus is empty,
  as at (0.9, 0.4, 0.5)), and |n| up to 2000;
* ``bilateral_cn_psi_form`` at n = -12..12 at the two unit-circle points
  of each parameter set;
* ``sum_psi`` and ``sum_phi`` on random specs, some with zero lower
  parameters (placed first or last) and some terminating;
* scalar ``poch`` with k >= 0, k < 0 and k = inf, and ``poch_ratio``
  with k of both signs, a third of the calls with a and b on the pole
  lattices q^j, j >= 1, and q^-j, j >= 0;
* ``render_json(run_suite())`` at the defaults and at
  (q, beta, gamma) = (0.1, 0.95, 0.3);
* calls whose direct sums take more than one pass, so that a change of
  the pass size shows: ``bilateral_cn_range`` over the 93 rows
  n = -47..45 on the 63 interior nodes of the 64-interval rule, and
  ``shifted_orthogonality_pair`` at tol 1e-12 on the suite's diagonal
  pairs (n, n), n = -2..2, and off-diagonal pairs (0, 2), (1, -1), each at
  the defaults and at (0.1, 0.4, 0.7);
* ``bilateral_cn_range`` over n = -4..4 at three unit-circle points and at
  (q, beta, gamma) = (0.3, 0.8, 1.25), where beta gamma = 1 = q^0: the
  direct sum is regular there, while the continuations' (beta gamma; q)_inf
  vanishes;
* ten calls whose closed forms divide by a q-product that vanishes at
  their parameters (such as ``orthogonality_diagonal`` and
  ``kernel_integral_rhs`` at (q, beta) = (0.3, 1.0), ``mass_points`` at
  beta = 1/q), and ``render_json(run_suite({"beta": 1.0}))``, where four
  entries meet such a product, so that the type and message of each error
  show;
* bases off the positive axis, where m arg q wraps past pi: ``is_q_power``
  on q^m, -q^m, q^m e^{1e-6 i} and q^{m+1/2}, |m| <= 8, at q = -0.5, 0.5i
  and 0.5 e^{2i}; ``bilateral_cn`` where (q gamma; q)_inf vanishes, at
  (q, beta, gamma) = (0.5 e^{2i}, 0.8, q^-3) and (-0.5, 0.8, 4.0); and the
  rows n = -1, 0, 2 at (beta, gamma) = (0.8, 0.7) at the lattice points
  z = 1/q and q^{3/2} of q = 0.5 e^{2i} and z = -0.5, -2 and -i 2^{-3/2}
  of q = -0.5;
* five calls whose powers of n leave the double range (q^{+-700},
  (beta/q)^800, (beta^2 gamma/q)^2000, and a far row's (q/(beta z))^|n|
  whose modulus does while its parts do not), ``special_value_cm1`` at
  beta = 1, and ``bilateral_cn`` at n = 2.5, so that the type and
  message of each error show;
* every other public function of n at n = 2.5 (``bilateral_cn_range``
  over 0..2.5, ``bilateral_cn_continued``, ``bilateral_cn_psi_form``,
  ``classical_cn``, ``recurrence_gap``, ``recurrence_residual``
  (classical), ``symmetry_gap``, ``symmetry_residual``,
  ``constant_term``, ``linearization_residual``, ``dq_action_residual``
  (bilateral), ``orthogonality_entry``, ``orthogonality_diagonal``,
  ``bilateral_delta_integral``, ``shifted_orthogonality_rhs``,
  ``shifted_orthogonality_pair``, ``poch`` and ``poch_ratio``),
  ``orthogonality_diagonal`` at n = -1, ``shifted_orthogonality_rhs``
  at (q, beta, gamma) = (0.9, 2.15, 900), where (q gamma; q)_inf^4 leaves
  the double range, and ``bilateral_cn_psi_form`` at n = -1058, where the
  2psi2's a1 a2 z underflows to 0, so that each switch from a value, a
  truncated index or a bare exception to a typed error shows;
* calls where a q-product or a constant leaves the double range: scalar
  and array ``poch`` to infinity at a = 1e200, ``poch(0.5 + 5e-324j, 0.5,
  -1)``, ``shifted_orthogonality_rhs`` at (q, beta, gamma) = (0.7, 0.8,
  1e12), ``bilateral_delta_rhs(1e-9, 0.5)``, the bilateral
  ``generating_rhs`` at t = 0.97, z = 1 and (0.95, 0.99, 1000), and
  ``render_json(run_suite({"q": 0.7, "gamma": 1e12}))``, so that the type
  and message of each overflow show;
* the public functions of a point at the array point e^{i theta}, theta
  = 0.4, 1.0, 2.2, at each parameter set: ``recurrence_residual`` (both
  kinds), ``symmetry_residual``, ``recurrence_gap`` and ``symmetry_gap``
  (of given value arrays), ``linearization_residual`` (one pair and three),
  ``bilateral_cn_psi_form``, ``bilateral_cn_continued``, ``apply_dq``,
  ``dq_action_residual`` (classical n = 3, bilateral n = -1 and -4..4)
  and ``classical_cn``, so that each array's value or error shows.

The script prints every record that differs, then one summary line: the
largest relative change of a value (a complex number of a record that
holds one in both trees) and its record, the number of records that switch
between a value and an error, and the number whose only change is the sign
of a zero.  Then it prints the number of records and of differences, and
exits 1 on any difference (2 if a tree cannot run the calls).  It
takes about 10 s on a 2-core x86-64 machine.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

PARAMS = ((0.3, 0.8, 0.7), (0.5, 0.9, 0.4), (0.7, 0.5, 1.5), (0.7, 0.8, 1.0),
          (0.1, 0.95, 0.3), (0.9, 0.4, 0.5))
N_RANGE = range(-12, 13)
FAR_N = (-2000, -700, -40, 20, 40, 50, 700, 2000)
SERIES_CALLS = 1500


def _num(v) -> list:
    """[repr(re), repr(im)] of a complex scalar, or a list of them."""
    import numpy as np
    if isinstance(v, np.ndarray):
        return [_num(x) for x in v.ravel()]
    v = complex(v)
    return [repr(v.real), repr(v.imag)]


def _record(fn) -> list:
    try:
        return ["ok", fn()]
    except Exception as exc:  # the error is part of the record
        return ["error", type(exc).__name__, str(exc)]


def _points(rng, params) -> list:
    """Seeded points off the direct annulus on both sides, two on the unit
    circle, and the points q^{1/2}, q^{1/4}, 1, -q^{1/2} and -1."""
    import numpy as np
    q, beta, _ = params
    inner_edge = abs(q / beta) ** 0.5          # |q/(beta z^2)| = 1 here
    radius = rng.uniform(0.6, 0.95, 4) * min(inner_edge, 1.0)
    arg = rng.uniform(0.15, np.pi - 0.15, 4) * rng.choice([-1, 1], 4)
    inner = [complex(z) for z in radius * np.exp(1j * arg)]
    circle = [complex(np.exp(1j * t)) for t in rng.uniform(0.2, 2.9, 2)]
    return (inner + [1 / z for z in inner] + circle
            + [complex(q ** 0.5), complex(q ** 0.25), 1 + 0j,
               complex(-q ** 0.5), -1 + 0j])


def _cn_records(rng) -> list:
    import numpy as np
    from qultra import (SpectralPoint, UltraParams, bilateral_cn,
                        bilateral_cn_psi_form, bilateral_cn_range)
    out = []
    for qbg in PARAMS:
        q, beta, gamma = qbg
        params = UltraParams(beta, gamma, q)
        points = _points(rng, qbg)
        for z in points:
            p = SpectralPoint(z)
            for n in list(N_RANGE) + list(FAR_N):
                def one():
                    v = bilateral_cn(n, p, params)
                    return [_num(v.value), v.truncation_terms]
                out.append([f"cn {qbg} {z!r} {n}", _record(one)])

            def rows():
                r = bilateral_cn_range(N_RANGE[0], N_RANGE[-1], p, params)
                return [_num(r.values), r.truncation_terms.tolist()]
            out.append([f"range {qbg} {z!r}", _record(rows)])
        for z in points[8:10]:                  # the unit-circle points
            p = SpectralPoint(z)
            for n in N_RANGE:
                out.append([f"psi-form {qbg} {z!r} {n}",
                            _record(lambda: _num(bilateral_cn_psi_form(n, p, params)))])
        zs = SpectralPoint(np.array(points))
        for n in N_RANGE:
            def arr():
                v = bilateral_cn(n, zs, params)
                return [_num(v.value), v.truncation_terms]
            out.append([f"cn-array {qbg} {n}", _record(arr)])

        def arr_rows():
            r = bilateral_cn_range(N_RANGE[0], N_RANGE[-1], zs, params)
            return [_num(r.values), r.truncation_terms.tolist()]
        out.append([f"range-array {qbg}", _record(arr_rows)])
    return out


def _cplx(rng, lo, hi) -> complex:
    import numpy as np
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(-np.pi, np.pi)))


def _series_records(rng) -> list:
    from qultra import BILATERAL, UNILATERAL, SeriesSpec, sum_phi, sum_psi
    out = []
    for i in range(SERIES_CALLS):
        q = [0.3, 0.5, 0.7, 0.9, 0.4 + 0.3j][i % 5]
        r = int(rng.integers(0, 4))
        s = int(rng.integers(max(r - 1, 0), r + 3))
        upper = [_cplx(rng, 0.05, 2.0) for _ in range(r)]
        lower = [_cplx(rng, 0.05, 2.0) for _ in range(s)]
        if lower and rng.random() < 0.3:         # zero lower parameters
            lower[0 if rng.random() < 0.5 else -1] = 0j
        if upper and rng.random() < 0.15:        # terminating above
            upper[0] = q ** -int(rng.integers(0, 6))
        if lower and rng.random() < 0.1:         # terminating below
            lower[-1] = q ** int(rng.integers(1, 6))
        z = _cplx(rng, 0.05, 1.2)
        kind, fn = ((UNILATERAL, sum_phi) if i % 2 else (BILATERAL, sum_psi))

        def one():
            value, terms = fn(SeriesSpec(kind, upper, lower, q, z))
            return [_num(value), terms]
        out.append([f"{fn.__name__} {upper!r} {lower!r} {q!r} {z!r}",
                    _record(one)])
    return out


def _poch_records(rng) -> list:
    from qultra import INFINITY, poch
    from qultra.qcore import poch_ratio
    out = []
    for i in range(300):
        q = [0.3, 0.7, 0.91, 0.5 - 0.2j][i % 4]
        a = _cplx(rng, 0.0, 3.0)
        for k in (0, 1, 7, int(rng.integers(2, 60)), INFINITY):
            out.append([f"poch {a!r} {q!r} {k}", _record(lambda: _num(poch(a, q, k)))])
    for i in range(300):
        q = [0.3, 0.7, 0.91, 0.5 - 0.2j][i % 4]
        a, b = _cplx(rng, 0.0, 3.0), _cplx(rng, 0.0, 3.0)
        if i % 3 == 0:              # on the pole lattice of each side
            a, b = q ** int(rng.integers(1, 8)), q ** -int(rng.integers(0, 8))
        for k in (-1, -7, -int(rng.integers(2, 60)), 1, 7, int(rng.integers(2, 60))):
            if k < 0:
                out.append([f"poch {a!r} {q!r} {k}",
                            _record(lambda: _num(poch(a, q, k)))])
            out.append([f"poch_ratio {a!r} {b!r} {q!r} {k}",
                        _record(lambda: _num(poch_ratio(a, b, q, k)))])
    return out


def _suite_records() -> list:
    from qultra import render_json, run_suite
    out = []
    for cfg in ({}, {"q": 0.1, "beta": 0.95, "gamma": 0.3}):
        out.append([f"suite {cfg}", _record(lambda: render_json(run_suite(cfg)))])
    return out


def _pass_records() -> list:
    import numpy as np
    from qultra import (SpectralPoint, UltraParams, bilateral_cn_range,
                        shifted_orthogonality_pair)
    nodes = SpectralPoint(np.exp(1j * np.pi / 64 * np.arange(1, 64)))
    out = []
    for qbg in ((0.3, 0.8, 0.7), (0.1, 0.4, 0.7)):
        q, beta, gamma = qbg
        params = UltraParams(beta, gamma, q)

        def rows():
            r = bilateral_cn_range(-47, 45, nodes, params)
            return [_num(r.values), r.truncation_terms.tolist()]
        out.append([f"range-nodes {qbg}", _record(rows)])
        for m, n in (([-2, -1, 0, 1, 2], [-2, -1, 0, 1, 2]), ([0, 1], [2, -1])):
            def pair():
                lhs, rhs = shifted_orthogonality_pair(m, n, params, 1e-12)
                return [_num(lhs.value), _num(lhs.last_refinement_delta),
                        lhs.nodes_used, _num(rhs)]
            out.append([f"shifted-pair {qbg} {m} {n}", _record(pair)])
    return out


def _lattice_records() -> list:
    import numpy as np
    from qultra import SpectralPoint, UltraParams, bilateral_cn_range
    nodes = SpectralPoint(np.exp(1j * np.array([0.4, 1.0, 2.2])))

    def rows():
        r = bilateral_cn_range(-4, 4, nodes, UltraParams(0.8, 1.25, 0.3))
        return [_num(r.values), r.truncation_terms.tolist()]
    return [["range beta*gamma = 1", _record(rows)]]


def _pole_records() -> list:
    from qultra import (SpectralPoint, UltraParams, WeightParams,
                        bilateral_delta_integral, closed_form, constant_term,
                        dq_action_residual, kernel_integral_rhs,
                        linearization_residual, mass_points,
                        orthogonality_diagonal, render_json, run_suite,
                        special_value_c0)
    w, p = WeightParams(1.0, 0.3), SpectralPoint.from_theta(1.0)
    calls = {
        "orthogonality_diagonal": lambda: _num(orthogonality_diagonal(0, w)),
        "kernel_integral_rhs": lambda: _num(kernel_integral_rhs(0.4, -0.25, w)),
        "special_value_c0": lambda: _num(special_value_c0(UltraParams(0.3 ** 0.5, 0.7, 0.3))),
        "constant_term": lambda: _num(constant_term(0, UltraParams(-0.3, 0.7, 0.3))),
        "q_gauss": lambda: _num(closed_form("q_gauss", (2.0, 3.0, 1.0), 0.3)),
        "ramanujan_1psi1": lambda: _num(closed_form("ramanujan_1psi1",
                                                    (4.0, 1 / 0.3, 0.9), 0.3)),
        "linearization_residual": lambda: _num(linearization_residual(1, 1, p, 1.0, 0.3)),
        "dq_action_residual": lambda: _num(dq_action_residual(
            "bilateral", 1, p, UltraParams(1.0, 0.7, 0.3))),
        "mass_points": lambda: [_num(a) for a in mass_points(1 / 0.3, 0.3)],
        "bilateral_delta_integral": lambda: _num(
            bilateral_delta_integral(0, 1 / 0.3, 0.3).value),
        "suite beta = 1": lambda: render_json(run_suite({"beta": 1.0})),
    }
    return [[f"pole {name}", _record(call)] for name, call in calls.items()]


def _base_records() -> list:
    import cmath
    from qultra import SpectralPoint, UltraParams, bilateral_cn
    from qultra.qcore import is_q_power
    turned = 0.5 * cmath.exp(2j)
    out = []
    for q in (-0.5, 0.5j, turned):
        out.append([f"is_q_power {q!r}", _record(lambda: [
            [is_q_power(w, q) for w in (q ** m, -q ** m, q ** m * cmath.exp(1e-6j),
                                        q ** (m + 0.5))] for m in range(-8, 9)])])
    p = SpectralPoint.from_theta(1.0)
    for q, gamma in ((turned, turned ** -3), (-0.5, 4.0)):
        out.append([f"pole bilateral_cn {q!r} {gamma!r}", _record(
            lambda: _num(bilateral_cn(0, p, UltraParams(0.8, gamma, q)).value))])
    for q, z in ((turned, 1 / turned), (turned, turned ** 1.5), (-0.5, -0.5),
                 (-0.5, -2.0), (-0.5, -0.5 ** 1.5 * 1j)):
        for n in (-1, 0, 2):
            def one():
                v = bilateral_cn(n, SpectralPoint(complex(z)), UltraParams(0.8, 0.7, q))
                return [_num(v.value), v.truncation_terms]
            out.append([f"lattice cn {q!r} {complex(z)!r} {n}", _record(one)])
    return out


def _power_records() -> list:
    from qultra import (DEFAULT_POLICY, SpectralPoint, UltraParams, bilateral_cn,
                        bilateral_cn_psi_form, shifted_orthogonality_rhs,
                        special_value_cm1, symmetry_residual)
    params, p = UltraParams(0.8, 0.7, 0.3), SpectralPoint.from_theta(1.0)
    far = SpectralPoint(0.0006721997267927133 + 0.00024460233425914436j)
    far_params = UltraParams(33.23633309969444 - 10.504407012088448j,
                             82.83120184172542 + 376.724485879355j, 0.5j)
    calls = {
        "bilateral_cn_psi_form 700": lambda: bilateral_cn_psi_form(700, p, params),
        "bilateral_cn_psi_form -700": lambda: bilateral_cn_psi_form(-700, p, params),
        "symmetry_residual 800": lambda: symmetry_residual(800, p, params),
        "shifted_orthogonality_rhs 2000": lambda: shifted_orthogonality_rhs(
            params, DEFAULT_POLICY, 2000),
        "bilateral_cn far row": lambda: bilateral_cn(0, far, far_params).value,
        "special_value_cm1 beta = 1": lambda: special_value_cm1(
            UltraParams(1.0, 0.7, 0.3)),
        "bilateral_cn 2.5": lambda: bilateral_cn(2.5, p, params).value,
    }
    return [[f"power {name}", _record(lambda: _num(call()))]
            for name, call in calls.items()]


def _index_records() -> list:
    from qultra import (DEFAULT_POLICY, SpectralPoint, UltraParams, WeightParams,
                        bilateral_cn_continued, bilateral_cn_psi_form,
                        bilateral_cn_range, bilateral_delta_integral, classical_cn,
                        constant_term, dq_action_residual, linearization_residual,
                        orthogonality_diagonal, orthogonality_entry, poch,
                        recurrence_gap, recurrence_residual,
                        shifted_orthogonality_pair, shifted_orthogonality_rhs,
                        symmetry_gap, symmetry_residual)
    from qultra.qcore import poch_ratio
    params, p, w = UltraParams(0.8, 0.7, 0.3), SpectralPoint.from_theta(1.0), \
        WeightParams(0.8, 0.3)
    n = 2.5
    calls = {
        "bilateral_cn_range": lambda: bilateral_cn_range(0, n, p, params).values,
        "bilateral_cn_continued": lambda: bilateral_cn_continued(n, p.z, params).value,
        "bilateral_cn_psi_form": lambda: bilateral_cn_psi_form(n, p, params),
        "classical_cn": lambda: classical_cn(n, p, 0.8, 0.3),
        "recurrence_gap": lambda: recurrence_gap(n, p, params, 1, 1, 1),
        "recurrence_residual": lambda: recurrence_residual("classical", n, p, params),
        "symmetry_gap": lambda: symmetry_gap(n, params, 1, 1),
        "symmetry_residual": lambda: symmetry_residual(n, p, params),
        "constant_term": lambda: constant_term(n, params),
        "linearization_residual": lambda: linearization_residual(1, n, p, 0.8, 0.3),
        "dq_action_residual": lambda: dq_action_residual("bilateral", n, p, params),
        "orthogonality_entry": lambda: orthogonality_entry(0, n, w).value,
        "orthogonality_diagonal": lambda: orthogonality_diagonal(n, w),
        "bilateral_delta_integral": lambda: bilateral_delta_integral(n, 0.8, 0.3).value,
        "shifted_orthogonality_rhs": lambda: shifted_orthogonality_rhs(
            params, DEFAULT_POLICY, n),
        "shifted_orthogonality_pair": lambda: shifted_orthogonality_pair(
            n, n, params)[0].value,
        "poch": lambda: poch(0.5, 0.3, n),
        "poch_ratio": lambda: poch_ratio(0.5, 0.2, 0.3, n),
    }
    out = [[f"index {name} 2.5", _record(lambda: _num(call()))]
           for name, call in calls.items()]
    typed = {
        "orthogonality_diagonal -1": lambda: orthogonality_diagonal(-1, w),
        "shifted_orthogonality_rhs (0.9, 2.15, 900)": lambda: shifted_orthogonality_rhs(
            UltraParams(2.15, 900.0, 0.9)),
        "bilateral_cn_psi_form -1058": lambda: bilateral_cn_psi_form(
            -1058, SpectralPoint(-160 + 210j), UltraParams(0.79 - 1.88j, -17.0, 0.5j)),
    }
    return out + [[f"index {name}", _record(lambda: _num(call()))]
                  for name, call in typed.items()]


def _overflow_records() -> list:
    import numpy as np
    from qultra import (INFINITY, SpectralPoint, UltraParams, bilateral_delta_rhs,
                        generating_rhs, poch, render_json, run_suite,
                        shifted_orthogonality_rhs)
    calls = {
        "poch 1e200": lambda: _num(poch(1e200, 0.5, INFINITY)),
        "poch array 1e200": lambda: _num(poch(np.array([1e200, 0.5]), 0.5, INFINITY)),
        "poch -1": lambda: _num(poch(0.5 + 5e-324j, 0.5, -1)),
        "shifted_orthogonality_rhs (0.7, 0.8, 1e12)": lambda: _num(
            shifted_orthogonality_rhs(UltraParams(0.8, 1e12, 0.7))),
        "bilateral_delta_rhs 1e-9": lambda: _num(bilateral_delta_rhs(1e-9, 0.5)),
        "generating_rhs (0.95, 0.99, 1000)": lambda: _num(generating_rhs(
            "bilateral", 0.97, SpectralPoint(1.0), UltraParams(0.99, 1000.0, 0.95))),
        "suite gamma = 1e12": lambda: render_json(run_suite({"q": 0.7, "gamma": 1e12})),
    }
    return [[f"overflow {name}", _record(call)] for name, call in calls.items()]


def _array_records() -> list:
    import numpy as np
    from qultra import (SpectralPoint, UltraParams, apply_dq, bilateral_cn_continued,
                        bilateral_cn_psi_form, classical_cn, dq_action_residual,
                        linearization_residual, recurrence_gap, recurrence_residual,
                        symmetry_gap, symmetry_residual)
    p = SpectralPoint(np.exp(1j * np.array([0.4, 1.0, 2.2])))
    given = np.array([[0.3 + 0.1j, -1.2 + 0.4j, 2.5 - 0.7j],
                      [1.1 - 0.2j, 0.7 + 0.9j, -0.4 + 0.05j],
                      [-0.6 + 1.3j, 0.2 - 0.1j, 1.9 + 0.3j]])
    out = []
    for qbg in PARAMS:
        q, beta, gamma = qbg
        params = UltraParams(beta, gamma, q)
        calls = {
            "recurrence_residual classical": lambda: recurrence_residual(
                "classical", 2, p, params),
            "recurrence_residual bilateral": lambda: recurrence_residual(
                "bilateral", -1, p, params),
            "symmetry_residual": lambda: symmetry_residual(2, p, params),
            "recurrence_gap": lambda: recurrence_gap(1, p, params, *given),
            "symmetry_gap": lambda: symmetry_gap(-2, params, *given[:2]),
            "linearization_residual": lambda: linearization_residual(2, 3, p, beta, q),
            "linearization_residual pairs": lambda: linearization_residual(
                [0, 2, 4], [3, 2, 1], p, beta, q),
            "bilateral_cn_psi_form": lambda: bilateral_cn_psi_form(1, p, params),
            "bilateral_cn_continued": lambda: [
                _num((v := bilateral_cn_continued(-2, p.z, params)).value),
                v.truncation_terms],
            "apply_dq": lambda: apply_dq(lambda sp: sp.x ** 3, p, q),
            "dq_action_residual classical": lambda: dq_action_residual(
                "classical", 3, p, params),
            "dq_action_residual bilateral": lambda: dq_action_residual(
                "bilateral", -1, p, params),
            "dq_action_residual bilateral -4..4": lambda: [
                _num((r := dq_action_residual("bilateral", range(-4, 5), p,
                                              params)).residual), r.terms_used],
            "classical_cn": lambda: classical_cn(5, p, beta, q),
        }
        for name, call in calls.items():
            out.append([f"array {name} {qbg}", _record(
                lambda: v if isinstance(v := call(), list) else _num(v))])
    return out


def records(src: str) -> list:
    """Every record of the tree at src, in a fixed order."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import qultra
    if Path(qultra.__file__).resolve().parent != src / "qultra":
        raise SystemExit(f"qultra imported from {qultra.__file__}, not {src}")
    rng = np.random.default_rng(2508)
    return (_cn_records(rng) + _series_records(rng) + _poch_records(rng)
            + _suite_records() + _pass_records() + _lattice_records()
            + _pole_records() + _base_records() + _power_records()
            + _index_records() + _overflow_records() + _array_records())


def _values(payload) -> list:
    """The complex values of an "ok" record's payload, in order."""
    if not isinstance(payload, list):
        return []
    if len(payload) == 2 and all(isinstance(v, str) for v in payload):
        return [complex(float(payload[0]), float(payload[1]))]
    return [v for part in payload for v in _values(part)]


def _relative_change(a: complex, b: complex) -> float:
    if a == b:
        return 0.0
    change = abs(b - a) / abs(a) if a else math.inf
    return change if change == change else math.inf       # nan: not finite


def _unsigned_zeros(x):
    if isinstance(x, list):
        return [_unsigned_zeros(v) for v in x]
    return "0.0" if x == "-0.0" else x


def summary(diffs: list) -> str:
    """The summary line of the differing (key, old, new) records."""
    largest, where, switches, zeros = 0.0, None, 0, 0
    for key, a, b in diffs:
        if a[0] != b[0]:
            switches += 1
        elif _unsigned_zeros(a) == _unsigned_zeros(b):
            zeros += 1
        elif a[0] == "ok":
            for x, y in zip(_values(a[1]), _values(b[1])):
                change = _relative_change(x, y)
                if change > largest:
                    largest, where = change, key
    return (f"largest relative value change {largest:.3g}"
            + (f" ({where})" if where else "")
            + f"; {switches} records switch between a value and an error;"
            f" {zeros} differ only in the sign of a zero")


def _run(src: str) -> list:
    done = subprocess.run([sys.executable, __file__, src], capture_output=True,
                          text=True)
    if done.returncode:
        print(f"{src}: the calls did not run\n{done.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(done.stdout)


def main(argv: list) -> int:
    if len(argv) == 1:
        json.dump(records(argv[0]), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = _run(argv[0]), _run(argv[1])
    if [k for k, _ in old] != [k for k, _ in new]:
        print("the two trees made different calls", file=sys.stderr)
        return 1
    diffs = [(k, a, b) for (k, a), (_, b) in zip(old, new) if a != b]
    for key, a, b in diffs:
        print(f"{key}:\n  old {a}\n  new {b}")
    print(summary(diffs))
    print(f"{len(old)} records, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

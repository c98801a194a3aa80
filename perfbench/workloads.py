"""The benchmark's three workloads: inputs from a seed, the in-process
pass, the matching CLI commands, and the correctness checks.

Every check uses an independent computation (an mpmath sum written
from the defining formulas, see ``reference``) or a property the
functions must have (three-term recurrence, realness on the unit circle,
z <-> 1/z symmetry, agreement between the CLI and the library).  None
compares against stored output.

A failed operation (an exception from qultra) is counted, and its value
is left out of the checks.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

from dataclasses import dataclass, field

import numpy as np

import reference

Q, BETA, GAMMA = 0.3, 0.8, 0.7
PARAM_FLAGS = ["--q", repr(Q), "--beta", repr(BETA), "--gamma", repr(GAMMA)]

#: relative tolerances of the checks
TOL_REFERENCE = 1e-11     # against the mpmath defining sum (unit circle)
TOL_CONTINUED = 1e-10     # against the mpmath 6psi8 sum (off the annulus)
TOL_RECURRENCE = 1e-10
TOL_REAL = 1e-11
TOL_SAME = 1e-13          # two routes through the same double-precision code


def rel_gap(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def recurrence_gap(n: int, z: complex, cm1: complex, c0: complex,
                   cp1: complex) -> float:
    """Residual of 2x(1 - beta gamma^2 q^n) C_n
    = (1 - gamma^2 q^{n+1}) C_{n+1} + (1 - beta^2 gamma^2 q^{n-1}) C_{n-1},
    relative to the largest of its three terms."""
    x = (z + 1 / z) / 2
    lhs = 2 * x * (1 - BETA * GAMMA ** 2 * Q ** n) * c0
    up = (1 - GAMMA ** 2 * Q ** (n + 1)) * cp1
    down = (1 - BETA ** 2 * GAMMA ** 2 * Q ** (n - 1)) * cm1
    scale = max(abs(lhs), abs(up), abs(down))
    return abs(lhs - up - down) / scale if scale else 0.0


def _ok(v) -> bool:
    return cmath.isfinite(v)


def fingerprint(outputs):
    """A value that compares equal exactly when two passes gave the same outputs."""
    if isinstance(outputs, (tuple, list)):
        return tuple(fingerprint(o) for o in outputs)
    if hasattr(outputs, "tobytes"):
        return outputs.tobytes()
    return repr(outputs)


class Workload:
    """A workload.  ``units(inp)`` lists the pieces of one pass as
    (label, fn) pairs, each fn returning a PassResult; they are timed one
    by one, so short pieces give many samples.  ``run_pass`` is the pass
    whose outputs are checked: by default all units, assembled."""

    name = ""
    #: traced passes wrap each unit in a span named prefix + unit label
    span_prefix = None

    def assemble(self, unit_outputs):
        return np.array(unit_outputs)

    def run_pass(self, inp) -> "PassResult":
        results = [fn() for _, fn in self.units(inp)]
        return PassResult(self.assemble([r.outputs for r in results]),
                          sum(r.attempted for r in results),
                          sum(r.failed for r in results),
                          [e for r in results for e in r.errors])

    def check_units(self, inp, checked, unit_outputs) -> list:
        if fingerprint(self.assemble(unit_outputs)) != fingerprint(checked):
            return ["timed passes gave other outputs than the checked pass"]
        return []

    def setup_code(self, inp) -> str:
        """What a fresh interpreter runs for ``setup_s``."""
        return self.first_code(inp) + "\nprint(repr(value))"

    def first_value(self, inp) -> str:
        """The same first value, computed in this process."""
        namespace = {}
        exec(self.first_code(inp), namespace)
        return repr(namespace["value"])


@dataclass
class PassResult:
    """Outputs of one pass, or one unit of it, plus its operation counts."""

    outputs: object
    attempted: int
    failed: int
    errors: list = field(default_factory=list)


def _params():
    from qultra import UltraParams
    return UltraParams(BETA, GAMMA, Q)


def _first_code(n: int, point: str) -> str:
    return ("from qultra import SpectralPoint, UltraParams, bilateral_cn\n"
            f"value = bilateral_cn({n}, {point}, "
            f"UltraParams({BETA!r}, {GAMMA!r}, {Q!r})).value")


# ---------------------------------------------------------------- suite

class SuiteDefault(Workload):
    """run_suite() at the defaults, then ``qultra suite --format json``.

    The suite is fully determined by its defaults, so the seed does not
    change the inputs."""

    name = "suite-default"
    CLI_REPEATS = 1

    def make_inputs(self, seed: int) -> dict:
        return {}

    def first_code(self, inp) -> str:
        return ("from qultra.verify import identity_names, run_identity\n"
                "value = run_identity(identity_names()[0]).residual")

    def values_per_pass(self, inp) -> int:
        from qultra.verify import identity_names
        return len(identity_names())

    def run_pass(self, inp) -> PassResult:
        from qultra.verify import identity_names, run_suite
        total = len(identity_names())
        try:
            report = run_suite()
        except Exception as exc:  # counted: run_suite must not abort
            return PassResult(None, total, total, [repr(exc)])
        bad = sum(1 for e in report.entries if e.skipped or not e.passed)
        return PassResult(report, len(report.entries), bad)

    span_prefix = "verify."

    def units(self, inp) -> list:
        """One unit per identity, through run_identity."""
        from qultra import verify

        def one(name):
            try:
                e = verify.run_identity(name)
            except Exception as exc:  # counted as a failed operation
                return PassResult(None, 1, 1, [f"{name}: {exc!r}"])
            return PassResult(e, 1, int(e.skipped or not e.passed))

        return [(name, lambda name=name: one(name)) for name in verify.identity_names()]

    def assemble(self, unit_outputs):
        return [e for e in unit_outputs if e is not None]

    def check_units(self, inp, checked, unit_outputs) -> list:
        return self.check(inp, self.assemble(unit_outputs))

    def cli_commands(self, inp) -> list:
        return [["suite", "--format", "json"]]

    def check(self, inp, outputs, cli_stdout=None) -> list:
        """Every entry present, passed and not skipped; CLI JSON identical
        to render_json of the in-process report."""
        from qultra.verify import identity_names, render_json
        if outputs is None:
            return []
        entries = outputs.entries if hasattr(outputs, "entries") else outputs
        problems = []
        names = [e.identity_name for e in entries]
        if sorted(names) != identity_names():
            problems.append(f"suite entries {names} differ from the registry")
        for e in entries:
            if e.skipped:
                problems.append(f"{e.identity_name} skipped: {e.note}")
            elif not e.passed or not e.residual <= e.tolerance:
                problems.append(f"{e.identity_name} failed: residual "
                                f"{e.residual:.3e} > {e.tolerance:.1e}")
        if hasattr(outputs, "overall_passed") and not outputs.overall_passed:
            problems.append("overall_passed is false")
        if cli_stdout is not None and cli_stdout[0] != render_json(outputs):
            problems.append("CLI suite JSON differs from render_json(run_suite())")
        return problems


# ---------------------------------------------------------- unit circle

class TableCircle(Workload):
    """C_n for n = -12..12 on a seeded theta grid of the unit circle,
    point by point as ``qultra table`` evaluates it, then ``qultra table``."""

    name = "table-circle"
    N_LO, N_HI, STEPS, SAMPLE = -12, 12, 8, 6
    CLI_REPEATS = 5

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        tmin = float(rng.uniform(0.05, 0.6))
        tmax = float(rng.uniform(2.5, 3.05))
        ns = list(range(self.N_LO, self.N_HI + 1))
        thetas = [float(t) for t in np.linspace(tmin, tmax, self.STEPS)]
        sample = [(int(rng.integers(len(ns))), int(rng.integers(self.STEPS)))
                  for _ in range(self.SAMPLE)]
        return {"ns": ns, "thetas": thetas, "theta_min": tmin,
                "theta_max": tmax, "sample": sample}

    def first_code(self, inp) -> str:
        return _first_code(inp["ns"][0],
                           f"SpectralPoint.from_theta({inp['thetas'][0]!r})")

    def values_per_pass(self, inp) -> int:
        return len(inp["ns"]) * len(inp["thetas"])

    def units(self, inp) -> list:
        """One unit per n: C_n at every angle, in the order of ``qultra table``.
        ``qultra.bilateral_cn`` is looked up at each call, so a tracer
        installed later sees it."""
        import qultra
        params = _params()

        def row(n):
            out = np.full(len(inp["thetas"]), np.nan, dtype=complex)
            errors = []
            for j, theta in enumerate(inp["thetas"]):
                try:
                    p = qultra.SpectralPoint.from_theta(theta)
                    out[j] = qultra.bilateral_cn(n, p, params).value
                except Exception as exc:  # counted as a failed operation
                    errors.append(f"n={n} theta={theta!r}: {exc!r}")
            return PassResult(out, out.size, len(errors), errors)

        return [(f"n={n}", lambda n=n: row(n)) for n in inp["ns"]]

    def cli_commands(self, inp) -> list:
        return [["table", "--n-min", str(self.N_LO), "--n-max", str(self.N_HI),
                 "--theta-min", repr(inp["theta_min"]),
                 "--theta-max", repr(inp["theta_max"]),
                 "--theta-steps", str(self.STEPS)] + PARAM_FLAGS]

    def check(self, inp, values, cli_stdout=None) -> list:
        problems = []
        ns, thetas = inp["ns"], inp["thetas"]
        for i, j in inp["sample"]:
            if not _ok(values[i, j]):
                continue
            ref = reference.defining_sum(ns[i], cmath.exp(1j * thetas[j]),
                                         Q, BETA, GAMMA)
            if not abs(values[i, j] - ref) <= TOL_REFERENCE * abs(ref):
                problems.append(f"C_{ns[i]}(theta={thetas[j]!r}) = {values[i, j]!r}"
                                f" misses the defining sum {ref!r}")
        for j, theta in enumerate(thetas):
            z = cmath.exp(1j * theta)
            for i in range(1, len(ns) - 1):
                trio = values[i - 1:i + 2, j]
                if all(_ok(v) for v in trio):
                    gap = recurrence_gap(ns[i], z, *trio)
                    if not gap <= TOL_RECURRENCE:
                        problems.append(f"recurrence at n={ns[i]} theta={theta!r}"
                                        f" off by {gap:.2e}")
            for i, n in enumerate(ns):
                v = values[i, j]
                if _ok(v) and not abs(v.imag) <= TOL_REAL * abs(v):
                    problems.append(f"C_{n}(theta={theta!r}) = {v!r} is not real")
        if cli_stdout is not None:
            problems += self._check_cli(inp, values, cli_stdout[0])
        return problems

    def _check_cli(self, inp, values, text) -> list:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["n", "theta", "re", "im", "terms"]:
            return ["CLI table has no n,theta,re,im,terms header"]
        rows = rows[1:]
        if len(rows) != values.size:
            return [f"CLI table has {len(rows)} rows, expected {values.size}"]
        problems = []
        k = 0
        for i, n in enumerate(inp["ns"]):
            for j, theta in enumerate(inp["thetas"]):
                row = rows[k]
                k += 1
                got = complex(float(row[2]), float(row[3]))
                if int(row[0]) != n or float(row[1]) != theta:
                    problems.append(f"CLI row {k} is ({row[0]}, {row[1]}), "
                                    f"expected ({n}, {theta!r})")
                elif _ok(values[i, j]) and not rel_gap(got, values[i, j]) <= TOL_SAME:
                    problems.append(f"CLI C_{n}(theta={theta!r}) = {got!r}, "
                                    f"in-process {values[i, j]!r}")
        return problems


# ---------------------------------------------------------- off annulus

class TableOffAnnulus(Workload):
    """C_n at seeded generic points off the direct annulus, inside it
    (|z| < 0.58) and outside it (the reciprocals), through scalar calls
    and through one array call per n; then ``qultra eval`` at a few of
    them."""

    name = "table-offannulus"
    N_LO, N_HI, INNER, SAMPLE, CLI_POINTS = -6, 6, 16, 6, 4
    CLI_REPEATS = 5

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        # |z| < 0.58 keeps |q/(beta z^2)| > 1.1, past the 0.98 switch to
        # continuation; arguments stay 0.15 away from the real axis, where
        # the q-power lattices of the representation lie.
        radius = rng.uniform(0.35, 0.58, self.INNER)
        arg = rng.uniform(0.15, math.pi - 0.15, self.INNER) * rng.choice([-1, 1], self.INNER)
        inner = [complex(z) for z in radius * np.exp(1j * arg)]
        points = inner + [1 / z for z in inner]
        ns = list(range(self.N_LO, self.N_HI + 1))
        sample = [(int(rng.integers(len(ns))), int(rng.integers(len(points))))
                  for _ in range(self.SAMPLE)]
        cli = [(int(rng.integers(len(ns))), int(rng.integers(len(points))))
               for _ in range(self.CLI_POINTS)]
        return {"ns": ns, "points": points, "sample": sample, "cli": cli}

    def first_code(self, inp) -> str:
        return _first_code(inp["ns"][0], f"SpectralPoint({inp['points'][0]!r})")

    def values_per_pass(self, inp) -> int:
        return 2 * len(inp["ns"]) * len(inp["points"])

    def units(self, inp) -> list:
        """One unit per n: scalar calls at every point, then one array call."""
        import qultra
        params = _params()
        zs = np.array(inp["points"], dtype=complex)

        def row(n):
            scalar = np.full(len(zs), np.nan, dtype=complex)
            array = np.full(len(zs), np.nan, dtype=complex)
            errors = []
            for j, z in enumerate(inp["points"]):
                try:
                    scalar[j] = qultra.bilateral_cn(n, qultra.SpectralPoint(z),
                                                    params).value
                except Exception as exc:  # counted as a failed operation
                    errors.append(f"n={n} z={z!r}: {exc!r}")
            failed = len(errors)
            try:
                array[:] = qultra.bilateral_cn(n, qultra.SpectralPoint(zs),
                                               params).value
            except Exception as exc:  # the whole array call fails
                errors.append(f"n={n} array: {exc!r}")
                failed += len(zs)
            return PassResult((scalar, array), 2 * len(zs), failed, errors)

        return [(f"n={n}", lambda n=n: row(n)) for n in inp["ns"]]

    def assemble(self, unit_outputs):
        return (np.array([s for s, _ in unit_outputs]),
                np.array([a for _, a in unit_outputs]))

    def cli_commands(self, inp) -> list:
        cmds = []
        for i, j in inp["cli"]:
            z = inp["points"][j]
            cmds.append(["eval", "--n", str(inp["ns"][i]), "--z-re", repr(z.real),
                         "--z-im", repr(z.imag), "--format", "json"] + PARAM_FLAGS)
        return cmds

    def check(self, inp, outputs, cli_stdout=None) -> list:
        scalar, array = outputs
        ns, points = inp["ns"], inp["points"]
        half = len(points) // 2
        problems = []
        for i, n in enumerate(ns):
            for j, z in enumerate(points):
                a, b = scalar[i, j], array[i, j]
                if _ok(a) and _ok(b) and not rel_gap(a, b) <= TOL_SAME:
                    problems.append(f"C_{n}({z!r}): scalar {a!r} != array {b!r}")
        for i, j in inp["sample"]:
            if not _ok(scalar[i, j]):
                continue
            ref = reference.sixpsi8_sum(ns[i], points[j], Q, BETA, GAMMA)
            if not abs(scalar[i, j] - ref) <= TOL_CONTINUED * abs(ref):
                problems.append(f"C_{ns[i]}({points[j]!r}) = {scalar[i, j]!r} "
                                f"misses the 6psi8 sum {ref!r}")
        for i, n in enumerate(ns):
            for j in range(half):
                a, b = scalar[i, j], scalar[i, half + j]
                if _ok(a) and _ok(b) and not rel_gap(a, b) <= TOL_CONTINUED:
                    problems.append(f"C_{n}(z) != C_{n}(1/z) at z = {points[j]!r}:"
                                    f" {a!r} vs {b!r}")
        for j, z in enumerate(points):
            for i in range(1, len(ns) - 1):
                trio = scalar[i - 1:i + 2, j]
                if all(_ok(v) for v in trio):
                    gap = recurrence_gap(ns[i], z, *trio)
                    if not gap <= TOL_RECURRENCE:
                        problems.append(f"recurrence at n={ns[i]} z={z!r} "
                                        f"off by {gap:.2e}")
        for (i, j), text in zip(inp["cli"], cli_stdout or ()):
            got = json.loads(text)
            got = complex(got["re"], got["im"])
            if _ok(scalar[i, j]) and not rel_gap(got, scalar[i, j]) <= TOL_SAME:
                problems.append(f"CLI eval C_{ns[i]}({points[j]!r}) = {got!r}, "
                                f"in-process {scalar[i, j]!r}")
        return problems


WORKLOADS = {w.name: w for w in (SuiteDefault(), TableCircle(), TableOffAnnulus())}

"""Named-identity verification suite and machine-readable reports.

Each identity is one row of ``_REGISTRY``: its runner, the gate on its
residual, its residual rule (a name in ``RULES``) and the config keys and
fixed values its entry reports.  A runner returns ``(lhs, rhs, scale,
evaluated)``: ``_worst`` reduces the first three by the row's rule, and
``_counts`` takes terms and nodes from ``evaluated``.  ``run_suite`` never
aborts on an entry: an unmet hypothesis (RegionError, PoleError,
DomainError, SingularPoint) skips it, NonConvergence (an overflow
included) or an internal error (an exception that is not a QSeriesError)
fails it, and the note names the exception.  So does a residual that is
not finite.  Skipped or failed, an entry keeps its row's keys, fixed
values and gate, with residual 0 if it has none.  Identical
configurations give byte-identical JSON.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ConfigError, DomainError, NonConvergence, PoleError,
                     QSeriesError, RegionError, SingularPoint)
from .hyperseries import (BILATERAL, SeriesSpec, closed_form, sum_psi,
                          transform_residual)
from .qcore import TAIL_WINDOW, SpectralPoint, TruncationPolicy, power
from .quadrature import (QuadratureResult, WeightParams,
                         bilateral_delta_integral, bilateral_delta_rhs,
                         kernel_integral, kernel_integral_rhs,
                         orthogonality_diagonal, orthogonality_entry,
                         shifted_orthogonality_pair, shifted_orthogonality_rhs)
from .ultraspherical import (BILATERAL_KIND, CLASSICAL, UltraParams,
                             UltraRange, UltraValue, bilateral_cn,
                             bilateral_cn_continued, bilateral_cn_psi_form,
                             bilateral_cn_range,
                             classical_cn, constant_term, generating_rhs,
                             linearization_residual, recurrence_gap,
                             special_value_c0, symmetry_gap, symmetry_params)
from .awoperator import DqResiduals, dq_action_residual

SUITE_VERSION = "1"

#: the configuration keys and their defaults (ResolvedConfig checks them)
CONFIG_DEFAULTS = {
    "q": 0.3,
    "beta": 0.8,
    "gamma": 0.7,
    "t": 0.6,
    "thetas": (0.4, 1.0, 2.2),
    "rel_tol": 1e-13,
    "max_terms": 10000,
    "quad_tol": 1e-8,
}

#: tolerance of the shifted-orthogonality node loop (see
#: shifted_orthogonality_pair); tightening those entries means editing it
_SHIFTED_TOL = 1e-6

#: seed of the random draws of the ramanujan_1psi1 and transformation entries
_SEED = 20240901


@dataclass(frozen=True)
class VerificationEntry:
    identity_name: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    terms_used: int = 0
    nodes_used: int = 0
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    suite_version: str
    entries: tuple
    overall_passed: bool


class ResolvedConfig:
    """A configuration checked against CONFIG_DEFAULTS and converted: the
    settings every identity runner and CLI command reads.  An unknown key
    or a malformed value raises ConfigError."""

    def __init__(self, config: dict | None):
        cfg = dict(CONFIG_DEFAULTS)
        for key, raw in (config or {}).items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                if key == "thetas":
                    if isinstance(raw, str):
                        raw = tuple(float(v) for v in raw.split(",") if v.strip())
                    cfg[key] = tuple(float(v) for v in raw)
                elif key == "max_terms":
                    cfg[key] = int(raw)
                else:
                    cfg[key] = float(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key}: malformed value {raw!r}") from exc
        self.cfg = cfg
        if not cfg["thetas"] or not np.isfinite(cfg["thetas"]).all():
            raise ConfigError("thetas must hold at least one angle, each finite")
        try:
            self.policy = TruncationPolicy(cfg["rel_tol"], cfg["max_terms"])
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if not cfg["quad_tol"] > 0:
            raise ConfigError("quadrature tolerance must be positive")
        if not math.isfinite(cfg["t"]):
            raise ConfigError(f"t must be finite, got {cfg['t']}")
        try:
            self.params = UltraParams(cfg["beta"], cfg["gamma"], cfg["q"])
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        # one array point: the z of SpectralPoint.from_theta at each angle
        self.points = SpectralPoint(np.array([cmath.exp(1j * t) for t in cfg["thetas"]]))

    @cached_property
    def rng(self):
        # made on first use: eval and table never import numpy.random
        return np.random.default_rng(_SEED)


#: residual of one (lhs, rhs, scale) triple, by rule name
RULES = {
    "given": lambda l, r, s: l,                        # lhs is a residual
    "absolute": lambda l, r, s: abs(l - r),
    "relative": lambda l, r, s: abs(l - r) / abs(s),
    "unit": lambda l, r, s: abs(l - r) / max(1.0, abs(l)),
    "ratio": lambda l, r, s: abs(l / s - r),
}


def _worst(rule: str, lhs, rhs=None, scale=None) -> float:
    """The largest residual of the row's rule over the items of lhs, each
    in Python scalars; rhs and scale are lists like lhs, or one scalar that
    stands for every item.  0.0 when lhs is empty; nan when any item is.
    DomainError where a rule that divides by the scale meets a zero one."""
    lhs = lhs if isinstance(lhs, list) else [lhs]
    rhs, scale = (v if isinstance(v, list) else [v] * len(lhs) for v in (rhs, scale))
    if rule in ("relative", "ratio") and 0 in scale:
        raise DomainError(f"the {rule} rule divides by its reference, which is 0 "
                          f"at item {scale.index(0)}")
    residual = RULES[rule]
    return float(np.max([0.0, *(residual(l, r, s) for l, r, s
                                in zip(lhs, rhs, scale, strict=True))]))


def _counts(evaluated) -> tuple:
    """(terms_used, nodes_used): the most terms any evaluated object
    summed, and the most nodes any integral used."""
    terms, nodes = [0], [0]
    for obj in evaluated:
        if isinstance(obj, QuadratureResult):
            nodes.append(obj.nodes_used)
        elif isinstance(obj, DqResiduals):
            terms.append(obj.terms_used)
        elif isinstance(obj, (UltraRange, UltraValue)):
            terms.append(np.max(obj.truncation_terms))
        else:   # the term count of a sum_psi
            terms.append(obj)
    return int(max(terms)), int(max(nodes))


def _ramanujan_1psi1(ctx: ResolvedConfig):
    q = ctx.cfg["q"]
    lhs, rhs, used = [], [], []
    for _ in range(20):
        a = ctx.rng.uniform(0.5, 1.1) * np.exp(1j * ctx.rng.uniform(0.0, 2 * np.pi))
        b = a * ctx.rng.uniform(0.05, 0.3) * np.exp(1j * ctx.rng.uniform(0.0, 2 * np.pi))
        z = ctx.rng.uniform(0.45, 0.9) * np.exp(1j * ctx.rng.uniform(0.0, 2 * np.pi))
        value, terms = sum_psi(SeriesSpec(BILATERAL, (a,), (b,), q, z), ctx.policy)
        lhs.append(value)
        rhs.append(closed_form("ramanujan_1psi1", (a, b, z), q, ctx.policy))
        used.append(terms)
    return lhs, rhs, None, used


def _transform(name, ctx: ResolvedConfig):
    base = np.array([0.5, 0.9, 0.8, 0.7, 0.6] if name == "wellpoised_6psi8"
                    else [0.9, 0.8, 0.1, 0.2, 0.5])
    gaps = []
    for _ in range(10):
        while True:
            jitter = base * ctx.rng.uniform(0.85, 1.15, size=5)
            try:
                gaps.append(transform_residual(name, jitter, ctx.cfg["q"], ctx.policy))
                break
            except RegionError:
                continue
    return gaps, None, None, ()


def _each(p: SpectralPoint) -> list:
    """The points of an array point, each a scalar SpectralPoint."""
    return [SpectralPoint(z) for z in p.z.tolist()]


def _by_point(values: np.ndarray) -> list:
    """The items of (rows x points) values, point by point."""
    return values.T.ravel().tolist()


def _gamma_one_reduction(ctx: ResolvedConfig, gamma):
    """C_n(x; beta, 1), n = 0..8, against the classical polynomials (the
    lhs, so that max(1, |C_n|) scales the unit rule)."""
    q, beta = ctx.cfg["q"], ctx.cfg["beta"]
    refs = np.array([classical_cn(n, ctx.points, beta, q) for n in range(0, 9)])
    rows = bilateral_cn_range(0, 8, ctx.points, ctx.params.with_gamma(gamma), ctx.policy)
    return _by_point(refs), _by_point(rows.values), None, (rows,)


def _bilateral_recurrence(ctx: ResolvedConfig):
    rows = bilateral_cn_range(-7, 7, ctx.points, ctx.params, ctx.policy)
    gaps = np.array([recurrence_gap(n, ctx.points, ctx.params, rows[n - 1], rows[n],
                                    rows[n + 1]) for n in range(-6, 7)])
    return _by_point(gaps), None, None, (rows,)


def _generating_function(ctx: ResolvedConfig):
    """sum_n C_n t^n against generating_rhs at each point, summed shell by
    shell (n and -n) until TAIL_WINDOW shells in a row fall below 1e-12
    |rhs|.  The points share one range of rows, widened for all of them
    where a point's sum first needs more."""
    t = ctx.cfg["t"]
    max_n = ctx.policy.max_terms  # largest |n| summed: the term budget
    rhss = [generating_rhs(BILATERAL_KIND, t, p, ctx.params, ctx.policy)
            for p in _each(ctx.points)]
    rows = bilateral_cn_range(-16, 16, ctx.points, ctx.params, ctx.policy)
    sums = []
    for j, rhs in enumerate(rhss):
        acc, tail, n = rows[0][j] + 0j, 0, 1
        while tail < TAIL_WINDOW:
            if n > rows.n_hi:  # the next block of rows on both sides
                reach = min(2 * rows.n_hi, max_n)
                rows = rows.widened(-reach, reach)
            shell = rows[n][j] * power(t, n, "t^n") + rows[-n][j] * power(t, -n, "t^n")
            acc += shell
            tail = tail + 1 if abs(shell) < 1e-12 * abs(rhs) else 0
            n += 1
            if n > max_n:
                raise NonConvergence("generating-function sum failed to settle")
        sums.append(acc)
    return sums, rhss, rhss, (rows,)


def _gf_fourier(ctx: ResolvedConfig):
    """Laurent coefficients of the generating function on |t| = r recover
    the functions: 2^j-point circle sampling, doubled until stable."""
    r = ctx.cfg["t"]
    extracted = []
    for p in _each(ctx.points):
        m, prev = 64, None
        while True:
            phis = 2 * np.pi * np.arange(m) / m
            samples = generating_rhs(BILATERAL_KIND, r * np.exp(1j * phis), p,
                                     ctx.params, ctx.policy)
            coeff = np.fft.fft(samples) / m
            if prev is not None and all(abs(coeff[n] - prev[n]) < 1e-9
                                        for n in range(-4, 5)):
                break
            prev = coeff
            m *= 2
            if m > 4096:
                raise NonConvergence("coefficient extraction failed to settle")
        extracted += [coeff[n % m] / r ** n for n in range(-4, 5)]
    rows = bilateral_cn_range(-4, 4, ctx.points, ctx.params, ctx.policy)
    return extracted, _by_point(rows.values), None, (rows,)


def _symmetry(ctx: ResolvedConfig):
    rows = bilateral_cn_range(-4, 4, ctx.points, ctx.params, ctx.policy)
    mirror = bilateral_cn_range(-4, 4, ctx.points, symmetry_params(ctx.params),
                                ctx.policy)
    gaps = np.array([symmetry_gap(n, ctx.params, rows[n], mirror[-n])
                     for n in range(-4, 5)])
    return _by_point(gaps), None, None, (rows, mirror)


def _constant_terms(ctx: ResolvedConfig):
    rows = bilateral_cn_range(-4, 4, SpectralPoint(1j), ctx.params, ctx.policy)
    refs = [constant_term(n, ctx.params, ctx.policy) for n in range(-4, 5)]
    return rows.values.tolist(), refs, None, (rows,)


def _special_value_c0(ctx: ResolvedConfig):
    p = SpectralPoint(complex(ctx.cfg["q"] ** 0.25))
    uv = bilateral_cn(0, p, ctx.params, ctx.policy)
    ref = special_value_c0(ctx.params, ctx.policy)
    return uv.value, ref, ref, (uv,)


def _crosscheck(ctx: ResolvedConfig):
    """The direct sum matches the well-poised 2psi2 form in-region, and
    the analytic continuation (bilateral_cn_continued: the pole
    expansion, and the recurrence where it refuses) matches the direct
    sum at the same points, where both converge."""
    ns = (-2, 0, 1)
    # the 2psi2 forms first, at every point: where one does not apply the
    # entry skips, whatever the values would have done
    psi = [bilateral_cn_psi_form(n, p, ctx.params, ctx.policy)
           for p in _each(ctx.points) for n in ns]
    values = _by_point(np.array([bilateral_cn(n, ctx.points, ctx.params,
                                              ctx.policy).value for n in ns]))
    continued = _by_point(np.array([bilateral_cn_continued(n, ctx.points.z, ctx.params,
                                                           ctx.policy).value for n in ns]))
    return values + values, psi + continued, None, ()


def _dq_action(kind, ns, ctx: ResolvedConfig):
    result = dq_action_residual(kind, ns, ctx.points, ctx.params, ctx.policy)
    return _by_point(result.residual), None, None, (result,)


def _orth_offdiag(ctx: ResolvedConfig):
    w = WeightParams(ctx.cfg["beta"], ctx.cfg["q"])
    pairs = [(0, 0)] + [(m, n) for m in range(7) for n in range(m + 1, 7)]
    res = orthogonality_entry(*zip(*pairs), w, ctx.cfg["quad_tol"], ctx.policy)
    norm, *offdiag = res.value.tolist()
    return offdiag, 0.0, norm, (res,)


def _orth_diag(ctx: ResolvedConfig):
    w = WeightParams(ctx.cfg["beta"], ctx.cfg["q"])
    res = orthogonality_entry(range(7), range(7), w, ctx.cfg["quad_tol"], ctx.policy)
    refs = [orthogonality_diagonal(n, w, ctx.policy) for n in range(7)]
    return res.value.tolist(), refs, refs, (res,)


def _kernel_integral(ctx: ResolvedConfig, t1, t2):
    w = WeightParams(ctx.cfg["beta"], ctx.cfg["q"])
    res = kernel_integral(t1, t2, w, ctx.cfg["quad_tol"], ctx.policy)
    ref = kernel_integral_rhs(t1, t2, w, ctx.policy)
    return res.value, ref, ref, (res,)


def _bilateral_delta(ctx: ResolvedConfig):
    q, beta = ctx.cfg["q"], ctx.cfg["beta"]
    rhs0 = bilateral_delta_rhs(beta, q, ctx.policy)
    ns = range(-3, 4)
    res = bilateral_delta_integral(ns, beta, q, ctx.cfg["quad_tol"], ctx.policy)
    return res.value.tolist(), [1.0 if n == 0 else 0.0 for n in ns], rhs0, (res,)


def _shifted_diag(ctx: ResolvedConfig):
    ns = range(-2, 3)
    lhs, rhs = shifted_orthogonality_pair(ns, ns, ctx.params,
                                          _SHIFTED_TOL, ctx.policy)
    return lhs.value.tolist(), 1.0, rhs.tolist(), (lhs,)


def _shifted_offdiag(ctx: ResolvedConfig):
    norm = shifted_orthogonality_rhs(ctx.params, ctx.policy)
    lhs, _ = shifted_orthogonality_pair((0, 1), (2, -1), ctx.params,
                                        _SHIFTED_TOL, ctx.policy)
    return lhs.value.tolist(), 0.0, norm, (lhs,)


def _shifted_scaling(ctx: ResolvedConfig):
    ratio = ctx.cfg["beta"] ** 2 * ctx.cfg["gamma"] / ctx.cfg["q"]
    rhs0 = shifted_orthogonality_rhs(ctx.params, ctx.policy)
    ns = (-2, -1, 1, 2)
    return ([shifted_orthogonality_rhs(ctx.params, ctx.policy, n) for n in ns],
            [rhs0 * ratio ** n for n in ns], None, ())


def _linearization(ctx: ResolvedConfig):
    ms, ns = zip(*((m, n) for m in range(5) for n in range(5)))
    beta, q = ctx.cfg["beta"], ctx.cfg["q"]
    gaps = linearization_residual(ms, ns, ctx.points, beta, q)
    return _by_point(gaps), None, None, ()


class Row(NamedTuple):
    """An identity: ``run(ctx, **fixed)`` gives (lhs, rhs, scale, evaluated),
    whose ``rule`` residual must not exceed ``gate``."""

    run: Callable
    gate: float
    rule: str
    keys: tuple = ("q", "beta", "gamma")
    fixed: dict = {}    # read only


_QB = ("q", "beta")
_QBGT = ("q", "beta", "gamma", "t")
_REGISTRY = {
    **{name: Row(partial(_transform, name), 1e-9, "given") for name in
       ("bailey_2psi2_iterated", "bailey_2psi2_single", "wellpoised_6psi8")},
    "bilateral_delta_integral": Row(_bilateral_delta, 1e-7, "ratio", _QB),
    "bilateral_cn_recurrence": Row(_bilateral_recurrence, 1e-10, "given"),
    "bilateral_cn_constant_terms": Row(_constant_terms, 1e-9, "absolute"),
    "bilateral_cn_continuation_crosscheck": Row(_crosscheck, 1e-10, "unit"),
    "bilateral_cn_gamma_one_reduction": Row(_gamma_one_reduction, 1e-10, "unit",
                                            fixed={"gamma": 1.0}),
    "bilateral_cn_special_value_c0": Row(_special_value_c0, 1e-10, "relative"),
    "bilateral_cn_symmetry": Row(_symmetry, 1e-10, "given"),
    "classical_orthogonality_diagonal": Row(_orth_diag, 1e-8, "relative", _QB),
    "classical_orthogonality_offdiagonal": Row(_orth_offdiag, 1e-9, "relative", _QB),
    "dq_action_bilateral": Row(partial(_dq_action, BILATERAL_KIND, range(-4, 5)), 1e-8,
                               "given"),
    "dq_action_classical": Row(partial(_dq_action, CLASSICAL, range(1, 7)), 1e-10,
                               "given"),
    "generating_function_product": Row(_generating_function, 1e-8, "relative", _QBGT),
    "generating_function_coefficients": Row(_gf_fourier, 1e-7, "absolute", _QBGT),
    "kernel_integral": Row(_kernel_integral, 1e-8, "relative", _QB,
                           {"t1": 0.4, "t2": -0.25}),
    "linearization": Row(_linearization, 1e-10, "given", _QB),
    "ramanujan_1psi1": Row(_ramanujan_1psi1, 1e-9, "unit"),
    "shifted_orthogonality_diagonal": Row(_shifted_diag, 1e-6, "ratio"),
    "shifted_orthogonality_offdiagonal": Row(_shifted_offdiag, 1e-6, "relative"),
    "shifted_orthogonality_scaling": Row(_shifted_scaling, 1e-15, "absolute"),
}


def identity_names():
    return sorted(_REGISTRY)


def run_identity(name: str, config: dict | None = None) -> VerificationEntry:
    """Run one registered identity check at the given configuration."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown identity {name!r}; known: {', '.join(identity_names())}")
    return _run_one(name, ResolvedConfig(config))


def _run_one(name: str, ctx: ResolvedConfig) -> VerificationEntry:
    row = _REGISTRY[name]
    params = {key: ctx.cfg[key] for key in row.keys} | row.fixed
    try:
        lhs, rhs, scale, evaluated = row.run(ctx, **row.fixed)
        residual = _worst(row.rule, lhs, rhs, scale)
    except (RegionError, PoleError, DomainError, SingularPoint) as exc:
        skipped, note = True, f"{type(exc).__name__}: {exc}"
    except NonConvergence as exc:
        skipped, note = False, f"NonConvergence: {exc}"
    except QSeriesError:
        raise
    except Exception as exc:    # a fault of the library, not an unmet hypothesis
        skipped, note = False, f"internal error {type(exc).__name__}: {exc}"
    else:
        # a residual that is not a number fails its entry (nan <= gate is
        # false), and the note says so: render_json writes it as null
        note = "" if math.isfinite(residual) else f"residual is {residual}, not finite"
        return VerificationEntry(name, params, residual, row.gate,
                                 residual <= row.gate, *_counts(evaluated),
                                 note=note)
    # a skipped entry passes; one that did not finish fails
    return VerificationEntry(name, params, 0.0, row.gate, skipped,
                             skipped=skipped, note=note)


def run_suite(config: dict | None = None) -> VerificationReport:
    """Run every registered identity; never aborts on individual failures."""
    ctx = ResolvedConfig(config)
    entries = tuple(_run_one(name, ctx) for name in identity_names())
    return VerificationReport(SUITE_VERSION, entries, all(e.passed for e in entries))


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("report numbers must be finite")
    return format(v, ".17g")


def render_json(report: VerificationReport) -> str:
    """Serialize a report with 17-significant-digit numbers, fixed key
    order and LF line endings (byte-identical across identical runs).  A
    residual that is not finite is written as null: its entry has failed,
    and its note names the value."""
    lines = ["{", f'  "suite_version": {json.dumps(report.suite_version)},',
             f'  "overall_passed": {_fmt_number(report.overall_passed)},',
             '  "entries": [']
    for i, e in enumerate(report.entries):
        comma = "," if i + 1 < len(report.entries) else ""
        pstr = ", ".join(f'{json.dumps(k)}: {_fmt_number(e.params[k])}'
                         for k in sorted(e.params))
        lines.append("    {")
        lines.append(f'      "identity_name": {json.dumps(e.identity_name)},')
        lines.append("      \"params\": {" + pstr + "},")
        residual = _fmt_number(e.residual) if math.isfinite(e.residual) else "null"
        lines.append(f'      "residual": {residual},')
        lines.append(f'      "tolerance": {_fmt_number(e.tolerance)},')
        lines.append(f'      "passed": {_fmt_number(e.passed)},')
        lines.append(f'      "terms_used": {_fmt_number(e.terms_used)},')
        lines.append(f'      "nodes_used": {_fmt_number(e.nodes_used)},')
        lines.append(f'      "skipped": {_fmt_number(e.skipped)},')
        lines.append(f'      "note": {json.dumps(e.note)}')
        lines.append("    }" + comma)
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"

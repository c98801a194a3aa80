"""Named-identity verification suite and machine-readable reports.

Every identity the library implements is registered here with a runner
that returns a scaled residual, the tolerance it is held to, and
truncation diagnostics.  ``run_suite`` executes the registry on a
configuration, capturing per-entry errors: entries whose region or pole
preconditions fail are marked skipped (listed but not failing), and the
report is fully deterministic -- identical configurations produce
byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DomainError, NonConvergence, PoleError,
                     RegionError)
from .hyperseries import (BILATERAL, SeriesSpec, closed_form, sum_psi,
                          transform_residual)
from .qcore import SpectralPoint, TruncationPolicy
from .quadrature import (WeightParams, bilateral_delta_quadrature,
                         bilateral_delta_rhs, kernel_integral_rhs,
                         kernel_quadrature, orthogonality_diagonal,
                         orthogonality_quadrature,
                         shifted_orthogonality_quadrature,
                         shifted_orthogonality_rhs)
from .ultraspherical import (BILATERAL_KIND, CLASSICAL, UltraParams,
                             bilateral_cn, bilateral_cn_psi_form,
                             bilateral_cn_range, classical_cn, constant_term,
                             generating_rhs, linearization_residual,
                             recurrence_gap, special_value_c0, symmetry_gap,
                             symmetry_params)
from .awoperator import dq_action_residual

SUITE_VERSION = "1"

#: the suite's configuration; the CLI takes its defaults from here too
CONFIG_DEFAULTS = {
    "q": 0.3,
    "beta": 0.8,
    "gamma": 0.7,
    "t": 0.6,
    "thetas": (0.4, 1.0, 2.2),
    "rel_tol": 1e-13,
    "abs_tol": 1e-300,
    "max_terms": 10000,
    "tail_window": 3,
    "quad_tol": 1e-8,
    "shifted_tol": 1e-6,
    "delta_q": 0.3,
    "delta_beta": 0.8,
    "seed": 20240901,
}


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


class _Ctx:
    """Resolved configuration shared by all identity runners."""

    def __init__(self, config: dict | None):
        cfg = dict(CONFIG_DEFAULTS)
        for key, raw in (config or {}).items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            if key == "thetas":
                if isinstance(raw, str):
                    raw = tuple(float(v) for v in raw.split(",") if v.strip())
                cfg[key] = tuple(float(v) for v in raw)
            elif key in ("max_terms", "tail_window", "seed"):
                cfg[key] = int(raw)
            else:
                cfg[key] = float(raw)
        self.cfg = cfg
        try:
            self.policy = TruncationPolicy(cfg["rel_tol"], cfg["abs_tol"],
                                           cfg["max_terms"], cfg["tail_window"])
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if cfg["quad_tol"] <= 0 or cfg["shifted_tol"] <= 0:
            raise ConfigError("quadrature tolerances must be positive")
        try:
            self.params = UltraParams(cfg["beta"], cfg["gamma"], cfg["q"])
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        self.points = tuple(SpectralPoint.from_theta(t) for t in cfg["thetas"])
        self.rng = np.random.default_rng(cfg["seed"])

    def base_params(self) -> dict:
        return {"q": self.cfg["q"], "beta": self.cfg["beta"],
                "gamma": self.cfg["gamma"]}


def _ramanujan_1psi1(ctx: _Ctx):
    q = ctx.cfg["q"]
    worst = 0.0
    terms = 0
    for _ in range(20):
        amod = ctx.rng.uniform(0.5, 1.1)
        aarg = ctx.rng.uniform(0.0, 2 * np.pi)
        a = amod * np.exp(1j * aarg)
        b = a * ctx.rng.uniform(0.05, 0.3) * np.exp(1j * ctx.rng.uniform(0.0, 2 * np.pi))
        z = ctx.rng.uniform(0.45, 0.9) * np.exp(1j * ctx.rng.uniform(0.0, 2 * np.pi))
        lhs, used = sum_psi(SeriesSpec(BILATERAL, (a,), (b,), q, z), ctx.policy)
        rhs = closed_form("ramanujan_1psi1", (a, b, z), q, ctx.policy)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        terms = max(terms, used)
    return worst, 1e-9, ctx.base_params(), terms, 0


def _transform(name):
    def run(ctx: _Ctx):
        q = ctx.cfg["q"]
        worst = 0.0
        for _ in range(10):
            if name == "wellpoised_6psi8":
                base = np.array([0.5, 0.9, 0.8, 0.7, 0.6])
            else:
                base = np.array([0.9, 0.8, 0.1, 0.2, 0.5])
            while True:
                jitter = base * ctx.rng.uniform(0.85, 1.15, size=5)
                try:
                    worst = max(worst, transform_residual(name, jitter, q, ctx.policy))
                    break
                except RegionError:
                    continue
        return worst, 1e-9, ctx.base_params(), 0, 0
    return run


def _gamma_one_reduction(ctx: _Ctx):
    q, beta = ctx.cfg["q"], ctx.cfg["beta"]
    reduced = ctx.params.with_gamma(1.0)
    worst = 0.0
    terms = 0
    for p in ctx.points:
        rows = bilateral_cn_range(0, 8, p, reduced, ctx.policy)
        terms = max(terms, rows.truncation_terms.max())
        for n in range(0, 9):
            ref = classical_cn(n, p, beta, q)
            worst = max(worst, abs(rows[n] - ref) / max(1.0, abs(ref)))
    return worst, 1e-10, ctx.base_params() | {"gamma": 1.0}, terms, 0


def _bilateral_recurrence(ctx: _Ctx):
    worst = 0.0
    terms = 0
    for p in ctx.points:
        rows = bilateral_cn_range(-7, 7, p, ctx.params, ctx.policy)
        terms = max(terms, rows.truncation_terms.max())
        for n in range(-6, 7):
            worst = max(worst, recurrence_gap(n, p, ctx.params, rows[n - 1],
                                              rows[n], rows[n + 1]))
    return worst, 1e-10, ctx.base_params(), terms, 0


#: the largest |n| the generating-function sum may reach
_GF_MAX_N = 400


def _generating_function(ctx: _Ctx):
    t = ctx.cfg["t"]
    worst = 0.0
    terms = 0
    for p in ctx.points:
        rhs = generating_rhs(BILATERAL_KIND, t, p, ctx.params, ctx.policy)
        rows = bilateral_cn_range(-16, 16, p, ctx.params, ctx.policy)
        acc = rows[0] + 0j
        tail = 0
        n = 1
        while tail < 3:
            if n > rows.n_hi:  # the next block of rows on both sides
                reach = min(2 * rows.n_hi, _GF_MAX_N)
                rows = rows.widened(-reach, reach)
            shell = 0j
            for m in (n, -n):
                shell += rows[m] * t ** m
            acc += shell
            tail = tail + 1 if abs(shell) < 1e-12 * abs(rhs) else 0
            n += 1
            if n > _GF_MAX_N:
                raise NonConvergence("generating-function sum failed to settle")
        terms = max(terms, rows.truncation_terms.max())
        worst = max(worst, abs(acc - rhs) / abs(rhs))
    return worst, 1e-8, ctx.base_params() | {"t": t}, terms, 0


def _gf_fourier(ctx: _Ctx):
    """Laurent coefficients of the generating function on |t| = r recover
    the functions: 2^j-point circle sampling, doubled until stable."""
    r = ctx.cfg["t"]
    worst = 0.0
    terms = 0
    for p in ctx.points:
        m = 64
        prev = None
        while True:
            phis = 2 * np.pi * np.arange(m) / m
            samples = generating_rhs(BILATERAL_KIND, r * np.exp(1j * phis), p,
                                     ctx.params, ctx.policy)
            coeff = np.fft.fft(samples) / m
            if prev is not None:
                agree = max(abs(coeff[n] - prev[n]) for n in range(-4, 5))
                if agree < 1e-9:
                    break
            prev = coeff
            m *= 2
            if m > 4096:
                raise NonConvergence("coefficient extraction failed to settle")
        rows = bilateral_cn_range(-4, 4, p, ctx.params, ctx.policy)
        terms = max(terms, rows.truncation_terms.max())
        for n in range(-4, 5):
            extracted = coeff[n % m] / r ** n
            worst = max(worst, abs(extracted - rows[n]))
    return worst, 1e-7, ctx.base_params() | {"t": r}, terms, 0


def _symmetry(ctx: _Ctx):
    worst = 0.0
    terms = 0
    for p in ctx.points:
        rows = bilateral_cn_range(-4, 4, p, ctx.params, ctx.policy)
        mirror = bilateral_cn_range(-4, 4, p, symmetry_params(ctx.params),
                                    ctx.policy)
        terms = max(terms, rows.truncation_terms.max(),
                    mirror.truncation_terms.max())
        for n in range(-4, 5):
            worst = max(worst, symmetry_gap(n, ctx.params, rows[n], mirror[-n]))
    return worst, 1e-10, ctx.base_params(), terms, 0


def _constant_terms(ctx: _Ctx):
    rows = bilateral_cn_range(-4, 4, SpectralPoint(1j), ctx.params, ctx.policy)
    worst = 0.0
    for n in range(-4, 5):
        worst = max(worst, abs(rows[n] - constant_term(n, ctx.params, ctx.policy)))
    return worst, 1e-9, ctx.base_params(), rows.truncation_terms.max(), 0


def _special_value_c0(ctx: _Ctx):
    q = ctx.cfg["q"]
    p = SpectralPoint(complex(q ** 0.25))
    uv = bilateral_cn(0, p, ctx.params, ctx.policy)
    ref = special_value_c0(ctx.params, ctx.policy)
    resid = abs(uv.value - ref) / abs(ref)
    return resid, 1e-10, ctx.base_params(), uv.truncation_terms, 0


def _continuation_crosscheck(ctx: _Ctx):
    """The two analytic-continuation routes agree where both apply, and
    the direct sum matches the well-poised 2psi2 form in-region."""
    from .ultraspherical import _bilateral_6psi8, _bilateral_22tgl
    q = ctx.cfg["q"]
    worst = 0.0
    for p in ctx.points:
        for n in (-2, 0, 1):
            direct = bilateral_cn(n, p, ctx.params, ctx.policy).value
            psi = bilateral_cn_psi_form(n, p, ctx.params, ctx.policy)
            worst = max(worst, abs(direct - psi) / max(1.0, abs(direct)))
    for n in (-1, 0):
        z = complex(q ** 0.5) * np.exp(0.4j)
        a, _ = _bilateral_6psi8(n, z, ctx.params, ctx.policy)
        b, _ = _bilateral_22tgl(n, z, ctx.params, ctx.policy)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst, 1e-10, ctx.base_params(), 0, 0


def _dq_classical(ctx: _Ctx):
    worst = 0.0
    for p in ctx.points:
        for n in range(1, 7):
            worst = max(worst, dq_action_residual(
                CLASSICAL, n, p, ctx.params, ctx.policy))
    return worst, 1e-10, ctx.base_params(), 0, 0


def _dq_bilateral(ctx: _Ctx):
    worst = 0.0
    for p in ctx.points:
        for n in range(-4, 5):
            worst = max(worst, dq_action_residual(
                BILATERAL_KIND, n, p, ctx.params, ctx.policy))
    return worst, 1e-8, ctx.base_params(), 0, 0


def _orthogonality_offdiag(ctx: _Ctx):
    w = WeightParams(ctx.cfg["beta"], ctx.cfg["q"])
    res = orthogonality_quadrature(0, 0, w, ctx.cfg["quad_tol"], ctx.policy)
    scale, nodes = abs(res.value), res.nodes_used
    worst = 0.0
    for m in range(7):
        for n in range(m + 1, 7):
            res = orthogonality_quadrature(m, n, w, ctx.cfg["quad_tol"], ctx.policy)
            worst = max(worst, abs(res.value) / scale)
            nodes = max(nodes, res.nodes_used)
    return worst, 1e-9, {"q": ctx.cfg["q"], "beta": ctx.cfg["beta"]}, 0, nodes


def _orthogonality_diag(ctx: _Ctx):
    w = WeightParams(ctx.cfg["beta"], ctx.cfg["q"])
    worst = 0.0
    nodes = 0
    for n in range(7):
        res = orthogonality_quadrature(n, n, w, ctx.cfg["quad_tol"], ctx.policy)
        ref = orthogonality_diagonal(n, w, ctx.policy)
        worst = max(worst, abs(res.value - ref) / abs(ref))
        nodes = max(nodes, res.nodes_used)
    return worst, 1e-8, {"q": ctx.cfg["q"], "beta": ctx.cfg["beta"]}, 0, nodes


def _kernel_integral(ctx: _Ctx):
    w = WeightParams(ctx.cfg["beta"], ctx.cfg["q"])
    t1, t2 = 0.4, -0.25
    res = kernel_quadrature(t1, t2, w, ctx.cfg["quad_tol"], ctx.policy)
    ref = kernel_integral_rhs(t1, t2, w, ctx.policy)
    resid = abs(res.value - ref) / abs(ref)
    return resid, 1e-8, {"q": ctx.cfg["q"], "beta": ctx.cfg["beta"],
                         "t1": t1, "t2": t2}, 0, res.nodes_used


def _bilateral_delta(ctx: _Ctx):
    q, beta = ctx.cfg["delta_q"], ctx.cfg["delta_beta"]
    rhs0 = bilateral_delta_rhs(beta, q, ctx.policy)
    worst = 0.0
    nodes = 0
    for n in range(-3, 4):
        res = bilateral_delta_quadrature(n, beta, q, ctx.cfg["quad_tol"], ctx.policy)
        target = 1.0 if n == 0 else 0.0
        worst = max(worst, abs(res.value / rhs0 - target))
        nodes = max(nodes, res.nodes_used)
    return worst, 1e-7, {"q": q, "beta": beta}, 0, nodes


def _shifted_diag(ctx: _Ctx):
    worst = 0.0
    nodes = 0
    for n in range(-2, 3):
        lhs, rhs = shifted_orthogonality_quadrature(
            n, n, ctx.params, ctx.cfg["shifted_tol"], ctx.policy)
        worst = max(worst, abs(lhs.value / rhs - 1.0))
        nodes = max(nodes, lhs.nodes_used)
    return worst, 1e-6, ctx.base_params(), 0, nodes


def _shifted_offdiag(ctx: _Ctx):
    scale = abs(shifted_orthogonality_rhs(ctx.params, ctx.policy))
    worst = 0.0
    nodes = 0
    for (m, n) in ((0, 2), (1, -1)):
        lhs, _ = shifted_orthogonality_quadrature(
            m, n, ctx.params, ctx.cfg["shifted_tol"], ctx.policy)
        worst = max(worst, abs(lhs.value) / scale)
        nodes = max(nodes, lhs.nodes_used)
    return worst, 1e-6, ctx.base_params(), 0, nodes


def _shifted_scaling(ctx: _Ctx):
    beta, gamma, q = ctx.cfg["beta"], ctx.cfg["gamma"], ctx.cfg["q"]
    scale = beta ** 2 * gamma / q
    rhs0 = shifted_orthogonality_rhs(ctx.params, ctx.policy)
    worst = 0.0
    for n in (-2, -1, 1, 2):
        rhs = shifted_orthogonality_rhs(ctx.params, ctx.policy, n)
        worst = max(worst, abs(rhs - rhs0 * scale ** n))
    return worst, 1e-15, ctx.base_params(), 0, 0


def _linearization(ctx: _Ctx):
    q, beta = ctx.cfg["q"], ctx.cfg["beta"]
    worst = 0.0
    for p in ctx.points:
        for m in range(5):
            for n in range(5):
                worst = max(worst, linearization_residual(m, n, p, beta, q))
    return worst, 1e-10, {"q": q, "beta": beta}, 0, 0


_REGISTRY = {
    "bailey_2psi2_iterated": _transform("bailey_2psi2_iterated"),
    "bailey_2psi2_single": _transform("bailey_2psi2_single"),
    "bilateral_delta_integral": _bilateral_delta,
    "bilateral_cn_recurrence": _bilateral_recurrence,
    "bilateral_cn_constant_terms": _constant_terms,
    "bilateral_cn_continuation_crosscheck": _continuation_crosscheck,
    "bilateral_cn_gamma_one_reduction": _gamma_one_reduction,
    "bilateral_cn_special_value_c0": _special_value_c0,
    "bilateral_cn_symmetry": _symmetry,
    "classical_orthogonality_diagonal": _orthogonality_diag,
    "classical_orthogonality_offdiagonal": _orthogonality_offdiag,
    "dq_action_bilateral": _dq_bilateral,
    "dq_action_classical": _dq_classical,
    "generating_function_product": _generating_function,
    "generating_function_coefficients": _gf_fourier,
    "kernel_integral": _kernel_integral,
    "linearization": _linearization,
    "ramanujan_1psi1": _ramanujan_1psi1,
    "shifted_orthogonality_diagonal": _shifted_diag,
    "shifted_orthogonality_offdiagonal": _shifted_offdiag,
    "shifted_orthogonality_scaling": _shifted_scaling,
    "wellpoised_6psi8": _transform("wellpoised_6psi8"),
}


def identity_names():
    return sorted(_REGISTRY)


def run_identity(name: str, config: dict | None = None) -> VerificationEntry:
    """Run one registered identity check at the given configuration."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown identity {name!r}; known: {', '.join(identity_names())}")
    ctx = _Ctx(config)
    return _run_one(name, ctx)


def _run_one(name: str, ctx: _Ctx) -> VerificationEntry:
    try:
        residual, tol, params, terms, nodes = _REGISTRY[name](ctx)
    except (RegionError, PoleError, DomainError, ZeroDivisionError) as exc:
        return VerificationEntry(name, ctx.base_params(), 0.0, 0.0, True,
                                 skipped=True,
                                 note=f"{type(exc).__name__}: {exc}")
    except NonConvergence as exc:
        return VerificationEntry(name, ctx.base_params(), 0.0, 0.0, False,
                                 note=f"NonConvergence: {exc}")
    return VerificationEntry(name, params, float(residual), float(tol),
                             bool(residual <= tol), int(terms), int(nodes))


def run_suite(config: dict | None = None) -> VerificationReport:
    """Run every registered identity; never aborts on individual failures."""
    ctx = _Ctx(config)
    entries = []
    for name in sorted(_REGISTRY):
        entries.append(_run_one(name, ctx))
    overall = all(e.passed for e in entries)
    return VerificationReport(SUITE_VERSION, tuple(entries), overall)


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("report numbers must be finite")
    out = format(v, ".17g")
    return out


def _fmt_value(v) -> str:
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, (tuple, list)):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    return _fmt_number(v)


def render_json(report: VerificationReport) -> str:
    """Serialize a report with 17-significant-digit numbers, fixed key
    order and LF line endings (byte-identical across identical runs)."""
    lines = ["{"]
    lines.append(f'  "suite_version": {_fmt_value(report.suite_version)},')
    lines.append(f'  "overall_passed": {_fmt_number(report.overall_passed)},')
    lines.append('  "entries": [')
    for i, e in enumerate(report.entries):
        comma = "," if i + 1 < len(report.entries) else ""
        pstr = ", ".join(f'{_fmt_value(k)}: {_fmt_value(e.params[k])}'
                         for k in sorted(e.params))
        lines.append("    {")
        lines.append(f'      "identity_name": {_fmt_value(e.identity_name)},')
        lines.append("      \"params\": {" + pstr + "},")
        lines.append(f'      "residual": {_fmt_number(e.residual)},')
        lines.append(f'      "tolerance": {_fmt_number(e.tolerance)},')
        lines.append(f'      "passed": {_fmt_number(e.passed)},')
        lines.append(f'      "terms_used": {_fmt_number(e.terms_used)},')
        lines.append(f'      "nodes_used": {_fmt_number(e.nodes_used)},')
        lines.append(f'      "skipped": {_fmt_number(e.skipped)},')
        lines.append(f'      "note": {_fmt_value(e.note)}')
        lines.append("    }" + comma)
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"

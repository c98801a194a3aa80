"""Span tracing of the qultra layers from outside the package.

``Tracer.install()`` replaces a chosen set of qultra functions with
wrappers at every name a qultra module binds them to (``qultra.poch``,
``qultra.ultraspherical.poch``, ``qultra.quadrature.bilateral_cn``, ...),
so calls between modules pass through the wrapper as well as calls from
outside.  Each wrapped call records one span (name, start, end, parent)
in memory and adds to a few counters; ``uninstall()`` puts the original
functions back.  ``layer_metrics`` turns the spans and counters of one
pass into the per-layer metrics the benchmark reports.

Only public functions are wrapped (``QuadratureResult`` and the call
arguments say what the private helpers did), so refactors behind the
public names do not break the trace.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Span names, in report order.  A span's self time is its duration less
# the durations of its direct children.
POCH_INF = "qcore.poch_inf"
POCH_FINITE = "qcore.poch_finite"
SUM_PSI = "hyperseries.sum_psi"
SUM_PHI = "hyperseries.sum_phi"
DIRECT = "ultraspherical.direct"
CONTINUED = "ultraspherical.continued"
FALLBACK = "ultraspherical.array_fallback"
CLASSICAL = "ultraspherical.classical_cn"
GENERATING = "ultraspherical.generating_rhs"
APPLY_DQ = "awoperator.apply_dq"
INTEGRAL = "quadrature.integral"
SHIFTED = "quadrature.shifted_pair"
VERIFY = "verify"

LAYER_SPANS = (POCH_INF, POCH_FINITE, SUM_PSI, SUM_PHI, DIRECT, CONTINUED,
               FALLBACK, CLASSICAL, GENERATING, APPLY_DQ, INTEGRAL, SHIFTED)


def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, fn, name_of, count):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            name = name_of(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            count(name, result, *args, **kwargs)
            return result
        return wrapped

    def _hooks(self):
        """(module, function name, span namer, counter) for every traced call."""
        import numpy as np
        from qultra import ultraspherical
        from qultra.qcore import INFINITY

        def fixed(name):
            return lambda *a, **k: name

        def calls_only(name, result, *a, **k):
            pass

        def poch_name(*a, **k):
            return POCH_INF if _arg(a, k, 2, "k") == INFINITY else POCH_FINITE

        def poch_count(name, result, *a, **k):
            if name == POCH_INF:
                self.counts[POCH_INF + ".elements"] += _size(_arg(a, k, 0, "a"))

        def series_count(name, result, *a, **k):
            self.counts[name + ".terms"] += int(result[1])

        def cn_name(*a, **k):
            z = _arg(a, k, 1, "p").z
            params = _arg(a, k, 2, "params")
            inside = ultraspherical.in_direct_region(z, params.beta, params.q)
            if isinstance(z, np.ndarray):
                return DIRECT if inside else FALLBACK
            return DIRECT if inside else CONTINUED

        def cn_count(name, result, *a, **k):
            z = _arg(a, k, 1, "p").z
            if name == DIRECT:
                key = ".array_values" if isinstance(z, np.ndarray) else ".scalar_values"
                self.counts[DIRECT + key] += _size(z)
                self.counts[DIRECT + ".terms"] += int(result.truncation_terms)
            else:
                self.counts[name + ".values"] += _size(z)

        def integral_count(name, result, *a, **k):
            self.counts["quadrature.integrate.nodes"] += int(result.nodes_used)

        return [
            ("qultra.qcore", "poch", poch_name, poch_count),
            ("qultra.hyperseries", "sum_psi", fixed(SUM_PSI), series_count),
            ("qultra.hyperseries", "sum_phi", fixed(SUM_PHI), series_count),
            ("qultra.ultraspherical", "bilateral_cn", cn_name, cn_count),
            ("qultra.ultraspherical", "classical_cn", fixed(CLASSICAL), calls_only),
            ("qultra.ultraspherical", "generating_rhs", fixed(GENERATING), calls_only),
            ("qultra.awoperator", "apply_dq", fixed(APPLY_DQ), calls_only),
            ("qultra.quadrature", "integrate", fixed(INTEGRAL), integral_count),
            ("qultra.quadrature", "bilateral_delta_integral", fixed(INTEGRAL),
             calls_only),
            ("qultra.quadrature", "shifted_orthogonality_pair", fixed(SHIFTED),
             calls_only),
        ]

    def install(self):
        """Wrap every hooked function at each name a qultra module binds it to."""
        import qultra  # noqa: F401  (loads every submodule)
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "qultra" or k.startswith("qultra."))]
        for home, attr, name_of, count in self._hooks():
            original = getattr(sys.modules[home], attr)
            wrapped = self._wrapper(original, name_of, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path, meta: dict):
        """Write the spans of the current pass as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Self time per span name, and the time the top-level spans cover."""
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            top += end - start
    out = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out, top


def layer_metrics(spans, counts, wall_s: float, identity_names=()) -> dict:
    """Per-layer metrics of one traced pass: counts, self times and the
    time outside any span.  ``verify.<identity>`` spans are reported by
    their inclusive duration as ``verify.<identity>.s``; their self times
    together form ``verify.self_s``."""
    selfs, top = self_times(spans)
    calls = Counter(name for name, *_ in spans)
    m = {}
    for name in LAYER_SPANS:
        m[name + ".self_s"] = selfs[name]
    for name in (POCH_INF, POCH_FINITE, SUM_PSI, SUM_PHI, CLASSICAL, GENERATING,
                 APPLY_DQ, INTEGRAL, SHIFTED):
        m[name + ".calls"] = calls[name]
    for key in (POCH_INF + ".elements", SUM_PSI + ".terms", SUM_PHI + ".terms",
                DIRECT + ".scalar_values", DIRECT + ".array_values",
                DIRECT + ".terms", CONTINUED + ".values", FALLBACK + ".values",
                "quadrature.integrate.nodes"):
        m[key] = counts[key]
    idx_continued = {i for i, s in enumerate(spans) if s[0] == CONTINUED}
    psi_under = sum(1 for s in spans if s[0] == SUM_PSI and s[3] in idx_continued)
    values = counts[CONTINUED + ".values"]
    m[CONTINUED + ".sum_psi_per_value"] = psi_under / values if values else 0.0
    inclusive = Counter()
    for name, start, end, parent in spans:
        if name.startswith(VERIFY + "."):
            inclusive[name] += end - start
    for ident in identity_names:
        m[f"{VERIFY}.{ident}.s"] = inclusive[f"{VERIFY}.{ident}"]
    m[VERIFY + ".self_s"] = sum(v for k, v in selfs.items()
                                if k.startswith(VERIFY + "."))
    m["trace.wall_s"] = wall_s
    m["trace.outside_s"] = wall_s - top
    m["trace.spans"] = len(spans)
    return m

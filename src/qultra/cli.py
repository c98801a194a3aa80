"""Command-line front end: spot evaluation, targeted identity checks,
the full verification suite, and CSV value tables.

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error, 3 numerical error (non-convergence or a parameter pole in a
direct eval/identity call).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from .errors import (ConfigError, DomainError, NonConvergence, PoleError,
                     QSeriesError, RegionError, SingularPoint)
from .qcore import SpectralPoint
from .ultraspherical import BILATERAL_KIND, CLASSICAL, bilateral_cn, classical_cn
from .verify import (SUITE_VERSION, ResolvedConfig, VerificationReport,
                     identity_names, render_json, run_identity, run_suite)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--q", type=float, default=None)
    ap.add_argument("--beta", type=float, default=None)
    ap.add_argument("--gamma", type=float, default=None)
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--x", type=float, default=None)
    ap.add_argument("--theta", type=float, default=None)
    ap.add_argument("--z-re", type=float, default=None)
    ap.add_argument("--z-im", type=float, default=None)
    ap.add_argument("--rel-tol", type=float, default=None)
    ap.add_argument("--abs-tol", type=float, default=None)
    ap.add_argument("--max-terms", type=int, default=None)
    ap.add_argument("--quad-tol", type=float, default=None)
    ap.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ap.add_argument("--config", type=str, default=None,
                    help="flat key = value file; flags override file values")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qultra",
        description="bilateral q-ultraspherical functions: evaluation and "
                    "identity verification")
    # no abbreviated flags (allow_abbrev): --m would read as --max-terms
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one function value",
                        allow_abbrev=False)
    ev.add_argument("--kind", choices=(CLASSICAL, BILATERAL_KIND),
                    default=BILATERAL_KIND)
    _add_common(ev)

    idp = sub.add_parser("identity", help="run one named identity check",
                         allow_abbrev=False)
    idp.add_argument("--name", required=True,
                     help="one of: " + ", ".join(identity_names()))
    _add_common(idp)

    sp = sub.add_parser("suite", help="run the full verification suite",
                        allow_abbrev=False)
    _add_common(sp)

    tb = sub.add_parser("table", help="CSV grid of values over theta and n",
                        allow_abbrev=False)
    tb.add_argument("--kind", choices=(CLASSICAL, BILATERAL_KIND),
                    default=BILATERAL_KIND)
    tb.add_argument("--n-min", type=int, default=None)
    tb.add_argument("--n-max", type=int, default=None)
    tb.add_argument("--theta-min", type=float, default=0.4)
    tb.add_argument("--theta-max", type=float, default=2.2)
    tb.add_argument("--theta-steps", type=int, default=7)
    _add_common(tb)
    return ap


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments allowed."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


_FLAG_KEYS = {"q": "q", "beta": "beta", "gamma": "gamma",
              "rel_tol": "rel_tol", "abs_tol": "abs_tol",
              "max_terms": "max_terms", "quad_tol": "quad_tol"}


def merge_config(args: argparse.Namespace) -> dict:
    cfg = read_config_file(args.config) if args.config else {}
    for attr, key in _FLAG_KEYS.items():
        val = getattr(args, attr, None)
        if val is not None:
            cfg[key] = val
    return cfg


def resolve_point(args: argparse.Namespace) -> SpectralPoint:
    given = [name for name, val in (("--x", args.x), ("--theta", args.theta),
                                    ("--z-re/--z-im", args.z_re))
             if val is not None]
    if len(given) != 1:
        raise ConfigError(
            "give exactly one of --x, --theta, --z-re [--z-im], got: "
            + (", ".join(given) or "none"))
    if args.x is not None:
        return SpectralPoint.from_x(args.x)
    if args.theta is not None:
        return SpectralPoint.from_theta(args.theta)
    return SpectralPoint(complex(args.z_re, args.z_im or 0.0))


def cmd_eval(args: argparse.Namespace) -> int:
    ctx = ResolvedConfig(merge_config(args))
    q, beta, gamma = ctx.cfg["q"], ctx.cfg["beta"], ctx.cfg["gamma"]
    n = args.n if args.n is not None else 0
    p = resolve_point(args)
    if args.kind == CLASSICAL:
        value, terms = classical_cn(n, p, beta, q), n + 1
    else:
        uv = bilateral_cn(n, p, ctx.params, ctx.policy)
        value, terms = uv.value, uv.truncation_terms
    if args.format == "json":
        print('{"re": %.17g, "im": %.17g, "terms": %d}'
              % (value.real, value.imag, terms))
    elif args.format == "csv":
        print("re,im,terms\n%.17g,%.17g,%d" % (value.real, value.imag, terms))
    else:
        print(f"{args.kind} C_{n}(z = {complex(p.z):.17g}; beta = {beta}, "
              f"gamma = {gamma} | q = {q}) = {value:.17g}   (terms = {terms})")
    return EXIT_OK


def cmd_identity(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    entry = run_identity(args.name, cfg)
    if args.format == "json":
        print(render_json(VerificationReport(SUITE_VERSION, (entry,),
                                             entry.passed)), end="")
    else:
        state = "SKIP" if entry.skipped else ("PASS" if entry.passed else "FAIL")
        print(f"{state} {entry.identity_name}: residual = {entry.residual:.3e} "
              f"(tolerance {entry.tolerance:.1e})"
              + (f" [{entry.note}]" if entry.note else ""))
    if entry.skipped:
        return EXIT_OK
    return EXIT_OK if entry.passed else EXIT_VERIFY_FAILED


def cmd_suite(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    report = run_suite(cfg)
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["identity_name", "residual", "tolerance", "passed",
                         "terms_used", "nodes_used", "skipped", "note"])
        for e in report.entries:
            writer.writerow([e.identity_name, "%.17g" % e.residual,
                             "%.17g" % e.tolerance, str(e.passed).lower(),
                             e.terms_used, e.nodes_used,
                             str(e.skipped).lower(), e.note])
        sys.stdout.write(buf.getvalue())
    else:
        for e in report.entries:
            state = "SKIP" if e.skipped else ("PASS" if e.passed else "FAIL")
            extra = f"  [{e.note}]" if e.note else ""
            print(f"{state:4s} {e.identity_name:40s} residual {e.residual:10.3e}"
                  f"  tol {e.tolerance:8.1e}{extra}")
        print("overall:", "PASS" if report.overall_passed else "FAIL")
    return EXIT_OK if report.overall_passed else EXIT_VERIFY_FAILED


def cmd_table(args: argparse.Namespace) -> int:
    ctx = ResolvedConfig(merge_config(args))
    q, beta = ctx.cfg["q"], ctx.cfg["beta"]
    n_lo = args.n_min if args.n_min is not None else (args.n or 0)
    n_hi = args.n_max if args.n_max is not None else (args.n or 0)
    if n_hi < n_lo:
        raise ConfigError("--n-max must be >= --n-min")
    if args.kind == CLASSICAL and n_lo < 0:
        raise ConfigError("classical polynomials need n >= 0")
    if args.theta_steps < 1:
        raise ConfigError("--theta-steps must be >= 1")
    thetas = np.linspace(args.theta_min, args.theta_max, args.theta_steps)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "theta", "re", "im", "terms"])
    for n in range(n_lo, n_hi + 1):
        for theta in thetas:
            p = SpectralPoint.from_theta(float(theta))
            if args.kind == CLASSICAL:
                val, terms = classical_cn(n, p, beta, q), n + 1
            else:
                uv = bilateral_cn(n, p, ctx.params, ctx.policy)
                val, terms = uv.value, uv.truncation_terms
            writer.writerow([n, "%.17g" % float(theta), "%.17g" % val.real,
                             "%.17g" % val.imag, terms])
    sys.stdout.write(buf.getvalue())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "identity":
            return cmd_identity(args)
        if args.command == "suite":
            return cmd_suite(args)
        if args.command == "table":
            return cmd_table(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, PoleError, SingularPoint) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

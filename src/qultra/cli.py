"""Command-line front end: spot evaluation, targeted identity checks,
the full verification suite, and CSV value tables.

Each command accepts only the flags it reads (see build_parser); table
writes CSV only, the other three take --format text|json|csv.

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error, 3 numerical error (non-convergence, a value that left the double
range, or a parameter pole in a direct eval/identity call).
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
from .verify import (CONFIG_DEFAULTS, SUITE_VERSION, ResolvedConfig,
                     VerificationReport, identity_names, render_json,
                     run_identity, run_suite)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _flags(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding flags that share one set of options."""
    ap = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        ap.add_argument(flag, **kwargs)
    return ap


def build_parser() -> argparse.ArgumentParser:
    # configuration flags keep their raw strings: ResolvedConfig converts
    # and checks them exactly as it does the values of a --config file
    config = _flags("--q", "--beta", "--gamma", "--rel-tol", "--max-terms",
                    metavar="VALUE")
    config.add_argument("--config", metavar="FILE",
                        help="flat key = value file; flags override file values")
    quad = _flags("--quad-tol", metavar="VALUE")
    fmt = _flags("--format", choices=("text", "json", "csv"), default="text")
    kind = _flags("--kind", choices=(CLASSICAL, BILATERAL_KIND),
                  default=BILATERAL_KIND)

    ap = argparse.ArgumentParser(
        prog="qultra",
        description="bilateral q-ultraspherical functions: evaluation and "
                    "identity verification")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        # no abbreviated flags (allow_abbrev): --m would read as --max-terms
        sp = sub.add_parser(name, help=help, parents=[config, *parents],
                            allow_abbrev=False)
        sp.set_defaults(func=func)
        return sp

    ev = command("eval", cmd_eval, "evaluate one function value", kind, fmt)
    ev.add_argument("--n", type=int, default=0)
    point = ev.add_mutually_exclusive_group(required=True)
    point.add_argument("--x", type=float)
    point.add_argument("--theta", type=float)
    point.add_argument("--z-re", type=float)
    ev.add_argument("--z-im", type=float, help="imaginary part; needs --z-re")

    idp = command("identity", cmd_identity, "run one named identity check",
                  quad, fmt)
    idp.add_argument("--name", required=True,
                     help="one of: " + ", ".join(identity_names()))

    command("suite", cmd_suite, "run the full verification suite", quad, fmt)

    tb = command("table", cmd_table, "CSV grid of values over theta and n",
                 kind)
    tb.add_argument("--n-min", type=int, default=0)
    tb.add_argument("--n-max", type=int, default=0)
    tb.add_argument("--theta-min", type=float, default=0.4)
    tb.add_argument("--theta-max", type=float, default=2.2)
    tb.add_argument("--theta-steps", type=int, default=7)
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


def merge_config(args: argparse.Namespace) -> dict:
    """The --config file's values, overridden by the configuration flags
    given (the flags whose names are configuration keys)."""
    cfg = read_config_file(args.config) if args.config else {}
    cfg.update((key, val) for key, val in vars(args).items()
               if key in CONFIG_DEFAULTS and val is not None)
    return cfg


def resolve_point(args: argparse.Namespace) -> SpectralPoint:
    if args.z_re is not None:
        return SpectralPoint(complex(args.z_re, args.z_im or 0.0))
    if args.z_im is not None:
        raise ConfigError("--z-im needs --z-re")
    if args.x is not None:
        return SpectralPoint.from_x(args.x)
    return SpectralPoint.from_theta(args.theta)


def _value(kind: str, n: int, p: SpectralPoint, ctx: ResolvedConfig):
    """C_n at p of the given kind, and the number of terms it took."""
    if kind == CLASSICAL:
        return classical_cn(n, p, ctx.cfg["beta"], ctx.cfg["q"]), n + 1
    uv = bilateral_cn(n, p, ctx.params, ctx.policy)
    return uv.value, uv.truncation_terms


def cmd_eval(args: argparse.Namespace) -> int:
    ctx = ResolvedConfig(merge_config(args))
    p = resolve_point(args)
    value, terms = _value(args.kind, args.n, p, ctx)
    if args.format == "json":
        print('{"re": %.17g, "im": %.17g, "terms": %d}'
              % (value.real, value.imag, terms))
    elif args.format == "csv":
        print("re,im,terms\n%.17g,%.17g,%d" % (value.real, value.imag, terms))
    else:
        cfg = ctx.cfg
        print(f"{args.kind} C_{args.n}(z = {complex(p.z):.17g}; "
              f"beta = {cfg['beta']}, gamma = {cfg['gamma']} | q = {cfg['q']})"
              f" = {value:.17g}   (terms = {terms})")
    return EXIT_OK


def render_report(report: VerificationReport, fmt: str) -> str:
    """A report as JSON (render_json), CSV with one row per entry, or text
    with one line per entry and an overall verdict."""
    if fmt == "json":
        return render_json(report)
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["identity_name", "residual", "tolerance", "passed",
                         "terms_used", "nodes_used", "skipped", "note"])
        for e in report.entries:
            writer.writerow([e.identity_name, "%.17g" % e.residual,
                             "%.17g" % e.tolerance, str(e.passed).lower(),
                             e.terms_used, e.nodes_used,
                             str(e.skipped).lower(), e.note])
        return buf.getvalue()
    for e in report.entries:
        state = "SKIP" if e.skipped else ("PASS" if e.passed else "FAIL")
        extra = f"  [{e.note}]" if e.note else ""
        buf.write(f"{state:4s} {e.identity_name:40s} residual {e.residual:10.3e}"
                  f"  tol {e.tolerance:8.1e}{extra}\n")
    buf.write(f"overall: {'PASS' if report.overall_passed else 'FAIL'}\n")
    return buf.getvalue()


def _write_report(report: VerificationReport, fmt: str) -> int:
    sys.stdout.write(render_report(report, fmt))
    return EXIT_OK if report.overall_passed else EXIT_VERIFY_FAILED


def cmd_identity(args: argparse.Namespace) -> int:
    # a skipped entry counts as passed, so it exits 0
    entry = run_identity(args.name, merge_config(args))
    return _write_report(VerificationReport(SUITE_VERSION, (entry,),
                                            entry.passed), args.format)


def cmd_suite(args: argparse.Namespace) -> int:
    return _write_report(run_suite(merge_config(args)), args.format)


def cmd_table(args: argparse.Namespace) -> int:
    ctx = ResolvedConfig(merge_config(args))
    if args.n_max < args.n_min:
        raise ConfigError("--n-max must be >= --n-min")
    if args.theta_steps < 1:
        raise ConfigError("--theta-steps must be >= 1")
    thetas = np.linspace(args.theta_min, args.theta_max, args.theta_steps)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "theta", "re", "im", "terms"])
    for n in range(args.n_min, args.n_max + 1):
        for theta in thetas:
            val, terms = _value(args.kind, n,
                                SpectralPoint.from_theta(float(theta)), ctx)
            writer.writerow([n, "%.17g" % float(theta), "%.17g" % val.real,
                             "%.17g" % val.imag, terms])
    sys.stdout.write(buf.getvalue())
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, DomainError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, PoleError, SingularPoint) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

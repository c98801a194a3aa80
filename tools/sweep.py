"""Run the verification suite over a grid of configurations and compare its
verdicts with a committed table.

    python3 tools/sweep.py             # run the 136 configurations, diff the table
    python3 tools/sweep.py --update    # run them and rewrite the table

The grid is q in {0.1, 0.3, 0.5, 0.7}, beta in {-0.5, 0.4, 0.8, 0.95, 1.2}
and gamma in {0.3, 0.7, 1.0, 1.5}; near q = 1 the configurations with
q in {0.85, 0.9}, beta in {0.4, 0.8, 0.95, 1.2} and the same gammas but
(0.9, 0.95, 1.0), 31 of them; and the negative base q = -0.5 with every
beta and gamma in {0.3, 0.7, 1.0, 1.5, 4.0}, 25 of them, where q^Z has
both signs and gamma = 4.0 = q^-2 puts (q gamma; q)_inf on its lattice.
The near-1 configurations left out take too long: at beta = -0.5 the
quadrature entries run 4-28 s each before they fail at the node cap, and
at (0.9, 0.95, 1.0) the shifted diagonal entry runs for minutes.  Every
other setting is the suite's default.

For each configuration the script records which entries failed and which
were skipped (an exception that escapes run_suite is recorded as a
crash), prints per-entry fail and skip counts over the grid, then how
many continued (n, point) values each continuation route gave over the
grid, and lists every configuration whose verdicts differ from
tools/sweep_verdicts.json.  It exits 1 on any difference and 0 otherwise.
It imports qultra from src/ beside this directory and takes 7-10 s on a
2-core x86-64 machine.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qultra.ultraspherical as us  # noqa: E402
from qultra.verify import run_suite  # noqa: E402

TABLE = Path(__file__).resolve().parent / "sweep_verdicts.json"
QS = (0.1, 0.3, 0.5, 0.7)
BETAS = (-0.5, 0.4, 0.8, 0.95, 1.2)
GAMMAS = (0.3, 0.7, 1.0, 1.5)
NEAR_ONE = (0.85, 0.9)      # with BETAS[1:], and without SLOW
SLOW = (0.9, 0.95, 1.0)
NEGATIVE = -0.5             # with BETAS and GAMMAS + (4.0,)


def verdicts(q: float, beta: float, gamma: float) -> dict:
    """{"failed": [...], "skipped": [...]} of the suite at one configuration,
    or {"crash": "<exception>"} if run_suite raises."""
    try:
        report = run_suite({"q": q, "beta": beta, "gamma": gamma})
    except Exception as exc:  # a crash is a verdict of its own
        return {"crash": f"{type(exc).__name__}: {exc}"}
    return {"failed": sorted(e.identity_name for e in report.entries if not e.passed),
            "skipped": sorted(e.identity_name for e in report.entries if e.skipped)}


def sweep() -> dict:
    grid = [*itertools.product(QS, BETAS, GAMMAS),
            *(c for c in itertools.product(NEAR_ONE, BETAS[1:], GAMMAS) if c != SLOW),
            *itertools.product((NEGATIVE,), BETAS, GAMMAS + (4.0,))]
    return {f"{q} {beta} {gamma}": verdicts(q, beta, gamma) for q, beta, gamma in grid}


def summary(table: dict) -> str:
    failed, skipped = Counter(), Counter()
    for v in table.values():
        failed.update(v.get("failed", ()))
        skipped.update(v.get("skipped", ()))
    crashes = [k for k, v in table.items() if "crash" in v]
    lines = [f"{len(table)} configurations, "
             f"{sum(1 for v in table.values() if v.get('failed'))} with a failed entry, "
             f"{len(crashes)} crashed"]
    for name in sorted(set(failed) | set(skipped)):
        lines.append(f"  {name:45s} failed {failed[name]:3d}  skipped {skipped[name]:3d}")
    lines += [f"  crash at q beta gamma = {k}: {table[k]['crash']}" for k in crashes]
    return "\n".join(lines)


ROUTES = ("pole expansion", "recurrence", "lattice mean")


@contextlib.contextmanager
def route_census(counts: Counter):
    """While active, count in counts, by route (ROUTES), each value that
    the continuation of bilateral_cn and bilateral_cn_range
    (ultraspherical._point_rows) computes at a point off the direct
    annulus.  An off-lattice row counts as the expansion's where
    _PoleRings.value gave it and as the recurrence's otherwise; the rows
    the recurrence reads past the range asked for are not counted, and a
    lattice row counts once, as the lattice mean's, not its circle
    points' values."""
    calls = []      # the active counted calls: True a _point_rows, False a mean
    given = set()   # the rows the expansion gave in the current _continued_rows
    saved = point_rows, continued_rows, lattice_rows, pole_value = (
        us._point_rows, us._continued_rows, us._lattice_rows, us._PoleRings.value)

    def within(flag, call, *args):
        calls.append(flag)
        try:
            return call(*args)
        finally:
            calls.pop()

    def counted_pole_value(self, n, *args):
        out = pole_value(self, n, *args)
        given.add(n)
        return out

    def counted_continued_rows(n_lo, n_hi, *args):
        given.clear()
        rows = continued_rows(n_lo, n_hi, *args)
        if calls == [True]:
            expansion = sum(n_lo <= n <= n_hi for n in given)
            counts[ROUTES[0]] += expansion
            counts[ROUTES[1]] += n_hi - n_lo + 1 - expansion
        return rows

    def counted_lattice_rows(*args):
        rows = within(False, lattice_rows, *args)
        counts[ROUTES[2]] += len(rows)
        return rows

    us._point_rows, us._continued_rows, us._lattice_rows, us._PoleRings.value = (
        lambda *args: within(True, point_rows, *args), counted_continued_rows,
        counted_lattice_rows, counted_pole_value)
    try:
        yield counts
    finally:
        us._point_rows, us._continued_rows, us._lattice_rows, us._PoleRings.value = saved


def census_line(counts: Counter) -> str:
    return "continued values by route: " + ", ".join(
        f"{name} {counts[name]:,}" for name in ROUTES)


def differences(expected: dict, got: dict) -> list[str]:
    out = []
    for key in sorted(set(expected) | set(got)):
        want, have = expected.get(key), got.get(key)
        if want != have:
            out.append(f"q beta gamma = {key}: expected {want}, got {have}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {TABLE.name} with this run's verdicts")
    args = parser.parse_args(argv)
    census = Counter()
    with route_census(census):
        got = sweep()
    print(summary(got))
    print(census_line(census))
    if args.update:
        TABLE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {TABLE}")
        return 0
    diff = differences(json.loads(TABLE.read_text()), got)
    print("\n".join(diff) if diff else f"verdicts match {TABLE.name}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

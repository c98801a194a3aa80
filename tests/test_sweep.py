"""A tier-1 subset of the configuration sweep in tools/sweep.py: one
configuration for every entry that fails anywhere on the sweep grid, plus
the defaults and the negative base at its pole lattice gamma = q^-2, each
held to its row of tools/sweep_verdicts.json."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).resolve().parent.parent / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)
TABLE = json.loads(sweep.TABLE.read_text())

SUBSET = ("0.5 0.4 0.7", "0.5 -0.5 0.3", "0.7 0.4 0.3", "0.7 1.2 0.3",
          "0.7 0.8 1.5", "0.1 0.4 0.3", "0.3 0.8 0.7", "0.7 0.4 1.5",
          "0.3 0.8 1.0", "0.85 0.4 0.3", "0.9 0.4 0.3", "-0.5 0.8 4.0")


def test_subset_covers_every_failing_entry():
    failing = {name for v in TABLE.values() for name in v.get("failed", ())}
    covered = {name for key in SUBSET for name in TABLE[key]["failed"]}
    assert failing == covered


@pytest.mark.parametrize("key", SUBSET)
def test_sweep_verdicts_match_the_table(key):
    q, beta, gamma = (float(x) for x in key.split())
    assert sweep.verdicts(q, beta, gamma) == TABLE[key]


def test_route_census_counts_continued_values_by_route():
    # at the defaults every continued value off the lattice comes from the
    # pole expansion, the crosscheck's bilateral_cn_continued values too
    point_rows = sweep.us._point_rows
    counts = sweep.Counter()
    with sweep.route_census(counts):
        assert sweep.verdicts(0.3, 0.8, 0.7) == TABLE["0.3 0.8 0.7"]
    assert sweep.us._point_rows is point_rows
    assert counts["pole expansion"] > 0
    assert sweep.census_line(counts) == (
        f"continued values by route: pole expansion {counts['pole expansion']:,}, "
        f"recurrence 0, lattice mean 0")


def test_route_census_counts_a_lattice_row_once():
    # z = q^{1/2}: seven rows, each the mean of 64 circle points that the
    # pole expansion gives, count as seven lattice-mean values
    from qultra import SpectralPoint, UltraParams, bilateral_cn_range
    counts = sweep.Counter()
    with sweep.route_census(counts):
        bilateral_cn_range(-3, 3, SpectralPoint(complex(0.3 ** 0.5)),
                           UltraParams(0.8, 0.7, 0.3))
    assert sweep.census_line(counts) == (
        "continued values by route: pole expansion 0, recurrence 0, lattice mean 7")


def test_route_census_counts_recurrence_rows_in_the_range_only():
    # at (0.85, 0.8, 0.3), z = e^{0.3i}/30, the pole expansion refuses the
    # rows -16..-1 for their ring ratio; the recurrence gives them from
    # C_-17 and C_0, which it reads but the census does not count twice
    from qultra import SpectralPoint, UltraParams, bilateral_cn_range
    import cmath
    counts = sweep.Counter()
    with sweep.route_census(counts):
        bilateral_cn_range(-5, 3, SpectralPoint(cmath.exp(0.3j) / 30),
                           UltraParams(0.8, 0.3, 0.85))
    assert sweep.census_line(counts) == (
        "continued values by route: pole expansion 4, recurrence 5, lattice mean 0")

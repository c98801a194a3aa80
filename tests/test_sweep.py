"""A tier-1 subset of the configuration sweep in tools/sweep.py: one
configuration for every entry that fails anywhere on the sweep grid, plus
the defaults, each held to its row of tools/sweep_verdicts.json."""

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
          "0.7 0.8 1.5", "0.1 0.4 0.3", "0.3 0.8 0.7", "0.7 0.4 1.5")


def test_subset_covers_every_failing_entry():
    failing = {name for v in TABLE.values() for name in v.get("failed", ())}
    covered = {name for key in SUBSET for name in TABLE[key]["failed"]}
    assert failing == covered


@pytest.mark.parametrize("key", SUBSET)
def test_sweep_verdicts_match_the_table(key):
    q, beta, gamma = (float(x) for x in key.split())
    assert sweep.verdicts(q, beta, gamma) == TABLE[key]

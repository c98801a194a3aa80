"""The summary line of tools/compare_values.py on hand-made records."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "compare_values",
    Path(__file__).resolve().parent.parent / "tools" / "compare_values.py")
compare_values = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_values)


def test_summary_names_the_largest_change_switches_and_zero_signs():
    diffs = [
        ("cn a", ["ok", [["1.0", "0.0"], 40]], ["ok", [["1.0", "-0.0"], 40]]),
        ("cn b", ["ok", [["2.0", "0.0"], 40]], ["ok", [["2.0000002", "0.0"], 44]]),
        ("range c", ["ok", [[["4.0", "0.0"], ["-8.0", "0.0"]], [3, 3]]],
         ["ok", [[["4.0", "0.0"], ["-8.00001", "0.0"]], [3, 3]]]),
        ("cn d", ["ok", [["1.0", "0.0"], 9]], ["error", "NonConvergence", "overflowed"]),
        ("poch e", ["ok", ["0.5", "-0.0"]], ["ok", ["0.5", "0.0"]]),
    ]
    line = compare_values.summary(diffs)
    assert line.startswith("largest relative value change 1.25e-06 (range c);")
    assert "; 1 records switch between a value and an error;" in line
    assert line.endswith(" 2 differ only in the sign of a zero")
    assert compare_values.summary([]).startswith("largest relative value change 0;")

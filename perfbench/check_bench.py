"""Tests of the benchmark itself (kept out of the tier-1 run by its name).

    python3 -m pytest -q perfbench/check_bench.py

* per-layer self times add up to the traced wall time, less the time
  outside any span;
* every per-layer count repeats exactly across two traced runs;
* each correctness check rejects a deliberately perturbed value;
* BENCHMARK.json lists exactly the metrics the benchmark prints;
* without ``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def traced_pass(name, inp):
    rnd, metrics = run.traced_round(WORKLOADS[name], inp, tr.Tracer())
    return rnd.outputs(), metrics


@pytest.fixture(scope="module")
def traces():
    """Two traced passes of every workload on the same inputs."""
    out = {}
    for name, w in WORKLOADS.items():
        inp = w.make_inputs(SEED)
        out[name] = (inp, traced_pass(name, inp), traced_pass(name, inp))
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_add_up_to_traced_wall(traces, name):
    _, (_, m), _ = traces[name]
    selfs = [v for k, v in m.items() if k.endswith(".self_s")]
    assert min(selfs) >= -1e-9
    assert sum(selfs) + m["trace.outside_s"] == pytest.approx(m["trace.wall_s"],
                                                              rel=1e-9)
    assert m["trace.outside_s"] >= 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_across_traced_passes(traces, name):
    _, (res1, m1), (res2, m2) = traces[name]
    counts1 = {k: v for k, v in m1.items() if run.layer_unit(k) != "s"}
    counts2 = {k: v for k, v in m2.items() if run.layer_unit(k) != "s"}
    assert counts1 == counts2
    assert run.fingerprint(res1) == run.fingerprint(res2)


def test_layers_touched_where_predicted(traces):
    circle = traces["table-circle"][1][1]
    off = traces["table-offannulus"][1][1]
    suite = traces["suite-default"][1][1]
    assert circle["ultraspherical.direct.scalar_values"] > 0
    for key in ("qcore.poch_inf.calls", "qcore.poch_finite.calls",
                "hyperseries.sum_psi.calls", "ultraspherical.continued.values",
                "quadrature.integral.calls"):
        assert circle[key] == 0, key
    assert off["ultraspherical.continued.values"] > 0
    assert off["ultraspherical.array_fallback.values"] > 0
    assert off["ultraspherical.direct.scalar_values"] == 0
    for key in ("quadrature.integral.calls", "quadrature.shifted_pair.calls",
                "awoperator.apply_dq.calls", "ultraspherical.direct.array_values",
                "quadrature.integrate.nodes"):
        assert suite[key] > 0, key


def test_tracer_restores_the_library():
    import qultra.quadrature as quad
    import qultra.ultraspherical as ultra
    from qultra import qcore
    before = (ultra.poch, quad.bilateral_cn, qcore.poch)
    t = tr.Tracer()
    with t.installed():
        assert ultra.poch is not before[0]
        assert quad.bilateral_cn is not before[1]
    assert (ultra.poch, quad.bilateral_cn, qcore.poch) == before


def test_counts_repeat_across_two_traced_runs(tmp_path):
    """Two runs of the real command, as the benchmark is driven."""
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "table-offannulus",
             "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for r in runs:
        assert r["correct"] and r["failed"] == 0
    c1, c2 = ({k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
              for r in runs)
    assert c1 == c2


def test_benchmark_json_lists_the_printed_metrics(traces):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    _, (_, metrics), _ = traces["suite-default"]
    metrics = dict(metrics, **{"trace.overhead_s": 0.0})
    assert {m["name"] for m in spec["per_layer"]} == set(metrics)
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-circle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ------------------------------------------------------------- the checks

@pytest.fixture(scope="module")
def circle():
    w = WORKLOADS["table-circle"]
    inp = w.make_inputs(SEED)
    values = w.run_pass(inp).outputs
    _, _, proc = run.run_child(["-m", "qultra.cli"] + w.cli_commands(inp)[0],
                               run.child_env())
    assert w.check(inp, values, [proc.stdout]) == []
    return w, inp, values, proc.stdout


def perturbed(values, i, j, factor):
    out = values.copy()
    out[i, j] *= factor
    return out


def has(problems, text):
    return any(text in p for p in problems)


def test_circle_reference_check_rejects(circle):
    w, inp, values, cli = circle
    i, j = inp["sample"][0]
    bad = perturbed(values, i, j, 1 + 1e-9)
    assert has(w.check(inp, bad), "misses the defining sum")


def test_circle_recurrence_check_rejects(circle):
    w, inp, values, cli = circle
    sampled = set(inp["sample"])
    j = next(j for j in range(len(inp["thetas"])) if (12, j) not in sampled)
    problems = w.check(inp, perturbed(values, 12, j, 1 + 1e-8))
    assert has(problems, "recurrence") and not has(problems, "defining sum")


def test_circle_realness_check_rejects(circle):
    w, inp, values, cli = circle
    bad = perturbed(values, 3, 4, 1 + 1e-9j)
    assert has(w.check(inp, bad), "is not real")


def test_circle_cli_check_rejects(circle):
    w, inp, values, cli = circle
    lines = cli.splitlines(keepends=True)
    n, theta, re, im, terms = lines[5].rstrip("\n").split(",")
    lines[5] = ",".join([n, theta, repr(float(re) * (1 + 1e-12)), im, terms]) + "\n"
    assert has(w.check(inp, values, ["".join(lines)]), "CLI C_")
    assert has(w.check(inp, values, ["".join(lines[:-1])]), "rows")


@pytest.fixture(scope="module")
def offannulus():
    w = WORKLOADS["table-offannulus"]
    inp = w.make_inputs(SEED)
    outputs = w.run_pass(inp).outputs
    cli = []
    for argv in w.cli_commands(inp):
        _, _, proc = run.run_child(["-m", "qultra.cli"] + argv, run.child_env())
        cli.append(proc.stdout)
    assert w.check(inp, outputs, cli) == []
    return w, inp, outputs, cli


def test_offannulus_array_check_rejects(offannulus):
    w, inp, (scalar, array), cli = offannulus
    bad = (scalar, perturbed(array, 2, 5, 1 + 1e-11))
    assert has(w.check(inp, bad), "!= array")


def test_offannulus_reference_check_rejects(offannulus):
    w, inp, (scalar, array), cli = offannulus
    i, j = inp["sample"][0]
    bad = (perturbed(scalar, i, j, 1 + 1e-8), perturbed(array, i, j, 1 + 1e-8))
    assert has(w.check(inp, bad), "misses the 6psi8 sum")


def test_offannulus_symmetry_check_rejects(offannulus):
    w, inp, (scalar, array), cli = offannulus
    bad = (perturbed(scalar, 6, 1, 1 + 1e-8), perturbed(array, 6, 1, 1 + 1e-8))
    assert has(w.check(inp, bad), "C_0(z) != C_0(1/z)")


def test_offannulus_recurrence_check_rejects(offannulus):
    w, inp, (scalar, array), cli = offannulus
    half = len(inp["points"]) // 2
    # perturb z and 1/z alike, so only the recurrence can notice
    bad_s, bad_a = scalar.copy(), array.copy()
    for j in (3, half + 3):
        bad_s[6, j] *= 1 + 1e-8
        bad_a[6, j] *= 1 + 1e-8
    problems = w.check(inp, (bad_s, bad_a))
    assert has(problems, "recurrence") and not has(problems, "1/z")


def test_offannulus_cli_check_rejects(offannulus):
    w, inp, outputs, cli = offannulus
    got = json.loads(cli[0])
    got["re"] *= 1 + 1e-12
    assert has(w.check(inp, outputs, [json.dumps(got)] + cli[1:]), "CLI eval")


@pytest.fixture(scope="module")
def suite():
    from qultra.verify import render_json
    w = WORKLOADS["suite-default"]
    report = w.run_pass({}).outputs
    assert w.check({}, report, [render_json(report)]) == []
    return w, report


def test_suite_check_rejects_a_failed_entry(suite):
    w, report = suite
    entries = list(report.entries)
    entries[4] = dataclasses.replace(entries[4], passed=False)
    bad = dataclasses.replace(report, entries=tuple(entries))
    assert has(w.check({}, bad), "failed")
    entries[4] = dataclasses.replace(report.entries[4],
                                     residual=2 * report.entries[4].tolerance)
    bad = dataclasses.replace(report, entries=tuple(entries))
    assert has(w.check({}, bad), "failed")


def test_suite_check_rejects_a_skipped_entry(suite):
    w, report = suite
    entries = list(report.entries)
    entries[0] = dataclasses.replace(entries[0], skipped=True, note="RegionError")
    assert has(w.check({}, dataclasses.replace(report, entries=tuple(entries))),
               "skipped")


def test_suite_check_rejects_other_cli_json(suite):
    from qultra.verify import render_json
    w, report = suite
    text = render_json(report).replace('"residual": ', '"residual":  ', 1)
    assert has(w.check({}, report, [text]), "CLI suite JSON differs")

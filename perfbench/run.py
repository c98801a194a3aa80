"""The qultra benchmark: one command for every workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics of each workload:

* ``setup_s``      median time of 5 fresh interpreters that import qultra
                   and return the workload's first value;
* ``run_s``        median time of the in-process passes, repeated until
                   ``--seconds`` have passed;
* ``cli_s``        median time of the workload's ``qultra`` CLI commands,
                   run as subprocesses one at a time;
* ``values_per_s`` values computed per second of ``run_s`` (C_n values on
                   the table workloads, identity verdicts on the suite);
* ``peak_rss_mb``  peak resident memory of this process after the passes.

Times are speed-calibrated seconds (see ``calibration``): the in-process
passes, and each subprocess through ``child.py``, sample the machine speed
while they run.  On a shared machine whose speed drifts by 2-4x over
minutes, this keeps one run's figures comparable with another's; the raw
wall times are kept in ``perfbench/out/raw-*.json`` and printed beside
them.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics of the traced pass with the median wall
time (see ``tracer``), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` beside this directory; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import SpeedSampler, calibrated, calibration_sample
from workloads import fingerprint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cli_s": "s",
                    "values_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_per_value"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv, env):
    """Run ``python3 argv...`` to completion through ``child.py``, which
    samples the machine speed inside the subprocess; three more samples
    taken just before it cover its start-up.  Return (wall seconds less
    the sampling time, calibrated seconds, process)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "child-samples.json"
    path.unlink(missing_ok=True)
    samples = [calibration_sample() for _ in range(3)]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(path)] + argv,
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    try:
        child = json.loads(path.read_text())
        samples += child["samples"]
        wall -= child["stolen"]
    except (OSError, ValueError, KeyError):
        samples += [calibration_sample() for _ in range(3)]
    return wall, calibrated(wall, samples), proc


class Tally:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = []

    def add(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors += res.errors

    def child(self, what, proc):
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            self.errors.append(f"{what} exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
            return False
        return True


class Round:
    """One pass run unit by unit.  With ``sample`` it samples the machine
    speed as it goes and is also given in calibrated seconds; the trace
    runs without, so no calibration time falls inside a span."""

    def __init__(self, w, units, tracer=None, sample=True):
        self.results = []
        self.wall = 0.0
        sampler = SpeedSampler() if sample else None
        with sampler or contextlib.nullcontext():
            for label, fn in units:
                stolen = sampler.stolen if sampler else 0.0
                t0 = time.perf_counter()
                if tracer is not None and w.span_prefix:
                    with tracer.span(w.span_prefix + label):
                        res = fn()
                else:
                    res = fn()
                self.wall += time.perf_counter() - t0
                if sampler:
                    self.wall -= sampler.stolen - stolen
                self.results.append(res)
        self.seconds = calibrated(self.wall, sampler.samples) if sampler else None

    def outputs(self):
        return [res.outputs for res in self.results]


def repeat_for(fn, seconds: float) -> None:
    """Call fn() until `seconds` have passed, at least once."""
    start = time.perf_counter()
    while True:
        fn()
        if time.perf_counter() - start >= seconds:
            return


def add_rounds(w, inp, checked, rounds, tally: Tally) -> None:
    """Count the operations of every round and check their outputs: the
    first round through the workload, the others against the first."""
    first = rounds[0].outputs()
    tally.problems += w.check_units(inp, checked, first)
    for r in rounds:
        for res in r.results:
            tally.add(res)
        if fingerprint(r.outputs()) != fingerprint(first):
            tally.problems.append("passes on the same inputs gave other outputs")


def measure(w, inp, seconds: float, tally: Tally, raw: dict) -> dict:
    """End-to-end metrics of one workload, with tracing off."""
    env = child_env()
    setup = []
    for _ in range(SETUP_REPEATS):
        wall, secs, proc = run_child(["-c", w.setup_code(inp)], env)
        if tally.child("setup", proc):
            setup.append((wall, secs))
            first = proc.stdout.strip()
    # computing the first value in-process warms the imports and first calls
    warm_first = w.first_value(inp)
    if setup and first != warm_first:
        tally.problems.append(f"setup child returned {first}, in-process {warm_first}")

    checked = w.run_pass(inp)
    tally.add(checked)
    units = w.units(inp)
    rounds = []
    repeat_for(lambda: rounds.append(Round(w, units)), seconds)
    add_rounds(w, inp, checked.outputs, rounds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cli = []
    for _ in range(w.CLI_REPEATS):
        wall, secs, cli_out = 0.0, 0.0, []
        for argv in w.cli_commands(inp):
            dw, ds, proc = run_child(["-m", "qultra.cli"] + argv, env)
            wall, secs = wall + dw, secs + ds
            ok = tally.child("qultra " + argv[0], proc)
            cli_out.append(proc.stdout if ok else None)
        cli.append((wall, secs))
    tally.problems += w.check(inp, checked.outputs,
                              None if None in cli_out else cli_out)

    if not setup:
        raise RuntimeError("no set-up child succeeded")
    raw.update(setup=setup, rounds=[(r.wall, r.seconds) for r in rounds], cli=cli)
    raw["wall_medians"] = {name: statistics.median(w_ for w_, _ in pairs)
                           for name, pairs in (("setup_s", setup), ("cli_s", cli),
                                               ("run_s", raw["rounds"]))}
    run_s = statistics.median(r.seconds for r in rounds)
    return {"setup_s": statistics.median(s for _, s in setup), "run_s": run_s,
            "cli_s": statistics.median(s for _, s in cli),
            "values_per_s": w.values_per_pass(inp) / run_s,
            "peak_rss_mb": peak_rss_mb}


def traced_round(w, inp, t):
    """One traced round, without calibration samples, and its per-layer
    metrics."""
    import tracer as tr
    from qultra.verify import identity_names
    units = w.units(inp)
    with t.installed():
        t.reset()
        rnd = Round(w, units, t, sample=False)
    return rnd, tr.layer_metrics(t.spans, t.counts, rnd.wall, identity_names())


def trace(w, inp, seconds: float, tally: Tally, raw: dict, span_path) -> dict:
    """Per-layer metrics of one workload from alternating untraced and
    traced rounds; those of the traced round with the median wall time
    are reported, so they add up within one round."""
    import tracer as tr

    t = tr.Tracer()
    w.first_value(inp)
    checked = w.run_pass(inp)
    tally.add(checked)
    units = w.units(inp)
    untraced, traced = [], []

    def pair():
        untraced.append(Round(w, units, sample=False))
        traced.append(traced_round(w, inp, t) + (t.spans,))

    repeat_for(pair, seconds)
    add_rounds(w, inp, checked.outputs, untraced + [r for r, _, _ in traced], tally)
    tally.problems += w.check(inp, checked.outputs)

    counts = [{k: v for k, v in m.items() if layer_unit(k) != "s"}
              for _, m, _ in traced]
    if any(c != counts[0] for c in counts):
        raise RuntimeError("per-layer counts differ between traced rounds")
    walls = [r.wall for r, _, _ in traced]
    pick = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    metrics = dict(traced[pick][1])
    metrics["trace.overhead_s"] = (statistics.median(walls)
                                   - statistics.median(r.wall for r in untraced))
    t.spans = traced[pick][2]
    t.dump(span_path, {"workload": w.name, "wall_s": walls[pick]})
    raw.update(untraced_wall_s=[r.wall for r in untraced], traced_wall_s=walls)
    return metrics


def run_workload(w, seed: int, seconds: float, traced: bool):
    """Run one workload; return its result object and its raw wall medians."""
    inp = w.make_inputs(seed)
    tally = Tally()
    raw = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": traced}
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(traced)}"
    if traced:
        metrics = trace(w, inp, seconds, tally, raw, OUT / f"spans-{stem}.json")
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = measure(w, inp, seconds, tally, raw)
        units = END_TO_END_UNITS
    raw.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
               problems=tally.problems, errors=tally.errors)
    with open(OUT / f"raw-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    for msg in tally.errors[:10] + tally.problems[:20]:
        print(f"{w.name}: {msg}", file=sys.stderr)
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, raw.get("wall_medians", {})


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description="qultra benchmark")
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "qultra" / "__init__.py").is_file():
        print(f"error: no qultra package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    args = parse_args(argv, list(WORKLOADS))
    import qultra
    if Path(qultra.__file__).resolve().parent != SRC / "qultra":
        print(f"error: qultra imported from {qultra.__file__}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res, walls = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace))
        results[name] = res
        print(f"{name}: correct={str(res['correct']).lower()} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for key, m in res["metrics"].items():
            wall = f"   (wall {walls[key]:.4g} s)" if key in walls else ""
            print(f"  {key:50s} {m['value']:12.6g} {m['unit']}{wall}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

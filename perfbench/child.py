"""Run one command in this interpreter while sampling the machine speed.

    python3 perfbench/child.py SAMPLES_JSON -m MODULE [ARG ...]
    python3 perfbench/child.py SAMPLES_JSON -c CODE

``-m`` runs MODULE as ``python3 -m MODULE ARG ...`` would; ``-c`` runs
CODE.  At exit the calibration samples and the time they took are written
to SAMPLES_JSON, so the parent can give the subprocess's wall time in
calibrated seconds (see ``calibration``).
"""

from calibration import SpeedSampler

if __name__ == "__main__":
    SAMPLER = SpeedSampler().__enter__()

import atexit  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


def main():
    out, mode, target, args = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]

    def report():
        SAMPLER.__exit__(None, None, None)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"samples": SAMPLER.samples, "stolen": SAMPLER.stolen}, fh)

    atexit.register(report)
    if mode == "-m":
        sys.argv = [target] + args
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    elif mode == "-c":
        sys.argv = ["-c"] + args
        exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    else:
        raise SystemExit(f"usage: {sys.argv[0]} SAMPLES_JSON -m MODULE ... | -c CODE")


if __name__ == "__main__":
    main()

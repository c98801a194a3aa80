"""Speed-calibrated timing for a shared machine.

The machine the reference figures come from switches between a fast and
a slow speed many times a second, and the share of slow time drifts by
2-4x over minutes with other tenants' load.  A timed piece of work is
therefore reported in calibrated seconds:

    t = wall * CAL_REF_S / mean(calibration samples taken while it ran)

where a sample times ``calibration_work``, a fixed mix of complex
arithmetic in the interpreter and numpy calls on 0-d arrays, like the
inner loops of qultra.  The mean,
not the median, of the samples is used: it tracks the share of slow time
the way the timed work does.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: interval of the calibration samples taken while work runs
SAMPLE_EVERY_S = 0.01
#: the time calibration_work takes at the reference speed; close to its
#: mean on the 2-core machine the reference figures come from
CAL_REF_S = 0.0015


def calibration_work():
    """About 1 ms of work that does not touch qultra."""
    z, s = 1.0 + 0j, 0j
    for _ in range(1500):
        z = z * (0.9999 + 0.0001j) + 1e-9
        s += z / (1.0 + abs(z))
    t = np.asarray(z)
    for _ in range(150):
        t = t * (0.9999 + 0.0001j)
        s += float(np.max(np.abs(t)))
    return s


def calibration_sample() -> float:
    t0 = time.perf_counter()
    calibration_work()
    return time.perf_counter() - t0


def calibrated(wall: float, samples) -> float:
    """Wall time rescaled to the reference speed."""
    return wall * CAL_REF_S * len(samples) / sum(samples)


class SpeedSampler:
    """Takes a calibration sample every SAMPLE_EVERY_S seconds from a timer
    signal while active, and keeps the time the samples took (``stolen``)
    apart from the timed work.  Work shorter than one interval gets three
    samples at the end."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _sample(self, signum, frame):
        dt = calibration_sample()
        self.samples.append(dt)
        self.stolen += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples = [calibration_sample() for _ in range(3)]

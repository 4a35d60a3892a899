"""CPU speed probe: scales measured times to a fixed reference speed.

On a shared machine the speed of one core drifts by a third or more over
tens of seconds while other tenants' load comes and goes, and that drift
moves every timing of a run at once.  The probe runs a fixed pure-Python
reference loop (Fraction arithmetic, tuples, a dict, a sort: the kinds of
work the program does) on a SIGALRM timer inside the measured process and
records how long each sample took.  A time T measured while the samples
took d_1..d_n is reported as

    (T - time spent in the probe) * mean(REF_S / d_i)

that is, in seconds on a machine whose reference loop takes REF_S.  A run
scales all its passes by the mean over the whole run, whose hundreds of
samples make the factor steadier than one taken per pass.  The raw times
are kept in each run's record next to the scaled ones.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

REF_S = 0.0005  # reference-loop seconds that define the reference speed


def reference_loop():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 3)
        key = (i % 13, i * i % 7)
        seen[key] = seen.get(key, 0) + 1
    return sorted(seen.items()), acc


class SpeedProbe:
    """Samples the reference loop every `period` seconds once started."""

    def __init__(self):
        self.samples = []  # seconds each reference loop took
        self.busy = 0.0  # seconds spent inside the probe

    def sample(self, *_):
        t0 = perf_counter()
        reference_loop()
        d = perf_counter() - t0
        self.samples.append(d)
        self.busy += d

    def start(self, period: float) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Take a sample now; returns the position for speed_since()."""
        self.sample()
        return len(self.samples) - 1

    def speed_since(self, mark: int) -> float:
        """Mean of REF_S / d over the samples since mark and one taken now:
        the factor that scales a time measured in that interval."""
        self.sample()
        window = self.samples[mark:]
        return sum(REF_S / d for d in window) / len(window)

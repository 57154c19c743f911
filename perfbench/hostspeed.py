"""How fast the host runs the interpreter right now, by a reference loop.

A shared host changes speed under its other tenants, by up to half for
tens of seconds, and every timing taken on it changes with it.  The
reference loop is fixed pure-Python work that shares no code with
kirbycalc: dict updates on small tuples and a sort, the kind of work
kirbycalc spends its time on.  A timing divided by the loop's time
taken moments before it no longer moves with the host; multiplied by
REF_S it reads again in seconds, those of a host on which the loop
takes REF_S.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# the counted duration of one reference loop: about its fastest time on
# one core of a 2-vCPU x86-64 VM with CPython 3.11
REF_S = 0.002
# the longest gap between two reference samples in a closed loop
SAMPLE_EVERY_S = 0.025


def reference_loop():
    d = {}
    for i in range(8000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i * i % 7
    return sorted(d.items())


def sample():
    """Seconds one reference loop takes now."""
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def typical(n=5):
    """The median of n reference samples taken back to back."""
    return statistics.median(sample() for _ in range(n))


class Clock:
    """Converts operation times to reference-speed seconds.

    It samples the reference loop when its last sample is older than
    SAMPLE_EVERY_S and scales each time by the median of the last three
    samples, so that one interrupted sample does not skew the times
    after it.
    """

    def __init__(self):
        self.samples = [sample(), sample()]
        self.refresh()

    def refresh(self):
        self.samples.append(sample())
        self.ref = statistics.median(self.samples[-3:])
        self.at = perf_counter()

    def before_op(self):
        if perf_counter() - self.at >= SAMPLE_EVERY_S:
            self.refresh()

    def scale(self, seconds):
        return seconds * REF_S / self.ref

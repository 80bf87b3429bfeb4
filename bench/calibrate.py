"""Reference kernel that puts every reported time on one machine speed.

The shared 2-CPU machine this benchmark was built on changes speed by up
to 1.9x over tens of seconds (a fixed loop took 211 to 397 ms within one
minute, and CPU time tracked wall time, so the work itself ran slower).
Twenty-second medians of the same query therefore differed by 50%
between runs.  Each timed operation is instead divided by the time of
this fixed pure-Python kernel, measured right next to it in the same
process where possible, and multiplied by REFERENCE_S: a reported
second is the time the operation takes on a machine where the kernel
takes exactly REFERENCE_S (about its time here when the machine is
fast).  The kernel inverts 2000 fixed points into named tuples, sorts
them and builds a monotone-chain hull: the same kind of interpreter work
as lunenn's (allocation, float arithmetic, sorting, small calls), so it
slows down in step with it.  Over 20-second windows this cut the spread
of a lune query's median from about 50% to a few percent.  It never
calls lunenn, so no change to lunenn moves it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from time import perf_counter
from typing import NamedTuple

#: Kernel time that defines the reported time scale.
REFERENCE_S = 4e-3

_rng = random.Random("calibration kernel")
_POINTS = [(_rng.uniform(-1.0, 1.0), _rng.uniform(-1.0, 1.0)) for _ in range(2000)]


class _Image(NamedTuple):
    x: float
    y: float


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def kernel() -> int:
    sx, sy = 0.1, 0.2
    images = []
    for x, y in _POINTS:
        dx = x - sx
        dy = y - sy
        d2 = dx * dx + dy * dy
        images.append(_Image(dx / d2, dy / d2))
    order = sorted(range(len(images)), key=lambda i: (images[i][0], images[i][1]))
    chain = []
    for i in order:
        while len(chain) >= 2 and _cross(images[chain[-2]], images[chain[-1]], images[i]) <= 0:
            chain.pop()
        chain.append(i)
    return len(chain)


def sample() -> float:
    """Seconds for one run of the kernel.  The collector is paused so that
    the kernel's short-lived objects trigger no collection of the
    measured program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples the kernel every `interval` seconds while an operation runs
    in this process, from a SIGALRM handler (so between the operation's
    bytecodes, on the same CPU).  `samples` and `total_s`, the kernel time
    to subtract from the operation's wall time, are read afterwards."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples = []
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives inside a sample is dropped
            return
        self._busy = True
        try:
            self.samples.append(sample())
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def total_s(self) -> float:
        return sum(self.samples)


def bracket(count: int = 3) -> list:
    return [sample() for _ in range(count)]


def scale(samples) -> float:
    """Factor that turns seconds measured next to these kernel samples
    into seconds at the reference speed.  The samples are spread evenly in
    time, so the mean speed over the operation is the mean of 1/sample; a
    sample slowed by a stray interruption barely moves it."""
    return REFERENCE_S * statistics.fmean(1.0 / s for s in samples)

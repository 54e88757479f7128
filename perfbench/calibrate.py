"""Reference kernel that measures how fast this machine is right now.

On a shared host the speed of one core drifts by up to 1.7x over tens of
seconds (other tenants), far more than any change worth measuring.  The
benchmark therefore times a fixed pure-Python kernel between items and
reports times scaled to a nominal machine on which the kernel takes
NOMINAL_S seconds:  scaled = raw * NOMINAL_S / kernel time nearby.  The
kernel mixes what the package spends its time on (calls, small-int
modular arithmetic, list and dict traffic, Fractions) and runs with the
garbage collector off, so the size of the program's heap cannot leak into
it.  It belongs to the benchmark: a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.025


def _step(acc: int, i: int, p: int) -> int:
    return (acc * 31 + i * i) % p


def kernel_seconds() -> float:
    """Wall time of one fixed unit of reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc, rows, table = 1, [], {}
        for i in range(36000):
            acc = _step(acc, i, 10007)
            rows.append(acc)
            table[acc & 511] = i
        rows.sort()
        q = Fraction(0)
        for i in range(1800):
            q += Fraction(i % 7 + 1, i % 5 + 1)
        if q <= 0 or len(table) == 0:
            raise ArithmeticError("reference kernel miscomputed")
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Kernel timings taken along a run, and the scale they imply.

    ``start_timer`` takes a mark every ``every_s`` seconds from a SIGALRM
    handler, so long items are sampled while they run; the time spent in
    the handler is kept in ``pauses`` and subtracted from the item it
    interrupted.  Without the timer, call ``tick`` between items.
    """

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.marks: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.pauses: list[tuple[float, float]] = []  # handler (start, end)

    def tick(self, force: bool = False) -> None:
        now = perf_counter()
        if force or not self.marks or now - self.marks[-1][0] >= self.every_s:
            self.marks.append((now, kernel_seconds()))
            self.pauses.append((now, perf_counter()))

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.tick(force=True))
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paused_within(self, t0: float, t1: float) -> float:
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.pauses)

    def scale_between(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean kernel time of the marks taken during
        [t0, t1], plus the last mark before and the first after it."""
        inside = [k for when, k in self.marks if t0 <= when <= t1]
        before = [k for when, k in self.marks if when < t0][-1:]
        after = [k for when, k in self.marks if when > t1][:1]
        near = before + inside + after
        if not near:
            raise ValueError("no reference mark around the interval")
        return NOMINAL_S / (sum(near) / len(near))

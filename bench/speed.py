"""Host-speed calibration: report times at a fixed reference speed.

The benchmark runs on a shared host whose speed steps by up to 1.7x over
stretches of seconds to minutes, and each core steps on its own, so the same
work can take 1.7x longer from one run to the next.  A ``SpeedMeter``
measures that speed on the benchmark's own core while the workload runs.  It
times a fixed pure-Python kernel (a walk through a lookup table, the kind of
work the hom-count search does) in short ticks.  While ``ticking``, a
wall-clock timer makes a tick every ``TICK_EVERY_S``, also in the middle of
a program call: the signal handler runs between two bytecodes and leaves the
program's state alone.  A stretch of the program's wall time that lies
between two ticks is then scaled by ``REF_NOMINAL_S`` over the mean duration
of those two ticks.  The result is in seconds at the speed
where the kernel takes ``REF_NOMINAL_S``: slower program code still reads
slower, a slower host does not.  Kernel time itself is never counted as
program time.

The kernel uses nothing from the program, so no change to the program can
move it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

# Kernel duration at the nominal speed.  On a 2-core shared host with Python
# 3.11 the kernel took 6-14 ms, so reference seconds read close to wall
# seconds there.
REF_NOMINAL_S = 0.010
KERNEL_STEPS = 125_000
# Wall time from one timed tick to the next; the kernel takes about a
# twentieth of a run.
TICK_EVERY_S = 0.2

_SIZE = 600


class SpeedMeter:
    def __init__(self) -> None:
        values = list(range(_SIZE))
        self._table = [[values[(i * 31 + j * 17 + i * j) % _SIZE] for j in range(_SIZE)]
                       for i in range(_SIZE)]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._in_tick = False

    def _kernel(self) -> int:
        table, size = self._table, _SIZE
        x, y = 1, 3
        for k in range(KERNEL_STEPS):
            x = table[x][y]
            y = table[y][k % size]
        return x

    def tick(self) -> None:
        if self._in_tick:  # a timer signal that arrived during a tick
            return
        self._in_tick = True
        try:
            started = time.perf_counter()
            self._kernel()
            ended = time.perf_counter()
        finally:
            self._in_tick = False
        self.starts.append(started)
        self.ends.append(ended)
        self.durations.append(ended - started)

    @contextlib.contextmanager
    def ticking(self):
        """Tick every ``TICK_EVERY_S`` of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def paused(self):
        """No timed ticks in the block, one tick at each end.

        For work done by other processes: a tick then would compete with them
        for the cores and measure that contest, not the host.
        """
        _, interval = signal.setitimer(signal.ITIMER_REAL, 0)
        self.tick()
        try:
            yield
        finally:
            self.tick()
            if interval:
                signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def kernel_ms(self) -> float:
        """Median kernel duration so far, in ms: the host's raw speed."""
        return 1000 * statistics.median(self.durations)

    def _scale(self, gap: int, at_reference: bool) -> float:
        """Factor for the gap that ends at tick ``gap`` (0: before the first)."""
        if not at_reference:
            return 1.0
        last = len(self.durations) - 1
        before = self.durations[max(0, min(gap - 1, last))]
        after = self.durations[max(0, min(gap, last))]
        return REF_NOMINAL_S / ((before + after) / 2)

    def scaled(self, t0: float, t1: float, at_reference: bool = True) -> float:
        """Program time in [t0, t1], kernel ticks left out, at reference speed.

        With ``at_reference=False`` the program time is left in wall seconds.
        """
        total = 0.0
        gap = bisect.bisect_right(self.ends, t0)
        start = t0
        while True:
            if gap < len(self.starts) and self.starts[gap] < t1:
                total += max(0.0, self.starts[gap] - start) * self._scale(gap, at_reference)
                start = self.ends[gap]
                gap += 1
            else:
                return total + max(0.0, t1 - start) * self._scale(gap, at_reference)

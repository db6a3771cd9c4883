"""The benchmark's clock: seconds of work at a fixed reference speed.

On a shared host the speed of a core swings by a third within seconds, as
neighbours come and go, and a run's wall time moves with it.  This clock
takes that out.  Every PERIOD_S a timer signal interrupts the work and times
a short fixed pure-Python loop (the probe).  The work done since the last
probe is then credited at the speed the recent probes show:

    reference seconds = wall seconds * PROBE_REF_S / (median of the last
                        WINDOW probe durations)

so one reference second is the time the work would take on a host where one
probe takes PROBE_REF_S.  The probes' own time is left out.  A change that
slows the program makes the work take longer between probes, so it shows in
full; only the host's speed, which slows probe and work alike, cancels.

    clock = SpeedClock()
    clock.start()        # warms the probe up and takes the first reading
    t0 = clock()
    ...                  # work
    work_s = clock() - t0
    clock.stop()
"""

from __future__ import annotations

import signal
import time
from collections import deque

PROBE_ITERS = 20_000
# seconds one probe takes at the reference speed; about what it takes on an
# idle core of a 2-vCPU Intel Xeon VM under Python 3.11.7
PROBE_REF_S = 0.002
PERIOD_S = 0.05
WINDOW = 3

_TABLE = {i: i for i in range(64)}


def probe_loop() -> int:
    """Fixed interpreter-bound work: integer arithmetic and dict lookups,
    with no container allocation, so it never triggers the collector."""
    acc = 0
    table = _TABLE
    for i in range(PROBE_ITERS):
        acc = (acc * 31 + table[i & 63]) % 1_000_003
    return acc


class SpeedClock:
    def __init__(self):
        self.probes = 0
        self.probe_s = 0.0       # wall time spent in probes since start()
        self.durations: list = []
        self.scale = 1.0         # reference seconds per wall second, now
        self._recent: deque = deque(maxlen=WINDOW)
        self._banked = 0.0       # reference seconds up to self._mark
        self._mark = 0.0
        self._start = 0.0
        self._running = False

    def start(self) -> None:
        for _ in range(3):       # let the interpreter specialise the loop
            probe_loop()
        self._mark = time.perf_counter()
        self._probe()
        self._banked = self.probe_s = 0.0
        self._start = self._mark
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def _probe(self) -> None:
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        self._recent.append(t1 - t0)
        self.durations.append(t1 - t0)
        self.scale = PROBE_REF_S / sorted(self._recent)[len(self._recent) // 2]
        self._banked += (t0 - self._mark) * self.scale
        self._mark = t1
        self.probe_s += t1 - t0
        self.probes += 1

    def _on_alarm(self, _signum, _frame) -> None:
        self._probe()

    def __call__(self) -> float:
        """Reference seconds of work since start()."""
        while True:
            n = self.probes
            value = self._banked + (time.perf_counter() - self._mark) * self.scale
            if n == self.probes:  # no probe ran while reading
                return value

    def wall(self) -> float:
        """Wall seconds since start(), the probes' time left out."""
        return time.perf_counter() - self._start - self.probe_s

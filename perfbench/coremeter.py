"""Time code in reference-core seconds on a shared machine.

The benchmark's cores are shared with other tenants: from one fraction of a
second to the next, a core runs Python at full speed or at about half of it,
and the share of slow time drifts over minutes.  A sample's wall-clock time
therefore says as much about the neighbours as about symalg.

CoreMeter measures the core's speed while the code runs.  A SIGALRM timer
interrupts the timed code every PERIOD_S of wall time and runs a fixed
stdlib-only probe (24 Fraction additions); how long the probe takes is the
core's speed at that moment.  Each stretch of wall time between two probes is
scaled by REF_PROBE_S over the mean of the two probe times, so a section is
timed in the seconds it would have taken on a core that runs the probe in
REF_PROBE_S.  The probe's own time is left out.  The probe knows nothing of
symalg, so a change to symalg cannot speed the probe up or slow it down.

    meter = CoreMeter().start()
    a = meter.mark()
    ...timed code...
    b = meter.mark()
    meter.stop()
    meter.seconds(a, b), meter.clock_seconds(a, b)
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

#: Wall-clock seconds between two probes.
PERIOD_S = 0.01
#: The probe's time, inside the timer handler, on an uncontended core of the
#: machine the benchmark was tuned on (a 2-vCPU Intel Xeon VM, Python
#: 3.11.7); there, reference-core seconds read close to uncontended
#: wall-clock seconds.
REF_PROBE_S = 80e-6


def probe() -> None:
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(1, i)


class CoreMeter:
    def __init__(self, period: float = PERIOD_S):
        self.period = period
        #: (start, duration) of every probe, in perf_counter seconds.
        self.ticks: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def _probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()      # a collection of the timed code's objects is not the core's speed
        t0 = time.perf_counter()
        probe()
        self.ticks.append((t0, time.perf_counter() - t0))
        if collecting:
            gc.enable()
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def start(self) -> "CoreMeter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """Probe now; return the probe's index, to bound a section."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._probe()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return len(self.ticks) - 1

    def _gaps(self, a: int, b: int):
        """(wall seconds, mean probe seconds) of each stretch from mark a to b."""
        for (t0, d0), (t1, d1) in zip(self.ticks[a:b], self.ticks[a + 1:b + 1]):
            yield t1 - (t0 + d0), (d0 + d1) / 2

    def seconds(self, a: int, b: int) -> float:
        """Reference-core seconds from mark a to mark b, probes left out."""
        return sum(gap * REF_PROBE_S / d for gap, d in self._gaps(a, b))

    def clock_seconds(self, a: int, b: int) -> float:
        """Wall-clock seconds from mark a to mark b, probes left out."""
        return sum(gap for gap, _ in self._gaps(a, b))

    def speed(self, a: int, b: int) -> float:
        """The core's mean speed from mark a to mark b; 1 is the reference."""
        clock = self.clock_seconds(a, b)
        return self.seconds(a, b) / clock if clock > 0 else 1.0

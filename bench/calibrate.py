"""Host-speed calibration for the timings of CPU-bound work.

The benchmark runs on a few cores of a shared host.  For spells of seconds to
minutes the same work takes up to twice as long, with CPU time tracking wall
time, so neither the fastest nor the median pass of a run is steady from one
run to the next.  ``HostClock`` measures the host's speed while the work runs
and rescales the work's time to a quiet host:

* an interval timer interrupts the timed region every ``INTERVAL_S`` of wall
  time, and the handler times one ``reference_loop`` (about 0.3 ms), so the
  samples follow the spells as they come and go;
* the handlers' own time is taken out of the region's time, and the rest is
  multiplied by the mean of ``NOMINAL_S / sample``: the host's average speed
  over the region relative to a host on which the loop takes ``NOMINAL_S``.

``NOMINAL_S`` is about the fastest the loop ran on a quiet 2-vCPU Intel Xeon
VM, so a rescaled time reads close to what that host gives when nothing else
runs.  Over 80 s of replay-study passes while the host was busy, the raw pass
time spread (IQR / median) 0.18 and the rescaled one 0.02.  The rescaled time
moves with the program's own work as the raw time does; only the host's speed
is divided out.  It suits work that keeps a core busy, not work that mostly
waits on fixed latencies.  Signals reach Python between bytecodes, so a
program that spends long stretches in one C call is sampled less often there.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
NOMINAL_S = 320e-6
REFERENCE_ITERATIONS = 2000


def reference_loop() -> None:
    """Fixed interpreter work: dict updates and float arithmetic."""
    totals: dict[int, float] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = i % 977
        totals[key] = totals.get(key, 0.0) + i * 0.5


def _time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class HostClock:
    """Times a ``with`` block; ``scaled_s`` is its time on a quiet host.

    The host is also sampled once just before and once just after the block,
    outside its time, so a block shorter than the interval has samples too.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.handler_s = 0.0

    def _sample(self, signum, frame) -> None:
        self.samples.append(_time_reference())

    def __enter__(self) -> "HostClock":
        self.samples = [_time_reference()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        # the handlers ran inside the block; their time is not the work's
        self.handler_s = sum(self.samples[1:])
        self.samples.append(_time_reference())

    @property
    def speed(self) -> float:
        """Mean host speed over the block, relative to the nominal host."""
        return statistics.fmean(NOMINAL_S / s for s in self.samples)

    @property
    def scaled_s(self) -> float:
        return (self.wall_s - self.handler_s) * self.speed

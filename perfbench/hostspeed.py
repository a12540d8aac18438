"""Host-speed sampling, to normalise host times on a shared machine.

On the 2-vCPU KVM guest the benchmark was built on, the same code runs up
to 1.8 times slower for stretches of a fraction of a second to a minute,
as neighbours load the host.  A 20 s run can land mostly in fast or
mostly in slow stretches, so its median body time moves by 25% and more
between runs of the same code.

`HostSpeed` measures the host's speed while the workload runs: a
`SIGALRM` timer interrupts the workload every `PERIOD_S` and times a fixed
calibration unit of interpreter work of the same kind as the engine's slot
loop (method calls, dict and list updates, small float arithmetic).  Its
cost rises and falls with the workload's.  A span of workload time is then
reported as

    normalised = (raw - calibration time inside it) * REF_S * mean(1 / c)

over the calibration costs ``c`` sampled within `MARGIN_S` of the span:
the time the span would have taken had the host run the calibration unit
in `REF_S` throughout.  Samples are spaced evenly in wall time, so the
mean of ``1 / c`` is the time-averaged host speed.  The calibration code
belongs to the benchmark and no change to casplit alters it, so a faster
casplit gives a proportionally smaller normalised time.

A set-up child process runs on whichever core the scheduler gives it, so
its host speed is sampled inside it: `calibrate` runs just before and just
after its work, and the parent scales the child's spawn-to-exit time, less
those samples, by ``BURST_REF_S / median(c)``.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left
from itertools import accumulate
from time import perf_counter, sleep

PERIOD_S = 0.025  # one calibration sample per 25 ms of workload
MARGIN_S = 0.25  # samples this far either side of a span also count for it
CALIB_STEPS = 400
SETUP_SAMPLES = 15  # calibration units a set-up child runs before and after its work
# Typical cost of one calibration unit on the reference machine (2-vCPU
# KVM guest, Xeon model 207, Python 3.11): the unit of normalised times.
REF_S = 0.0002
# The same for units run back to back, as `calibrate` runs them: warm caches
# make them cheaper than timer samples taken in the middle of a workload.
BURST_REF_S = 0.00011


class _Queue:
    """A tiny FIFO with per-key counters: the calibration unit's working set."""

    def __init__(self):
        self.items: list[int] = []
        self.counts: dict[int, int] = {}
        self.level = 0.0

    def push(self, key: int) -> None:
        self.items.append(key)
        self.counts[key] = self.counts.get(key, 0) + 1

    def pop(self) -> int:
        key = self.items.pop()
        self.counts[key] -= 1
        self.level = 0.9 * self.level + 0.1 * key
        return key


def calibration_unit(steps: int = CALIB_STEPS) -> float:
    """Fixed interpreter work; returns a value so the work cannot be skipped."""
    q = _Queue()
    total = 0.0
    for i in range(steps):
        k = i & 31
        q.push(k)
        if i % 3 == 0:
            total += q.pop() * 0.5
        if q.counts.get(k ^ 1, 0) > 2:
            total -= 1.0
    return total + q.level + len(q.items)


def calibrate(samples: int = SETUP_SAMPLES) -> list[float]:
    """Costs of ``samples`` back-to-back calibration units, in seconds."""
    costs = []
    for _ in range(samples):
        t0 = perf_counter()
        calibration_unit()
        costs.append(perf_counter() - t0)
    return costs


class HostSpeed:
    """Samples the host's speed while the ``with`` block runs.

    Use only in the main thread, and only one at a time per process.
    Entering and leaving each sample for `MARGIN_S` more, so that every span
    timed inside the block has samples on both sides.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._busy = False
        self._prev = None
        self._cum_cost: list[float] = []
        self._cum_speed: list[float] = []

    def __enter__(self) -> HostSpeed:
        self._prev = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        sleep(MARGIN_S)
        return self

    def __exit__(self, *exc) -> bool:
        sleep(MARGIN_S)
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._prev)
        self._cum_cost = [0.0, *accumulate(self.costs)]
        self._cum_speed = [0.0, *accumulate(1.0 / c for c in self.costs)]
        return False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection of the workload's heap is not host speed
        try:
            t0 = perf_counter()
            calibration_unit()
            self.costs.append(perf_counter() - t0)
            self.starts.append(t0)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect_left(self.starts, t0), bisect_left(self.starts, t1)

    def net(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1, less the calibration samples inside it."""
        i, j = self._range(t0, t1)
        return (t1 - t0) - (self._cum_cost[j] - self._cum_cost[i])

    def speed(self, t0: float, t1: float) -> float:
        """Mean of REF_S / c over samples within MARGIN_S of [t0, t1]."""
        i, j = self._range(t0 - MARGIN_S, t1 + MARGIN_S)
        if j <= i:
            raise RuntimeError("no host-speed sample near a timed span")
        return REF_S * (self._cum_speed[j] - self._cum_speed[i]) / (j - i)

    def normalise(self, t0: float, t1: float) -> float:
        """The span's workload time at the reference host speed, in seconds."""
        return self.net(t0, t1) * self.speed(t0, t1)

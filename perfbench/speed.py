"""Machine-speed probe, for timings that survive a host whose speed drifts.

On a shared host the same op can take twice as long from one minute to the
next, because other tenants contend for the core.  :func:`probe` times a
fixed piece of pure-Python work shaped like the program's hot path (frozen
slotted quaternion objects multiplied and summed into nested tuples).  A run
probes between its ops, for a fixed share of each op's time, and
:meth:`SpeedLog.factor` rescales each op's time by ``NOMINAL_PROBE_S / mean
probe`` over the probes taken around it: the time the op would have taken
at the speed where the probe takes exactly ``NOMINAL_PROBE_S``.  The probe
is the benchmark's own code, so a change to the program moves the adjusted
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
from dataclasses import dataclass
from time import perf_counter

#: The probe time that adjusted timings are expressed against.
NOMINAL_PROBE_S = 0.002
#: Probing after an op lasts this share of the op's time.
PROBE_SHARE = 0.05
#: Probes up to this many seconds before or after an op describe its speed.
WINDOW_S = 2.0
#: A :class:`Stopwatch` probes once a segment of at least this many seconds has passed.
SEGMENT_S = 0.05


@dataclass(frozen=True, slots=True)
class _Q:
    w: float
    x: float
    y: float
    z: float

    def __mul__(a, b):
        return _Q(a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                  a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                  a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                  a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w)


_M = tuple(tuple(_Q(0.1 * i, 0.2 * j, -0.1, 0.05 * (i - j)) for j in range(4)) for i in range(4))


def _work() -> tuple:
    out = None
    for _ in range(15):
        out = tuple(
            tuple(_sum(_M[i][k] * _M[k][j] for k in range(4)) for j in range(4))
            for i in range(4)
        )
    return out


def _sum(values) -> _Q:
    w = x = y = z = 0.0
    for v in values:
        w += v.w
        x += v.x
        y += v.y
        z += v.z
    return _Q(w, x, y, z)


def probe() -> float:
    """Seconds the fixed probe work takes right now, with the garbage
    collector paused so a collection of the program's heap cannot land in it."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if paused:
            gc.enable()


class SpeedLog:
    """Probe times with the moment each was taken.

    :meth:`factor` multiplies a time measured between ``start`` and ``end``
    to express it at nominal speed: ``NOMINAL_PROBE_S`` over the mean of the
    probes taken within ``WINDOW_S`` of that interval.  The mean, not the
    median: the host flips between a fast and a slow state many times a
    second, so work lasting longer than one probe runs at the time-average of
    the two, which the mean estimates.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.values: list[float] = []

    def sample(self, budget: float) -> None:
        """Probe repeatedly for about ``budget`` seconds (at least once)."""
        spent = 0.0
        while True:
            value = probe()
            self.stamps.append(perf_counter())
            self.values.append(value)
            spent += value
            if spent >= budget:
                return

    def factor(self, start: float = float("-inf"), end: float = float("inf"),
               window: float = WINDOW_S) -> float:
        lo = bisect.bisect_left(self.stamps, start - window)
        hi = bisect.bisect_right(self.stamps, end + window)
        near = self.values[lo:hi] or self.values
        return NOMINAL_PROBE_S * len(near) / sum(near)


class Stopwatch:
    """Times a sequence of short steps, such as a set-up, at nominal speed.

    Call :meth:`tick` after each step: once ``SEGMENT_S`` have passed since
    the last probe it closes a segment and probes for ``PROBE_SHARE`` of it.
    :meth:`stop` closes the last segment and returns the total, each segment
    scaled by the probes on either side of it alone, so a change of host
    speed part-way through is followed segment by segment.
    """

    def __init__(self, log: SpeedLog):
        self.log = log
        self.segments: list[tuple[float, float]] = []
        self.mark = perf_counter()

    def tick(self, force: bool = False) -> None:
        now = perf_counter()
        if force or now - self.mark >= SEGMENT_S:
            self.segments.append((self.mark, now))
            self.log.sample(PROBE_SHARE * (now - self.mark))
            self.mark = perf_counter()

    @contextlib.contextmanager
    def untimed(self):
        """Leave the enclosed steps out of the total."""
        self.tick(force=True)
        try:
            yield
        finally:
            self.mark = perf_counter()

    def total(self) -> float:
        return sum((end - start) * self.log.factor(start, end, SEGMENT_S)
                   for start, end in self.segments)

    def stop(self) -> float:
        self.tick(force=True)
        return self.total()

"""Host-speed calibration for every host-time metric of the benchmark.

The vCPUs of a shared cloud guest drift in speed independently and
invisibly (steal time reads ~0), so raw seconds of identical runs can
spread by a quarter.  The benchmark therefore samples the machine's
current speed from *inside* each timed process: a fixed pure-Python
probe kernel runs from a ``SIGALRM`` handler every
:data:`PROBE_INTERVAL_S`, and each probe is timed with
``time.thread_time()`` (CPU time of the thread, so preemption by other
processes does not count).  Every duration is then corrected in two
steps:

1. the probes' own cost inside the measured interval is subtracted;
2. the rest is scaled by ``REFERENCE_PROBE_S / mean probe time``,
   where the mean is over the probes within :data:`WINDOW_S` of the
   interval, i.e. expressed in the seconds the work would have taken
   on a host running the probe at its reference speed.

Rates are counts divided by a calibrated duration; latencies are
durations.  The module holds no global state: a :class:`Prober` is
created per timed process.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

#: The probe's input: bytes iterate as cached small ints, so the
#: kernel allocates nothing at all.  112 rounds take ~2 ms on the
#: reference host.
_PROBE_INPUT = bytes(range(256)) * 112
_PROBE_TABLE = bytes((i * 167 + 13) & 255 for i in range(256))
#: Seconds between probes.  On the reference host a 2 ms probe every
#: 0.1 s left a calibrated CV of 6.6% over 32 one-second simulator
#: runs, against 9.1% for a 5 ms probe every 0.5 s (raw: 15%).
PROBE_INTERVAL_S = 0.1
#: Mean probe CPU time on the reference host: a 2-vCPU cloud VM,
#: Python 3.11.  Fixed when the benchmark landed; changing it rescales
#: every calibrated metric, so it never changes afterwards.
REFERENCE_PROBE_S = 0.002
#: Probes within this many seconds of an interval calibrate it.  The
#: host's speed moves within a run: scaled by the whole process's mean
#: probe, the LVM cell of one bfs sweep read with a CV of 15% over 8
#: fresh processes; scaled by its own neighbourhood, 3.6%.
WINDOW_S = 0.5
#: A timed section is rejected when fewer than this share of the
#: probes its length implies actually landed (a starved handler would
#: calibrate against a handful of samples).
MIN_PROBE_SHARE = 0.5


class CalibrationError(RuntimeError):
    """The probes of a timed section cannot be trusted."""


def probe_kernel(data: bytes = _PROBE_INPUT, table: bytes = _PROBE_TABLE) -> int:
    """Fixed work that allocates nothing: every value stays a cached
    small int, so neither heap size, heap layout nor GC settings can
    change its cost.  (An earlier kernel that built 32-bit ints read
    up to 60% slower in some fresh processes than in others on the
    same host, because its cost followed the allocator's state.)"""
    x = y = 0
    for b in data:
        x = table[x ^ b]
        y = (y + x) & 255
        if y > 128:
            y ^= 85
    return x + y


#: One probe: (wall start, wall end, CPU seconds), wall on perf_counter.
Probe = Tuple[float, float, float]


@dataclass
class Prober:
    """Runs :func:`probe_kernel` on ``SIGALRM`` every ``interval`` s.

    ``start`` and ``stop`` each take one probe synchronously, outside
    the section they bracket, so even a section shorter than the
    interval is calibrated from at least two samples.
    """

    interval: float = PROBE_INTERVAL_S
    probes: List[Probe] = field(default_factory=list)

    def probe(self) -> None:
        w0 = time.perf_counter()
        c0 = time.thread_time()
        probe_kernel()
        c1 = time.thread_time()
        self.probes.append((w0, time.perf_counter(), c1 - c0))

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def start(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def __enter__(self) -> "Prober":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def scale_factor(probes: Sequence[Probe], reference: float = REFERENCE_PROBE_S) -> float:
    """``reference / mean probe CPU time``: >1 on a slow host moment."""
    if not probes:
        raise CalibrationError("no probe landed")
    return reference / statistics.fmean(p[2] for p in probes)


def probe_cost(start: float, end: float, probes: Iterable[Probe]) -> float:
    """CPU seconds the probes spent inside ``[start, end]``.

    Each probe's CPU time is spread evenly over its wall interval, so a
    probe that straddles an edge is charged pro rata; when the probe
    shared its CPU with another pinned process (serve), only the CPU
    it took is charged, not the wall time it waited.
    """
    total = 0.0
    for p0, p1, cpu in probes:
        lo, hi = max(start, p0), min(end, p1)
        if hi > lo:
            total += cpu * (hi - lo) / (p1 - p0)
    return total


class Calibrator:
    """Calibrated seconds of wall intervals, from one process's probes."""

    def __init__(self, probes: Sequence[Probe], window: float = WINDOW_S):
        if not probes:
            raise CalibrationError("no probe landed")
        self.probes = sorted(probes)
        self._starts = [p[0] for p in self.probes]
        self.window = window

    def near(self, start: float, end: float) -> Sequence[Probe]:
        """The probes within the window around ``[start, end]`` (all of
        them if none is)."""
        lo = bisect.bisect_left(self._starts, start - self.window)
        hi = bisect.bisect_left(self._starts, end + self.window)
        return self.probes[lo:hi] or self.probes

    def factor(self, start: float, end: float) -> float:
        return scale_factor(self.near(start, end))

    def seconds(self, start: float, end: float, factor: Optional[float] = None) -> float:
        """Calibrated seconds of the wall interval ``[start, end]``;
        ``factor`` overrides the interval's own, so that parts of one
        section can be scaled alike and add up to it."""
        near = self.near(start, end)
        if factor is None:
            factor = scale_factor(near)
        return (end - start - probe_cost(start, end, near)) * factor


def check_probes(start: float, end: float, probes: Sequence[Probe],
                 interval: float = PROBE_INTERVAL_S) -> int:
    """Number of periodic probes that landed in ``[start, end]``;
    raises :class:`CalibrationError` when far fewer landed than the
    section's length implies."""
    landed = sum(1 for p0, _, _ in probes if start <= p0 < end)
    expected = (end - start) / interval
    if landed < MIN_PROBE_SHARE * expected - 1:
        raise CalibrationError(
            f"only {landed} probes landed in a {end - start:.2f} s section "
            f"(expected ~{expected:.0f}): the SIGALRM handler was starved"
        )
    return landed

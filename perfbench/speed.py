"""Host-speed probe: scales measured seconds to a reference CPU speed.

A virtual machine on a shared host changes speed by up to a factor of two,
both within a pass and over minutes (on a 2-vCPU Intel Xeon VM the same
connected-6 pass took 1.9 to 3.0 s within ten minutes), so raw seconds of
the same code spread wider than any useful bound.  While a measured block
runs, a CPU-time timer interrupts it every interval_s and a signal handler
times a fixed pure-Python loop (_probe: tuple composition and dict stores,
the kind of work the package does).  The mean of REF_NS / probe time over
the block is the host's speed relative to a host on which the probe takes
REF_NS.
A block's scaled seconds are its wall seconds, minus the time spent in the
probe itself, times that speed: the seconds it would have taken on the
reference host.  The probe uses no part of the package, so every change to
the package shows in full.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter, perf_counter_ns

# About what the probe takes on the slower of this host's two speeds.
REF_NS = 60_000

_A = (1, 2, 3, 4, 5, 6, 7, 0)
_B = (1, 0, 2, 3, 4, 5, 6, 7)


def _probe() -> None:
    p, seen = _A, {}
    for k in range(40):
        g = _B if k & 1 else _A
        p = tuple([g[i] for i in p])
        seen[p] = k


class SpeedProbe:
    """Context manager: probes the host while the block runs and times the block."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[int] = []
        self.wall_s = 0.0

    def _handler(self, signum, frame) -> None:
        start = perf_counter_ns()
        _probe()
        self.samples.append(perf_counter_ns() - start)

    def __enter__(self) -> "SpeedProbe":
        self._saved = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._saved)

    def speed(self) -> float:
        """Mean host speed during the block; 1.0 is the reference host."""
        if not self.samples:
            raise RuntimeError("the speed probe took no samples")
        return fmean(REF_NS / ns for ns in self.samples)

    def net_s(self) -> float:
        """Wall seconds of the block without the probe's own time."""
        return self.wall_s - sum(self.samples) / 1e9

    def scaled_s(self) -> float:
        """Seconds the block would take on the reference host."""
        return self.net_s() * self.speed()

"""Host pace: a fixed reference kernel timed all through a run.

The benchmark runs on a shared host whose speed changes by up to ~1.7x
within seconds (another tenant on the sibling hyperthread), and by ~40%
between sets of runs minutes apart.  CPU time moves with wall time, so
it does not help.  Instead a :class:`Pacer` times :func:`kernel` — a
fixed mix of the Python-object and numpy work the program does, which
imports nothing from ``repro`` — between the program's operations
during a run.  Every timed op is then reported at the reference pace::

    reported = measured * REFERENCE_US / (kernel time around the op)

so the unit stays microseconds (or seconds): the time the op would take
on a host where :func:`kernel` takes :data:`REFERENCE_US`.  A change to
the program moves the reported figure by exactly as much as it moves
the measured one; a change to the host's speed moves both the op and
the kernel and cancels out, up to how differently the two react to it.

The kernel and :data:`REFERENCE_US` are part of the benchmark's
definition: changing either rescales every reported time.
"""

from __future__ import annotations

import random
import time
from typing import List, Sequence, Tuple

import numpy as np

#: the kernel's duration on the reference host (the 2-vCPU VM of
#: ``RESULTS.md`` when no other tenant competes), in microseconds
REFERENCE_US = 300.0
#: seconds between probes in a closed loop (~1% of the run is kernel)
INTERVAL_S = 0.025
#: an op is scaled by the median probe within this many seconds of it
HALF_WINDOW_S = 0.5
#: probes timed right before and right after a set-up
BURST = 9
#: power of the pace factor applied to the reads' p99s.  The slowest
#: percent of the reads are mostly pauses (a collection over the whole
#: heap, fresh memory) that slow less with the host than the reads' own
#: work: over 2 s windows on the reference VM a read's median moved with
#: the kernel's time to the power 0.9-0.95, its p95 to the power 0.3-0.6,
#: and scaled by the full factor the p99s of runs in the host's fast
#: spells read 15-20% high.  The p90s (delta-generation smcc_l, full
#: publish captures) are the ops' own slow paths and take the full factor:
#: at this power they spread 0.22 where the full factor gave 0.05-0.09.
TAIL_EXPONENT = 0.5

_rng = random.Random(5)
_N = 400
_ADJ: List[List[int]] = [[] for _ in range(_N)]
for _ in range(4 * _N):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)
_QUERIES = [tuple(_rng.sample(range(_N), 3)) for _ in range(64)]
_CACHE = {tuple(sorted(q)): i for i, q in enumerate(_QUERIES)}
_PARENT = np.array([max(0, i - 1 - i % 7) for i in range(8192)])
_WEIGHT = np.random.default_rng(7).integers(0, 50, 8192)
_STARTS = np.arange(0, 8192, 64)


def kernel() -> int:
    """~300 µs of fixed work: a BFS over sets and lists, cache-style
    tuple lookups, and numpy pointer jumping with a segmented minimum."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _ADJ[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    hits = 0
    for q in _QUERIES:
        hits += _CACHE.get(tuple(sorted(q)), 0)
    rep = _PARENT
    for _ in range(4):
        rep = rep[rep]
    low = np.minimum.reduceat(_WEIGHT[rep], _STARTS)
    return len(seen) + hits + int(low[0])


def _ns() -> int:
    return time.perf_counter_ns()


class Pacer:
    """Probes of :func:`kernel` through a run, and the scale they imply."""

    def __init__(self) -> None:
        #: perf_counter_ns start and duration (µs) of every probe
        self.at: List[int] = []
        self.us: List[float] = []
        self._next = 0
        self._smoothed: Tuple[int, np.ndarray] = (0, np.empty(0))

    def probe(self) -> float:
        start = _ns()
        kernel()
        took = (_ns() - start) / 1e3
        self.at.append(start)
        self.us.append(took)
        return took

    def tick(self) -> None:
        """Probe when the last probe is :data:`INTERVAL_S` old (closed loops)."""
        if _ns() >= self._next:
            self.probe()
            self._next = _ns() + int(INTERVAL_S * 1e9)

    def burst(self) -> List[float]:
        return [self.probe() for _ in range(BURST)]

    def busy_s(self, window: Tuple[int, int]) -> float:
        """Seconds spent in probes that started inside ``window``."""
        lo, hi = np.searchsorted(self.at, window, side="left")
        return float(np.sum(self.us[lo:hi])) / 1e6

    def _median_per_probe(self) -> np.ndarray:
        """Median probe duration within :data:`HALF_WINDOW_S` of each probe."""
        count, smoothed = self._smoothed
        if count != len(self.at):
            at = np.asarray(self.at, dtype=np.int64)
            us = np.asarray(self.us, dtype=float)
            half = int(HALF_WINDOW_S * 1e9)
            lo = np.searchsorted(at, at - half, side="left")
            hi = np.searchsorted(at, at + half, side="right")
            smoothed = np.array([np.median(us[a:b]) for a, b in zip(lo, hi)])
            self._smoothed = (len(self.at), smoothed)
        return smoothed

    def scale(self, at_ns: Sequence[int], exponent: float = 1.0) -> np.ndarray:
        """Factor that brings an op started at each ``at_ns`` to the reference
        pace, raised to ``exponent``."""
        if not self.at:
            raise ValueError("no pace probes were taken")
        smoothed = self._median_per_probe()
        at = np.asarray(self.at, dtype=np.int64)
        when = np.asarray(at_ns, dtype=np.int64)
        after = np.searchsorted(at, when)
        left = np.clip(after - 1, 0, len(at) - 1)
        right = np.clip(after, 0, len(at) - 1)
        nearest = np.where(np.abs(when - at[left]) <= np.abs(at[right] - when), left, right)
        return (REFERENCE_US / smoothed[nearest]) ** exponent

    def mean_scale(self, window: Tuple[int, int]) -> float:
        """Time-weighted mean factor over ``window`` (probes are evenly spaced)."""
        lo, hi = np.searchsorted(self.at, window, side="left")
        if hi <= lo:
            return float(self.scale([(window[0] + window[1]) // 2])[0])
        return float(np.mean(REFERENCE_US / self._median_per_probe()[lo:hi]))

"""Summary statistics with the benchmark's tail rule.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it, so ``p99`` needs 1000 samples and ``p90`` 100.
Percentiles use the nearest-rank definition on the sorted samples.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: samples that must lie strictly beyond a reported tail percentile
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A tail was requested from too few samples to honour the rule."""


def _rank(pct: int, n: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` samples."""
    return max(1, -(-pct * n // 100))


def min_samples(pct: int) -> int:
    """Smallest sample count for which ``tail(samples, pct)`` is allowed."""
    n = 1
    while n - _rank(pct, n) < MIN_BEYOND:
        n += 1
    return n


def tail(samples: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, refusing when < 10 samples lie beyond it."""
    n = len(samples)
    rank = _rank(pct, n) if n else 0
    if n == 0 or n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{pct} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"need {MIN_BEYOND} (>= {min_samples(pct)} samples)"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise InsufficientSamples("median of no samples")
    return float(statistics.median(samples))


def p50_or_zero(samples: Sequence[float]) -> float:
    """Median, or 0.0 when the layer did no work (per-layer metrics only)."""
    return median(samples) if samples else 0.0


def tail_or_none(samples: Sequence[float], pct: int) -> Optional[float]:
    try:
        return tail(samples, pct)
    except InsufficientSamples:
        return None


def floors_for(tails: Dict[str, int]) -> Dict[str, int]:
    """Per-op sample floors implied by the tail each op reports."""
    return {op: min_samples(pct) for op, pct in tails.items()}

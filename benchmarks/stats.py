"""Order statistics for the benchmark: percentiles and the tail-sample rule."""

from __future__ import annotations

import math

# A tail percentile is only reported when at least this many samples lie
# beyond it; with fewer, one slow op moves it by a whole rank.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between closest ranks.

    This is numpy's default ("linear") method: rank ``q / 100 * (n - 1)``
    of the sorted values, interpolated between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the q-th percentile."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def tail_ok(n: int, q: float) -> bool:
    """True when the q-th percentile of ``n`` samples has enough tail behind it."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES

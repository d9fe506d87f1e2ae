"""The tail-percentile rule used for every reported timing."""

from __future__ import annotations

import math

# Candidate percentiles for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(values):
    """The highest percentile of TAIL_LADDER with at least ten samples
    strictly beyond its nearest-rank position.

    Returns ``(percentile, value, n)``, or ``None`` when even the median has
    fewer than ten samples beyond it (fewer than 20 samples).
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct * n / 100.0))  # 1-based nearest rank
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n
    return None

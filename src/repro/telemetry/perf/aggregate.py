"""Nearest-rank percentiles over recorded timings.

The value returned is always an actual sample, never an interpolation,
which keeps percentiles exact under float equality: the same samples
yield bit-identical percentiles whatever order they were collected in.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["nearest_rank"]


def nearest_rank(sorted_samples: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty sequence."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    rank = math.ceil(percentile / 100.0 * len(sorted_samples))
    return sorted_samples[rank - 1]

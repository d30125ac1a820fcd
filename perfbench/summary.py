"""Order statistics and fits the benchmark reports."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

#: Percentiles tried, highest first, for the tail of a timing.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail_percentile(
    values: Sequence[float], min_beyond: int = MIN_BEYOND
) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile in
    :data:`TAIL_PERCENTILES` with at least ``min_beyond`` samples
    strictly above its value, or ``None`` when even the median has
    fewer beyond it."""
    data = np.asarray(values, dtype=float)
    for p in TAIL_PERCENTILES:
        value = float(np.percentile(data, p)) if data.size else math.nan
        if int(np.count_nonzero(data > value)) >= min_beyond:
            return p, value
    return None


def loglog_slope(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``.

    The empirical complexity exponent: 1 for linear work, 2 for
    quadratic.  Pairs with a non-positive size or time are skipped;
    ``0.0`` when fewer than two distinct sizes remain.
    """
    x = np.asarray(sizes, dtype=float)
    y = np.asarray(times, dtype=float)
    keep = (x > 0) & (y > 0)
    x, y = np.log(x[keep]), np.log(y[keep])
    if np.unique(x).size < 2:
        return 0.0
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)

"""Small statistics helpers (no pandas dependency)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def mean(xs: Sequence[float]) -> float:
    if not xs:
        raise ValueError("mean of empty sequence")
    return float(sum(xs) / len(xs))


def stdev(xs: Sequence[float]) -> float:
    """Sample standard deviation (ddof=1); 0.0 for fewer than 2 points."""
    if len(xs) < 2:
        return 0.0
    return float(np.std(np.asarray(xs, dtype=float), ddof=1))


def percent_change(new: float, old: float) -> float:
    """(new - old) / old in percent; positive means 'new' is larger."""
    if old == 0:
        raise ZeroDivisionError("old value is zero")
    return (new - old) / old * 100.0


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used for the Fig 4 box plots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @property
    def spread_pct(self) -> float:
        """(max - min) / median, in percent — the paper's >20% criterion."""
        if self.median == 0:
            return math.inf
        return (self.maximum - self.minimum) / self.median * 100.0


def boxplot_stats(xs: Sequence[float]) -> BoxStats:
    arr = np.asarray(xs, dtype=float)
    if arr.size == 0:
        raise ValueError("boxplot of empty sequence")
    q1, med, q3 = (float(v) for v in np.percentile(arr, [25, 50, 75]))
    return BoxStats(
        minimum=float(arr.min()), q1=q1, median=med, q3=q3, maximum=float(arr.max())
    )

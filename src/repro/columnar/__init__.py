"""Columnar sample storage: the monitor's sampling path.

``repro.columnar`` replaces the per-node sample dicts on the monitor
hot path with *implicit* columnar rings that derive their contents
from one shared per-group tick log, so a quiet sampling tick costs
O(1) Python work however many nodes share it.

Every node agent samples through it. The contract is byte identity:
the columnar rings must not change a single output byte for pinned
configurations (see tests/golden/ and docs/performance.md).
"""

from repro.columnar.store import (
    ColumnarNodeStore,
    ColumnarRing,
    ColumnarSamples,
    TickLog,
    columnar_store_of,
)

__all__ = [
    "ColumnarNodeStore",
    "ColumnarRing",
    "ColumnarSamples",
    "TickLog",
    "columnar_store_of",
]

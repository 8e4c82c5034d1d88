"""Columnar sample storage: the monitor's sampling path.

``repro.columnar`` replaces the per-node sample dicts on the monitor
hot path with *implicit* columnar rings that derive their contents
from one shared per-group tick log, so a quiet sampling tick costs
O(1) Python work however many nodes share it.

Every ``attach_monitor`` deployment samples through it. The contract
is byte identity: the columnar rings must not change a single output
byte for pinned configurations (see tests/golden/ and
docs/performance.md). An agent whose samples could not be reproduced
exactly keeps an explicit ring buffer instead: noisy sensors, a second
per-sample overhead charge on the same engine, and agents restored
from a snapshot.
"""

from repro.columnar.store import (
    ColumnarNodeStore,
    ColumnarRing,
    ColumnarSamples,
    GroupColumns,
    TickLog,
    columnar_of,
    columnar_store_of,
)

__all__ = [
    "ColumnarNodeStore",
    "ColumnarRing",
    "ColumnarSamples",
    "GroupColumns",
    "TickLog",
    "columnar_of",
    "columnar_store_of",
]

"""Columnar sample storage under the monitor's sampling path.

``repro.columnar`` replaces the per-node sample dicts on the monitor
hot path with *implicit* columnar rings that derive their contents
from one shared per-group tick log, so a quiet sampling tick costs
O(1) Python work however many nodes share it. It holds storage only:
:class:`TickLog`, :class:`ColumnarRing` and the lazy
:class:`ColumnarSamples` view. The sampler
(:mod:`repro.monitor.sampler`) drives them.

Every node agent samples through it. The contract is byte identity:
the columnar rings must not change a single output byte for pinned
configurations (see tests/golden/ and docs/performance.md).
"""

from repro.columnar.store import ColumnarRing, ColumnarSamples, TickLog

__all__ = ["ColumnarRing", "ColumnarSamples", "TickLog"]

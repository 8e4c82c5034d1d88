"""Ring-buffer sizing and the query downsampler.

Each node agent keeps Variorum JSON samples in a ring: when full, the
oldest sample is overwritten. The paper's default is 100,000 samples ≈
43.4 MiB (~455 bytes per serialised Variorum JSON object); at the 2 s
default sampling rate that is ~2.3 days of history per node. A job
whose start predates the oldest retained sample gets a *partial* data
flag in the client CSV.

The ring itself is a :class:`~repro.columnar.store.ColumnarRing`, which
derives its contents from a shared tick log without storing a dict per
sample; ``tests/ring_reference.py`` holds the explicit ring it must
answer like. The agent mirrors ring state into the observability
hub — fill level as ``monitor_buffer_occupancy{rank=...}``,
wrap-around losses as ``monitor_buffer_dropped{rank=...}``,
administrative flushes as ``monitor_buffer_flushes_total`` (see
docs/observability.md).
"""

from __future__ import annotations

from typing import Any, List

#: Bytes per serialised sample used for capacity accounting; chosen so
#: the paper's default (100,000 samples) comes to 43.4 MiB.
DEFAULT_SAMPLE_BYTES = 455

#: The paper's default buffer capacity.
DEFAULT_CAPACITY = 100_000


def downsample_evenly(samples: List[Any], max_samples: int) -> List[Any]:
    """Pick at most ``max_samples`` entries at an even stride.

    The last sample is always retained so a downsampled timeline still
    reaches the end of the queried window (a plain ``samples[::stride]``
    silently drops it whenever ``(len-1) % stride != 0``); the first
    sample is always retained by construction. Used by the node agent
    for long-window queries and property-tested in
    ``tests/test_property_buffer_shares.py``.
    """
    if max_samples < 1:
        raise ValueError(f"max_samples must be >= 1, got {max_samples}")
    if len(samples) <= max_samples:
        return samples
    if max_samples == 1:
        return [samples[-1]]
    stride = -(-(len(samples) - 1) // (max_samples - 1))
    picked = samples[::stride]
    if (len(samples) - 1) % stride != 0:
        picked.append(samples[-1])
    return picked

"""Canonical JSON encoding for cross-run digests.

Every digest in the reproduction (simtest and federated simtest
results, the federated site digest, the loadtest response digest)
hashes the same encoding: floats rounded to 9 decimals, so a digest
survives platform-level printf differences while still pinning every
physically meaningful divergence, and dict keys sorted, so insertion
order never leaks into the bytes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical(obj: Any) -> Any:
    """Round floats / sort keys for a stable cross-run JSON digest."""
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def canonical_digest(obj: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``obj``."""
    blob = json.dumps(canonical(obj), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()

"""Equivalence and pricing-identity pins for the batched hot path.

Two families of invariants back the ISSUE-3 perf work (the sampling
path itself is pinned against the golden fixtures by
``test_golden_determinism``):

* **RNG stream identity** — vectorized draws (``Generator.normal`` /
  ``standard_normal`` with a ``size``) fill the stream sequentially,
  so they equal the scalar per-draw loop they replaced bit for bit.
  The overlay path-delay model relies on this.

* **Arithmetic wire-size pricing** — query responses are priced as
  ``base + n_samples * per_node_sample_size`` instead of walking every
  sample dict; subtree queries as ``base + 8 * n_ranks``. Both must
  exactly equal what a full :func:`estimate_payload_bytes` walk of the
  same object returns, and the per-node sample size must go stale
  (template rebuilt) whenever a power mutation bumps ``power_rev``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import variorum
from repro.flux.message import estimate_payload_bytes
from repro.hardware.platforms.generic import make_generic_node
from repro.hardware.platforms.lassen import make_lassen_node
from repro.hardware.platforms.tioga import make_tioga_node
from repro.monitor.root_agent import _subtree_query
from repro.variorum.backends import get_backend


# ---------------------------------------------------------------------------
# Vectorized RNG draws equal the scalar loop they replaced
# ---------------------------------------------------------------------------

def test_vector_standard_normal_equals_scalar_draws():
    """standard_normal(n) (overlay path delays) is also stream-identical."""
    vec_rng = np.random.default_rng(99)
    scal_rng = np.random.default_rng(99)
    vec = vec_rng.standard_normal(5)
    scal = [scal_rng.standard_normal() for _ in range(5)]
    assert [float(x) for x in vec] == [float(x) for x in scal]


# ---------------------------------------------------------------------------
# Arithmetic wire-size pricing == full estimator walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make_node", [make_lassen_node, make_tioga_node, make_generic_node]
)
def test_sample_wire_bytes_equals_full_walk(make_node):
    node = make_node("n0")
    assert variorum.sample_wire_bytes(node) is None  # no sample yet
    sample = variorum.get_node_power_json(node, 3.25)
    size = variorum.sample_wire_bytes(node)
    assert size == estimate_payload_bytes(dict(sample))
    # Later samples (template fast path included) price identically.
    backend = get_backend(node.spec.vendor)
    later = backend.sample_cached(node, 5.0)
    assert estimate_payload_bytes(dict(later)) == size


def test_query_record_pricing_identity():
    """base + n * sample_size == walking the full response record."""
    node = make_lassen_node("n0")
    backend = get_backend(node.spec.vendor)
    samples = [backend.sample_cached(node, 2.0 * i) for i in range(6)]
    record = {
        "hostname": node.hostname,
        "rank": 3,
        "samples": samples,
        "complete": True,
        "downsampled": False,
    }
    base = estimate_payload_bytes({**record, "samples": []})
    per_sample = variorum.sample_wire_bytes(node)
    assert per_sample is not None
    assert base + 6 * per_sample == estimate_payload_bytes(record)


def test_subtree_query_pricing_identity():
    """The pre-stamped subtree query size equals a fresh full walk."""
    ranks = [3, 4, 5, 9, 12]
    payload = _subtree_query(ranks, 0.0, 60.0, {"max_samples": 100})
    assert payload._size_cache == estimate_payload_bytes(dict(payload))
    bare = _subtree_query([7], 10.0, 20.0, {})
    assert bare._size_cache == estimate_payload_bytes(dict(bare))


# ---------------------------------------------------------------------------
# Template fast path: correctness and invalidation
# ---------------------------------------------------------------------------

def test_sample_cached_equals_full_rebuild():
    node = make_lassen_node("n0")
    backend = get_backend(node.spec.vendor)
    first = backend.sample_cached(node, 0.0)
    hit = backend.sample_cached(node, 2.0)  # template hit
    assert hit is not first  # fresh dict, write-once safety
    assert hit == backend.get_node_power_json(node, 2.0)
    # Off-grid timestamps quantise identically on both paths.
    odd = backend.sample_cached(node, 7.0001234)
    assert odd == backend.get_node_power_json(node, 7.0001234)


def _uncached_total_power_w(node) -> float:
    """``Node.total_power_w`` recomputed from the domains, no memo."""
    raw = sum([d.actual_w for d in node.domains.values()])
    if node.opal is not None and node.opal.node_cap_w is not None:
        idle = sum(d.spec.idle_w for d in node.domains.values())
        return min(raw, max(node.opal.node_cap_w, idle))
    return raw


def _loaded_lassen_node():
    """A Lassen node drawing its maximum, with one GPU capped, so every
    mutation below changes its power."""
    node = make_lassen_node("n0")
    for dom in node.domains.values():
        dom.set_demand(dom.spec.max_w)
    node.domains["gpu1"].set_cap("test", 150.0)
    return node


def _node_cap(node) -> None:
    node.opal.set_node_power_cap(1000.0)  # binds: the node draws 1790 W


#: Every kind of power mutation — demand and per-domain cap, each set
#: and cleared, and the OPAL node cap set and changed — with the setup
#: that makes it bite.
POWER_MUTATIONS = {
    "demand-set": (None, lambda node: node.domains["gpu0"].set_demand(280.0)),
    "demand-clear": (None, lambda node: node.domains["cpu0"].clear_demand()),
    "cap-set": (None, lambda node: node.domains["cpu0"].set_cap("test", 120.0)),
    "cap-clear": (None, lambda node: node.domains["gpu1"].set_cap("test", None)),
    "node-cap-set": (None, _node_cap),
    "node-cap-change": (
        _node_cap, lambda node: node.opal.set_node_power_cap(1200.0)
    ),
}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda node: node.domains["gpu0"].set_demand(280.0),
        lambda node: node.domains["cpu0"].set_cap("test", 120.0),
        lambda node: node.domains["cpu0"].clear_demand(),
        lambda node: node.opal.set_node_power_cap(1950.0),
        lambda node: node.opal.set_node_power_cap(700.0),
    ],
)
def test_power_mutations_invalidate_template(mutate):
    node = make_lassen_node("n0")
    backend = get_backend(node.spec.vendor)
    backend.sample_cached(node, 0.0)  # prime the template
    node.total_power_w()  # prime the power memo
    rev = node.power_rev
    mutate(node)
    assert node.power_rev > rev, "mutation must bump power_rev"
    after = backend.sample_cached(node, 2.0)
    assert after == backend.get_node_power_json(node, 2.0)
    assert node.total_power_w() == _uncached_total_power_w(node)


@pytest.mark.parametrize(
    "prepare, mutate", list(POWER_MUTATIONS.values()), ids=list(POWER_MUTATIONS)
)
def test_power_mutations_invalidate_template_and_memo(prepare, mutate):
    """On a loaded node every mutation kind changes the power, so a stale
    template or power memo cannot pass by coincidence."""
    node = _loaded_lassen_node()
    if prepare is not None:
        prepare(node)
    backend = get_backend(node.spec.vendor)
    backend.sample_cached(node, 0.0)  # prime the template
    before = node.total_power_w()  # prime the power memo
    rev = node.power_rev
    mutate(node)
    assert node.power_rev > rev, "mutation must bump power_rev"
    after = backend.sample_cached(node, 2.0)
    assert after == backend.get_node_power_json(node, 2.0)
    assert node.total_power_w() == _uncached_total_power_w(node)
    assert node.total_power_w() != before


def test_power_memo_tracks_a_mutation_sequence():
    """Chained mutations: after each, the memo equals a recomputation."""
    node = _loaded_lassen_node()
    assert node.total_power_w() == _uncached_total_power_w(node)
    mutations = [mutate for _prepare, mutate in POWER_MUTATIONS.values()]
    for mutate in mutations + mutations[::-1]:
        node.total_power_w()
        mutate(node)
        assert node.total_power_w() == _uncached_total_power_w(node)
        assert node.idle_power_w() == sum(
            d.spec.idle_w for d in node.domains.values()
        )


def test_template_reflects_demand_change():
    node = make_lassen_node("n0")
    backend = get_backend(node.spec.vendor)
    before = backend.sample_cached(node, 0.0)
    node.domains["gpu0"].set_demand(280.0)
    after = backend.sample_cached(node, 2.0)
    assert after["power_gpu_watts_gpu_0"] != before["power_gpu_watts_gpu_0"]

"""Unit tests for the workload/queue generators."""

import numpy as np

from repro.apps.workloads import PAPER_QUEUE_MIX, make_random_queue


def test_default_queue_has_paper_composition():
    queue = make_random_queue(np.random.default_rng(1))
    counts = {}
    for entry in queue:
        counts[entry.spec.app] = counts.get(entry.spec.app, 0) + 1
    assert counts == PAPER_QUEUE_MIX
    assert len(queue) == 10


def test_node_counts_in_range():
    queue = make_random_queue(np.random.default_rng(2), min_nodes=1, max_nodes=8)
    assert all(1 <= e.spec.nnodes <= 8 for e in queue)


def test_same_seed_same_queue():
    a = make_random_queue(np.random.default_rng(7))
    b = make_random_queue(np.random.default_rng(7))
    assert [(e.spec.app, e.spec.nnodes) for e in a] == [
        (e.spec.app, e.spec.nnodes) for e in b
    ]


def test_different_seeds_differ():
    a = make_random_queue(np.random.default_rng(1))
    b = make_random_queue(np.random.default_rng(2))
    assert [(e.spec.app, e.spec.nnodes) for e in a] != [
        (e.spec.app, e.spec.nnodes) for e in b
    ]


def test_work_scales_propagate_to_params():
    queue = make_random_queue(
        np.random.default_rng(1), work_scales={"gemm": 2.5}
    )
    for e in queue:
        if e.spec.app == "gemm":
            assert e.spec.params["work_scale"] == 2.5
        else:
            assert "work_scale" not in e.spec.params


def test_custom_mix():
    queue = make_random_queue(np.random.default_rng(1), mix={"nqueens": 4})
    assert len(queue) == 4
    assert all(e.spec.app == "nqueens" for e in queue)


def test_submit_spread_offsets():
    queue = make_random_queue(np.random.default_rng(1), submit_spread_s=100.0)
    offsets = [e.submit_offset_s for e in queue]
    assert all(0.0 <= o <= 100.0 for o in offsets)
    assert len(set(offsets)) > 1


def test_zero_spread_means_all_at_zero():
    queue = make_random_queue(np.random.default_rng(1))
    assert all(e.submit_offset_s == 0.0 for e in queue)


def test_job_names_unique():
    queue = make_random_queue(np.random.default_rng(1))
    names = [e.spec.name for e in queue]
    assert len(set(names)) == len(names)

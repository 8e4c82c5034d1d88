"""Unit + property tests for the TBON overlay."""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.flux.overlay import TBON


def test_parent_child_relationship_binary():
    t = TBON(size=7, fanout=2)
    assert t.parent(0) is None
    assert t.parent(1) == 0 and t.parent(2) == 0
    assert t.children(0) == [1, 2]
    assert t.children(1) == [3, 4]
    assert t.children(3) == []


def test_fanout_k_children():
    t = TBON(size=13, fanout=3)
    assert t.children(0) == [1, 2, 3]
    assert t.children(1) == [4, 5, 6]


def test_depth():
    t = TBON(size=7, fanout=2)
    assert t.depth(0) == 0
    assert t.depth(1) == 1
    assert t.depth(3) == 2


def test_max_depth_single_node():
    t = TBON(size=1)
    assert t.depth(0) == 0
    assert t.children(0) == []


def test_route_to_self_is_single_hop_free():
    t = TBON(size=8)
    assert t.route(3, 3) == [3]
    assert t.path_delay(3, 3) == 0.0


def test_route_up_to_root():
    t = TBON(size=8, fanout=2)
    assert t.route(5, 0) == [5, 2, 0]


def test_route_through_lca():
    t = TBON(size=8, fanout=2)
    # 3's ancestors: 3,1,0 ; 5's: 5,2,0 -> LCA is 0.
    assert t.route(3, 5) == [3, 1, 0, 2, 5]
    # 3 and 4 share parent 1.
    assert t.route(3, 4) == [3, 1, 4]


def test_invalid_rank_rejected():
    t = TBON(size=4)
    with pytest.raises(ValueError):
        t.route(0, 4)
    with pytest.raises(ValueError):
        t.parent(-1)


def test_invalid_construction():
    with pytest.raises(ValueError):
        TBON(size=0)
    with pytest.raises(ValueError):
        TBON(size=4, fanout=0)


def test_graph_is_a_tree():
    for size, fanout in [(1, 2), (5, 2), (16, 2), (17, 4), (100, 3)]:
        g = TBON(size=size, fanout=fanout).graph()
        assert g.number_of_nodes() == size
        assert g.number_of_edges() == size - 1
        assert nx.is_connected(g) if size > 1 else True
        assert nx.is_tree(g)


def test_path_delay_scales_with_hops():
    t = TBON(size=16, fanout=2, hop_latency_s=1e-4)
    assert t.path_delay(15, 0) == pytest.approx(4e-4)  # 15->7->3->1->0
    assert t.path_delay(1, 0) == pytest.approx(1e-4)


def test_hop_delay_jitter_seeded():
    import numpy as np

    t1 = TBON(size=4, rng=np.random.default_rng(5), latency_jitter=0.2)
    t2 = TBON(size=4, rng=np.random.default_rng(5), latency_jitter=0.2)
    d1 = [t1.hop_delay() for _ in range(10)]
    d2 = [t2.hop_delay() for _ in range(10)]
    assert d1 == d2
    assert len(set(d1)) > 1
    assert all(d > 0 for d in d1)


@given(
    size=st.integers(1, 200),
    fanout=st.integers(1, 5),
    data=st.data(),
)
def test_route_properties(size, fanout, data):
    """Routes start/end correctly, follow tree edges, and have no cycles."""
    t = TBON(size=size, fanout=fanout)
    src = data.draw(st.integers(0, size - 1))
    dst = data.draw(st.integers(0, size - 1))
    route = t.route(src, dst)
    assert route[0] == src
    assert route[-1] == dst
    assert len(set(route)) == len(route)  # no revisits
    for a, b in zip(route, route[1:]):
        assert t.parent(a) == b or t.parent(b) == a  # tree edges only


@given(size=st.integers(2, 200), fanout=st.integers(1, 5))
def test_every_rank_reaches_root(size, fanout):
    t = TBON(size=size, fanout=fanout)
    for rank in range(size):
        chain = list(t.ancestors(rank))
        assert chain[0] == rank
        assert chain[-1] == 0
        assert len(chain) == t.depth(rank) + 1


@given(
    size=st.integers(1, 200),
    fanout=st.integers(1, 5),
    data=st.data(),
)
def test_hop_count_matches_route_without_building_it(size, fanout, data):
    t = TBON(size=size, fanout=fanout)
    src = data.draw(st.integers(0, size - 1))
    dst = data.draw(st.integers(0, size - 1))
    hops = t.hop_count(src, dst)
    assert t._route_cache == {}  # pricing a message builds no route list
    assert hops == t.hop_count(src, dst) == len(t.route(src, dst)) - 1

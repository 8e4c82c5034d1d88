"""Tree-Based Overlay Network (TBON) topology and routing.

Flux brokers form a k-ary tree rooted at rank 0; messages travel
hop-by-hop along tree edges (up to the lowest common ancestor, then
down). The topology is also materialised as a :mod:`networkx` graph for
validation and for the TBON ablation benchmarks (depth/fan-out versus
aggregation latency).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx
import numpy as np


class TBON:
    """A k-ary tree over broker ranks ``0..size-1``.

    Parameters
    ----------
    size:
        Number of brokers (= nodes in the instance).
    fanout:
        Tree arity ``k`` (Flux default topology is k=2 unless
        configured otherwise).
    hop_latency_s:
        Mean one-hop message latency. Real TBON hops are tens of
        microseconds on InfiniBand; the default is deliberately
        conservative (100 µs).
    latency_jitter:
        Fractional jitter applied per hop when an RNG is supplied.
    """

    #: Per-hop link bandwidth: 100 Gb/s EDR InfiniBand (Lassen's fabric)
    #: at ~theoretical payload rate.
    DEFAULT_BANDWIDTH_BPS = 12.5e9

    def __init__(
        self,
        size: int,
        fanout: int = 2,
        hop_latency_s: float = 100e-6,
        latency_jitter: float = 0.1,
        rng: Optional[np.random.Generator] = None,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    ) -> None:
        if size < 1:
            raise ValueError(f"TBON size must be >= 1, got {size}")
        if fanout < 1:
            raise ValueError(f"TBON fanout must be >= 1, got {fanout}")
        self.size = int(size)
        self.fanout = int(fanout)
        self.hop_latency_s = float(hop_latency_s)
        self.latency_jitter = float(latency_jitter)
        self.bandwidth_bps = float(bandwidth_bps)
        self._rng = rng
        # The topology is immutable, so hop counts, routes, child lists,
        # depths and subtree spans are computed once; every transmit
        # prices its hop count, the fault layer walks the route, and the
        # tree aggregation strategy walks subtrees per query — all of
        # which made topology reconstruction a per-message cost. Hop
        # counts are cached as plain ints: only a run with crashed
        # ranks asks for the route lists themselves.
        self._hop_cache: Dict[Tuple[int, int], int] = {}
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        self._children_cache: Dict[int, List[int]] = {}
        self._depth_cache: Dict[int, int] = {}
        self._subtree_cache: Dict[int, frozenset] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def parent(self, rank: int) -> Optional[int]:
        """Parent rank in the tree, or None for the root."""
        self._check(rank)
        if rank == 0:
            return None
        return (rank - 1) // self.fanout

    def children(self, rank: int) -> List[int]:
        """Child ranks of ``rank``, in increasing order (cached;
        callers must not mutate the returned list)."""
        cached = self._children_cache.get(rank)
        if cached is not None:
            return cached
        self._check(rank)
        first = rank * self.fanout + 1
        kids = [r for r in range(first, first + self.fanout) if r < self.size]
        self._children_cache[rank] = kids
        return kids

    def depth(self, rank: int) -> int:
        """Number of hops from ``rank`` up to the root (cached)."""
        cached = self._depth_cache.get(rank)
        if cached is not None:
            return cached
        d = 0
        r = rank
        while r != 0:
            r = self.parent(r)  # type: ignore[assignment]
            d += 1
        self._depth_cache[rank] = d
        return d

    def subtree_ranks(self, root: int) -> frozenset:
        """All ranks in the subtree rooted at ``root``, inclusive (cached)."""
        cached = self._subtree_cache.get(root)
        if cached is not None:
            return cached
        out = set()
        stack = [root]
        while stack:
            r = stack.pop()
            out.add(r)
            stack.extend(self.children(r))
        span = frozenset(out)
        self._subtree_cache[root] = span
        return span

    def ancestors(self, rank: int) -> Iterator[int]:
        """Yield ``rank`` and then each ancestor up to and including 0."""
        r = rank
        yield r
        while r != 0:
            r = self.parent(r)  # type: ignore[assignment]
            yield r

    def route(self, src: int, dst: int) -> List[int]:
        """Hop-by-hop path from ``src`` to ``dst`` (inclusive of both).

        Tree routing: ascend from both endpoints to their lowest common
        ancestor, then descend. Cached per (src, dst); callers must not
        mutate the returned list.
        """
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        self._check(src)
        self._check(dst)
        up_src = list(self.ancestors(src))
        up_dst = list(self.ancestors(dst))
        set_src = {r: i for i, r in enumerate(up_src)}
        # First ancestor of dst that also lies on src's ancestor chain
        # is the LCA.
        for j, r in enumerate(up_dst):
            if r in set_src:
                i = set_src[r]
                path = up_src[: i + 1] + list(reversed(up_dst[:j]))
                self._route_cache[(src, dst)] = path
                return path
        raise AssertionError("tree has a single root; LCA must exist")

    def graph(self) -> nx.Graph:
        """The topology as an undirected networkx graph."""
        g = nx.Graph()
        g.add_nodes_from(range(self.size))
        for r in range(1, self.size):
            g.add_edge(r, self.parent(r))
        return g

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    def hop_delay(self) -> float:
        """Latency of one hop, with seeded jitter when configured."""
        base = self.hop_latency_s
        if self._rng is None or self.latency_jitter <= 0:
            return base
        factor = 1.0 + self.latency_jitter * float(self._rng.standard_normal())
        return max(base * 0.1, base * factor)

    def hop_count(self, src: int, dst: int) -> int:
        """Number of tree edges a message from ``src`` to ``dst`` crosses.

        Pure topology (no RNG draw) — usable by telemetry accounting
        without perturbing the seeded latency stream that
        :meth:`path_delay` consumes. Cached per (src, dst) as an int,
        derived from the endpoints' depths without building the route.
        """
        hops = self._hop_cache.get((src, dst))
        if hops is not None:
            return hops
        self._check(src)
        self._check(dst)
        a, b = src, dst
        da, db = self.depth(src), self.depth(dst)
        hops = 0
        # Step the deeper endpoint up until both meet at their lowest
        # common ancestor; each step crosses one tree edge.
        while a != b:
            if da >= db:
                a, da = (a - 1) // self.fanout, da - 1
            else:
                b, db = (b - 1) // self.fanout, db - 1
            hops += 1
        self._hop_cache[(src, dst)] = hops
        return hops

    def path_delay(self, src: int, dst: int, size_bytes: int = 0) -> float:
        """Total latency for a message from ``src`` to ``dst``.

        ``size_bytes`` adds store-and-forward serialisation time per
        hop — negligible for control RPCs, dominant for whole-machine
        telemetry payloads.
        """
        hops = self.hop_count(src, dst)
        serialise = (
            size_bytes * 8.0 / self.bandwidth_bps if size_bytes > 0 else 0.0
        )
        base = self.hop_latency_s
        total = 0.0
        if self._rng is None or self.latency_jitter <= 0:
            # Repeated addition (not hops * term) to stay bit-identical
            # to the historical per-hop accumulation.
            for _ in range(hops):
                total += base + serialise
            return total
        # One vectorised draw consumes the generator stream exactly as
        # ``hops`` scalar standard_normal() calls did (pinned by
        # tests/test_sampling_equivalence.py); the sum stays
        # left-to-right so jittered runs are byte-identical too.
        draws = self._rng.standard_normal(hops)
        jitter = self.latency_jitter
        floor = base * 0.1
        for i in range(hops):
            delay = base * (1.0 + jitter * float(draws[i]))
            if delay < floor:
                delay = floor
            total += delay + serialise
        return total

    def _check(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range [0, {self.size})")

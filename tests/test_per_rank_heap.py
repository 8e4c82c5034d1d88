"""Per-rank heap bound: what one more node costs the garbage collector.

A 1,000-node El Capitan instance with the monitor attached, after 30
simulated seconds of sampling, must hold no more GC-tracked objects per
node than it does today (plus a small margin), and each per-node class
must stay within CPython's shared-key limit: an instance with more than
30 attributes gets a private, much larger ``__dict__``.
"""

import gc

from repro.flux.broker import Broker
from repro.flux.instance import FluxInstance
from repro.hardware.domains import PowerDomain
from repro.hardware.node import Node
from repro.monitor.module import attach_monitor
from repro.monitor.node_agent import NodeAgentModule

N_NODES = 1000
#: Measured 42.7 tracked objects per node (CPython 3.11); the margin
#: absorbs interpreter and library patch releases, not new per-node state.
TRACKED_PER_NODE_MAX = 44.0
#: CPython shares instance-dict keys across instances only up to this
#: many attributes.
SHARED_KEYS_MAX = 30


def _build():
    inst = FluxInstance(platform="elcapitan", n_nodes=N_NODES, seed=0, fanout=32)
    attach_monitor(inst, sample_interval_s=1.0, buffer_capacity=64)
    inst.run_for(30.0)
    return inst


def test_tracked_objects_per_node_stay_bounded():
    gc.collect()
    before = len(gc.get_objects())
    inst = _build()
    gc.collect()
    per_node = (len(gc.get_objects()) - before) / N_NODES
    assert len(inst.brokers) == N_NODES
    assert per_node <= TRACKED_PER_NODE_MAX, f"{per_node:.1f} tracked objects per node"


def test_per_node_classes_keep_shared_instance_keys():
    inst = _build()
    broker = inst.brokers[N_NODES // 2]
    (agent,) = [m for m in broker.modules.values() if isinstance(m, NodeAgentModule)]
    node = broker.node
    domain = next(iter(node.domains.values()))
    objs = (broker, node, agent, domain)
    assert [type(obj) for obj in objs] == [Broker, Node, NodeAgentModule, PowerDomain]
    sizes = {type(obj).__name__: len(vars(obj)) for obj in objs}
    assert all(n <= SHARED_KEYS_MAX for n in sizes.values()), sizes

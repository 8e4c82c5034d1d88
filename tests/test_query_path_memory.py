"""The job-power query path runs in bounded memory.

The root agent (and, under the ``tree`` strategy, every subtree
aggregator) spawns a collector and one watcher per leg for each
``GET_JOB_POWER`` query. A module holds only its live processes, so
once a query is answered and the caller drops the response, nothing of
it stays reachable: no finished process in any module's process list,
no ``ColumnarSamples`` window from its records. A decided wait lets go
at once: the losing retry-timeout legs still fire (and are counted)
five simulated seconds later, but they no longer reach the watcher,
its ``AnyOf`` or the response it was handed.
"""

import gc

import pytest

from repro.columnar.store import ColumnarSamples
from repro.flux.broker import Broker
from repro.flux.instance import FluxInstance
from repro.flux.module import Module
from repro.flux.overlay import TBON
from repro.monitor.module import attach_monitor
from repro.monitor.root_agent import GET_JOB_POWER_TOPIC
from repro.simkernel import AnyOf, Process, Simulator, Timeout
from repro.simkernel.process import _CompositeLeg

N_NODES = 8
N_QUERIES = 12
#: (events_processed, pending()) right after the last response,
#: recorded while decided waits still held their losing legs: letting
#: go disarms those legs' events but neither adds nor cancels one.
ENGINE_AT_LAST_RESPONSE = {"fanout": (470, 21), "tree": (992, 79)}


def _columnar_windows() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, ColumnarSamples))


def _query(inst, ranks, t_start, t_end):
    fut = inst.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC,
        {"ranks": ranks, "t_start": t_start, "t_end": t_end},
    )
    while not fut.triggered:
        assert inst.sim.step(), "engine drained before the response"
    return fut.value["nodes"]


def _run_queries(strategy, settle_s=60.0):
    """Run the queries; then ``settle_s`` more simulated seconds (the
    default is past every watcher's retry timeouts)."""
    inst = FluxInstance(platform="lassen", n_nodes=N_NODES, seed=7, fanout=2)
    attach_monitor(inst, sample_interval_s=1.0, buffer_capacity=16, strategy=strategy)
    inst.run_for(10.5)
    before = _columnar_windows()
    for k in range(N_QUERIES):
        if k:
            inst.run_for(1.0)
        ranks = [(k + i) % N_NODES for i in range(4)]
        nodes = _query(inst, ranks, inst.sim.now - 5.0, inst.sim.now)
        assert len(nodes) == len(ranks)
        assert all(isinstance(n["samples"], ColumnarSamples) for n in nodes)
        assert all(len(n["samples"]) == 5 for n in nodes)
    nodes = None
    if settle_s:
        inst.run_for(settle_s)
    return inst, before


@pytest.mark.parametrize("strategy", ["fanout", "tree"])
def test_modules_hold_no_finished_process(strategy):
    inst, _ = _run_queries(strategy)
    modules = [m for b in inst.brokers for m in b.modules.values()]
    assert any(m.name == "power-monitor-root" for m in modules)
    finished = [
        (m.name, p.name) for m in modules for p in m._procs if not p._alive
    ]
    assert finished == []


@pytest.mark.parametrize("strategy", ["fanout", "tree"])
def test_dropped_query_results_are_unreachable(strategy):
    inst, before = _run_queries(strategy)
    assert _columnar_windows() == before


@pytest.mark.parametrize("strategy", ["fanout", "tree"])
def test_decided_waits_hold_no_query_state(strategy):
    # Read right after the last response, while the losing 5 s
    # timeout legs of the last queries' watchers are still pending.
    inst, before = _run_queries(strategy, settle_s=0.0)
    sim = inst.sim
    assert (sim.events_processed, sim.pending()) == ENGINE_AT_LAST_RESPONSE[strategy]
    gc.collect()
    held = [
        type(obj).__name__ for obj in gc.get_objects()
        if isinstance(obj, (Process, AnyOf, _CompositeLeg))
        and not (isinstance(obj, Process) and obj._alive)
    ]
    assert held == []
    assert _columnar_windows() == before


def test_unload_still_kills_a_looping_process():
    sim = Simulator()
    broker = Broker(sim, 0, TBON(size=1))
    ticks = []

    class Spawner(Module):
        name = "spawner"

        def on_load(self):
            self.spawn(self._once(), name="once")
            self.spawn(self._loop(), name="loop")

        def _once(self):
            yield Timeout(0.5)

        def _loop(self):
            while True:
                yield Timeout(1.0)
                ticks.append(sim.now)

    module = Spawner(broker)
    broker.load_module(module)
    sim.run(until=3.0)
    assert [p.name for p in module._procs] == ["loop"]
    looping = next(iter(module._procs))
    broker.unload_module("spawner")
    assert not looping._alive
    assert not module._procs
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]

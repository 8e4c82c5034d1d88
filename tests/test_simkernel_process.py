"""Unit tests for generator-based processes."""

import pytest

from repro.simkernel import (
    AllOf,
    AnyOf,
    Process,
    SimEvent,
    Simulator,
    Timeout,
)


def test_timeout_advances_time():
    sim = Simulator()
    seen = []

    def gen():
        yield Timeout(5.0)
        seen.append(sim.now)

    Process(sim, gen())
    sim.run()
    assert seen == [5.0]


def test_timeout_value_is_delivered():
    sim = Simulator()
    got = []

    def gen():
        v = yield Timeout(1.0, value="hello")
        got.append(v)

    Process(sim, gen())
    sim.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_process_result_available_after_completion():
    sim = Simulator()

    def gen():
        yield Timeout(1.0)
        return 42

    p = Process(sim, gen())
    sim.run()
    assert p.result == 42


def test_result_raises_while_alive():
    sim = Simulator()

    def gen():
        yield Timeout(1.0)

    p = Process(sim, gen())
    with pytest.raises(RuntimeError):
        _ = p.result


def test_simevent_succeed_resumes_waiter():
    sim = Simulator()
    ev = SimEvent(sim)
    got = []

    def waiter():
        v = yield ev
        got.append(v)

    Process(sim, waiter())
    sim.schedule(3.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_simevent_fail_raises_in_waiter():
    sim = Simulator()
    ev = SimEvent(sim)
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    Process(sim, waiter())
    sim.schedule(1.0, ev.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_simevent_double_trigger_rejected():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_waiting_on_triggered_event_resumes_immediately():
    sim = Simulator()
    ev = SimEvent(sim)
    ev.succeed("early")
    got = []

    def waiter():
        v = yield ev
        got.append((sim.now, v))

    Process(sim, waiter())
    sim.run()
    assert got == [(0.0, "early")]


def test_event_value_property():
    sim = Simulator()
    ev = SimEvent(sim)
    with pytest.raises(RuntimeError):
        _ = ev.value
    ev.succeed(7)
    assert ev.value == 7


def test_multiple_waiters_all_resume():
    sim = Simulator()
    ev = SimEvent(sim)
    got = []

    def waiter(i):
        v = yield ev
        got.append((i, v))

    for i in range(3):
        Process(sim, waiter(i))
    sim.schedule(1.0, ev.succeed, "x")
    sim.run()
    assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]


def test_process_waits_on_another_process():
    sim = Simulator()
    got = []

    def child():
        yield Timeout(2.0)
        return "done"

    def parent():
        c = Process(sim, child())
        v = yield c
        got.append((sim.now, v))

    Process(sim, parent())
    sim.run()
    assert got == [(2.0, "done")]


def test_child_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child():
        yield Timeout(1.0)
        raise RuntimeError("child died")

    def parent():
        try:
            yield Process(sim, child())
        except RuntimeError as exc:
            caught.append(str(exc))

    Process(sim, parent())
    sim.run()
    assert caught == ["child died"]


def test_allof_gathers_results_in_order():
    sim = Simulator()
    got = []

    def gen():
        results = yield AllOf(sim, [Timeout(3.0, "a"), Timeout(1.0, "b")])
        got.append((sim.now, results))

    Process(sim, gen())
    sim.run()
    assert got == [(3.0, ["a", "b"])]


def test_allof_empty_resumes_immediately():
    sim = Simulator()
    got = []

    def gen():
        results = yield AllOf(sim, [])
        got.append(results)

    Process(sim, gen())
    sim.run()
    assert got == [[]]


def test_anyof_resumes_on_first():
    sim = Simulator()
    got = []

    def gen():
        idx, val = yield AnyOf(sim, [Timeout(5.0, "slow"), Timeout(1.0, "fast")])
        got.append((sim.now, idx, val))

    Process(sim, gen())
    sim.run()
    assert got == [(1.0, 1, "fast")]


def test_anyof_requires_nonempty():
    sim = Simulator()
    with pytest.raises(ValueError):
        AnyOf(sim, [])


def test_kill_terminates_process():
    sim = Simulator()
    seen = []

    def gen():
        yield Timeout(10.0)
        seen.append("should not happen")

    p = Process(sim, gen())
    sim.schedule(1.0, p.kill)
    sim.run()
    assert seen == []
    assert p.result is None  # killed processes do not raise from .result


def test_kill_after_completion_is_noop():
    sim = Simulator()

    def gen():
        yield Timeout(1.0)
        return "ok"

    p = Process(sim, gen())
    sim.run()
    p.kill()
    assert p.result == "ok"


def test_killed_cleanup_runs_finally():
    sim = Simulator()
    cleaned = []

    def gen():
        try:
            yield Timeout(10.0)
        finally:
            cleaned.append(True)

    p = Process(sim, gen())
    sim.schedule(1.0, p.kill)
    sim.run()
    assert cleaned == [True]


def test_yielding_non_waitable_raises():
    sim = Simulator()

    def gen():
        yield 42

    Process(sim, gen())
    with pytest.raises(TypeError):
        sim.run()


def test_immediate_return_process():
    sim = Simulator()

    def gen():
        return "instant"
        yield  # pragma: no cover

    p = Process(sim, gen())
    sim.run()
    assert p.result == "instant"

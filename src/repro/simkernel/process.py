"""Generator-based simulation processes.

A process is a Python generator driven by the simulator. The generator
yields *waitables*:

* ``Timeout(dt)`` — resume after ``dt`` simulated seconds.
* ``SimEvent()`` — resume when someone calls :meth:`SimEvent.succeed`
  (or raise if :meth:`SimEvent.fail` is called).
* another ``Process`` — resume when that process finishes; the yielded
  value is the process's return value.
* ``AllOf([...])`` / ``AnyOf([...])`` — composite waits.

The value passed to ``succeed(value)`` is delivered as the result of the
``yield`` expression, which lets request/response protocols (the Flux
RPC layer) be written in direct style.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.simkernel.engine import Simulator


class ProcessKilled(Exception):
    """Injected into a generator when its process is killed."""


class Waitable:
    """Base class for things a process may ``yield``."""

    def _subscribe(self, sim: Simulator, process: "Process") -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Suspend the yielding process for ``delay`` simulated seconds."""

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = float(delay)
        self.value = value

    def _subscribe(self, sim: Simulator, process: "Process") -> None:
        process._pending_event = sim.schedule(
            self.delay, process._resume, self.value
        )


class SimEvent(Waitable):
    """A one-shot event that processes can wait on.

    May be succeeded or failed exactly once; waiting on an already
    triggered event resumes the waiter immediately (at the current
    simulated time).
    """

    _PENDING = object()

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._value: Any = SimEvent._PENDING
        self._error: Optional[BaseException] = None
        self._done = False
        self._waiters: List[Process] = []

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError("event not yet triggered")
        if self._error is not None:
            raise self._error
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        if self._done:
            raise RuntimeError("event already triggered")
        self._done = True
        self._value = value
        for proc in self._waiters:
            self._sim.schedule(0.0, proc._resume, value)
        self._waiters.clear()
        return self

    def fail(self, error: BaseException) -> "SimEvent":
        if self._done:
            raise RuntimeError("event already triggered")
        self._done = True
        self._error = error
        for proc in self._waiters:
            self._sim.schedule(0.0, proc._throw, error)
        self._waiters.clear()
        return self

    def _subscribe(self, sim: Simulator, process: "Process") -> None:
        if self._done:
            if self._error is not None:
                process._pending_event = sim.schedule(
                    0.0, process._throw, self._error
                )
            else:
                process._pending_event = sim.schedule(
                    0.0, process._resume, self._value
                )
        else:
            self._waiters.append(process)


class _CompositeLeg:
    """One branch of a composite wait (:class:`AllOf` / :class:`AnyOf`).

    Duck-types the slice of the :class:`Process` interface the waitable
    protocol touches (``_resume`` / ``_throw`` / ``_pending_event``)
    without a generator frame, a done-event or a StopIteration cycle
    per branch — a whole-machine query fans out hundreds of branches.
    The schedule/subscribe call sequence is exactly the one the old
    generator-based waiter produced (a 0-delay kick at construction,
    then one subscription to the item), so same-time event ordering —
    and therefore seeded runs — is bit-for-bit unchanged.
    """

    __slots__ = ("_composite", "_idx", "_item", "_pending_event")

    def __init__(self, sim: Simulator, composite, idx: int, item: Waitable) -> None:
        self._composite = composite
        self._idx = idx
        self._item = item
        self._pending_event = sim.schedule(0.0, self._kick, None)

    def _kick(self, _value: Any) -> None:
        self._pending_event = None
        self._item._subscribe(self._composite._sim, self)

    def _resume(self, value: Any) -> None:
        self._pending_event = None
        self._composite._leg_done(self._idx, value)

    def _throw(self, error: BaseException) -> None:
        self._pending_event = None
        self._composite._leg_failed(error)


def _disarmed() -> None:
    """What a decided composite's losing leg runs when its event fires."""


class _Composite(Waitable):
    """Shared state of :class:`AllOf` / :class:`AnyOf`: the waiter, the
    items and one :class:`_CompositeLeg` per item. The waiter is
    ``None`` before the wait starts and once it is decided."""

    def __init__(self, sim: Simulator, waitables: Iterable[Waitable]) -> None:
        self._sim = sim
        self._items = list(waitables)
        self._process: Optional["Process"] = None
        self._legs: List[_CompositeLeg] = []

    def _start(self, sim: Simulator, process: "Process") -> None:
        self._process = process
        self._legs = [
            _CompositeLeg(sim, self, i, item) for i, item in enumerate(self._items)
        ]

    def _let_go(self) -> "Process":
        """The wait is decided: disarm every leg still waiting, drop the
        waiter and the items; returns the waiter.

        A losing leg's pending event is its item's own (a ``Timeout``
        leg's timer): every leg's 0-delay kick runs before any leg can
        decide. The event stays on the heap and still fires, so event
        counts and same-time order are unchanged, but it no longer
        reaches the leg, the composite, the waiter or a response it was
        handed — a decided wait holds no query state until a retry
        timer expires.
        """
        for leg in self._legs:
            ev = leg._pending_event
            if ev is not None:
                ev.callback = _disarmed
                ev.args = ()
                leg._pending_event = None
        process = self._process
        self._legs = []
        self._process = None
        self._items = []
        return process


class AllOf(_Composite):
    """Wait for every waitable in a collection; yields a list of results."""

    def __init__(self, sim: Simulator, waitables: Iterable[Waitable]) -> None:
        super().__init__(sim, waitables)
        self._results: List[Any] = []
        self._remaining = 0

    def _subscribe(self, sim: Simulator, process: "Process") -> None:
        if not self._items:
            process._pending_event = sim.schedule(0.0, process._resume, [])
            return
        self._results = [None] * len(self._items)
        self._remaining = len(self._items)
        self._start(sim, process)

    def _leg_done(self, idx: int, value: Any) -> None:
        if self._process is None:  # an earlier leg failed
            return
        self._results[idx] = value
        self._remaining -= 1
        if self._remaining == 0:
            self._legs = []  # each leg refers back to this composite
            self._process._resume(self._results)

    def _leg_failed(self, error: BaseException) -> None:
        # First failure wins: propagate into the waiting process
        # (like asyncio.gather without return_exceptions), and let go
        # of the other legs and the results gathered so far.
        if self._process is not None:
            self._results = []
            self._let_go()._throw(error)


class AnyOf(_Composite):
    """Wait for the first waitable to complete; yields ``(index, result)``."""

    def __init__(self, sim: Simulator, waitables: Iterable[Waitable]) -> None:
        super().__init__(sim, waitables)
        if not self._items:
            raise ValueError("AnyOf requires at least one waitable")

    def _subscribe(self, sim: Simulator, process: "Process") -> None:
        self._start(sim, process)

    def _leg_done(self, idx: int, value: Any) -> None:
        if self._process is not None:
            self._let_go()._resume((idx, value))

    def _leg_failed(self, error: BaseException) -> None:
        # A failure also "wins" the race: first outcome decides.
        if self._process is not None:
            self._let_go()._throw(error)


class Process(Waitable):
    """A running generator on the simulator.

    Constructing a Process immediately schedules its first resumption at
    the current simulated time (priority 0), so creation order is
    execution order among same-time starts.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator,
        name: str = "process",
    ) -> None:
        self._sim = sim
        self._gen = generator
        self.name = name
        self._alive = True
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._done_event = SimEvent(sim)
        self._pending_event = None
        #: Called synchronously with this process when it finishes; an
        #: owner sets it to forget the process without waiting on it.
        self._on_finish: Optional[Callable[["Process"], None]] = None
        sim.schedule(0.0, self._resume, None)

    # -- public API ----------------------------------------------------
    @property
    def result(self) -> Any:
        """Return value of the generator; raises if it errored or is alive."""
        if self._alive:
            raise RuntimeError(f"process {self.name!r} still running")
        if self._error is not None:
            raise self._error
        return self._result

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it."""
        if not self._alive:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self._throw(ProcessKilled(f"process {self.name!r} killed"))

    # -- waitable protocol ----------------------------------------------
    def _subscribe(self, sim: Simulator, process: "Process") -> None:
        self._done_event._subscribe(sim, process)

    # -- driver ----------------------------------------------------------
    def _resume(self, value: Any) -> None:
        if not self._alive:
            return
        self._pending_event = None
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except ProcessKilled as exc:
            self._finish(None, exc, killed=True)
            return
        except BaseException as exc:  # propagate into done-event waiters
            self._finish(None, exc)
            return
        self._wait_on(target)

    def _throw(self, error: BaseException) -> None:
        if not self._alive:
            return
        self._pending_event = None
        try:
            target = self._gen.throw(error)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except ProcessKilled as exc:
            self._finish(None, exc, killed=True)
            return
        except BaseException as exc:
            self._finish(None, exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Waitable):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected a Waitable"
            )
        target._subscribe(self._sim, self)

    def _finish(
        self, result: Any, error: Optional[BaseException], killed: bool = False
    ) -> None:
        self._alive = False
        self._result = result
        self._error = None if killed else error
        self._gen.close()
        if self._error is not None:
            self._done_event.fail(self._error)
        else:
            self._done_event.succeed(result)
        if self._on_finish is not None:
            self._on_finish(self)

"""Discrete-event simulation kernel.

This module is the execution substrate for the whole reproduction.  The
paper evaluates MUSIC on a three-site hardware testbed with NetEm-emulated
WAN latencies; we reproduce those experiments on a deterministic
discrete-event simulator so that protocol costs (quorum round trips,
consensus round trips, leader queueing) are modelled explicitly and every
run is reproducible from a seed.

Time is modelled in **milliseconds** (floats), matching the latency
numbers reported in the paper (e.g. an Ohio to N. California RTT is the
value ``53.79``).

The programming model is generator-based processes, similar in spirit to
SimPy but purpose-built and dependency-free:

- A *process* is a Python generator driven by the :class:`Simulator`.
- A process yields :class:`Event` objects and is resumed when the event
  triggers, receiving the event's value; a failed event raises inside
  the generator instead.  Yielding a plain number is a *bare delay*: the
  process sleeps that long and resumes with ``None`` (cheaper than
  ``sim.timeout(delay)``, which makes an event others could wait on).
- Processes are themselves events that trigger on completion, so
  processes can wait for each other.

Example::

    sim = Simulator()

    def pinger():
        yield sim.timeout(5.0)
        return "pong"

    def main():
        result = yield sim.process(pinger())
        assert result == "pong"

    sim.process(main())
    sim.run()

Simulation kernel (DESIGN.md §4)
---------------------------------

The scheduler keeps two structures:

- ``_ready`` — a plain FIFO deque of ``(fn, arg)`` pairs for *same-time*
  work: process bootstraps, interrupts, and the wakeups a running
  process raises.  They bypass the heap entirely.
- ``_heap`` — a binary heap of plain ``(time, seq, fn, arg)`` tuples for
  work at a *future* time (sleeps, timeouts, message arrivals, timers).
  ``seq`` is the per-simulator ``heap_pushes`` counter, which breaks
  same-time ties FIFO; it is unique, so ``heapq`` orders entries by
  ``(time, seq)`` in C and never compares ``fn`` or ``arg``.

Two scheduling hooks fill them — :meth:`Simulator.schedule` (relative)
and :meth:`Simulator.schedule_at` (absolute, exact) — and one loop
empties them — :meth:`Simulator._drain`, which ``run`` and
``run_until_complete`` wrap.  Every scheduled action is an ``(fn, arg)``
pair and every dispatch is ``fn(arg)``, so the hot paths — process
wake, timeout firing, message delivery — allocate no lambdas.  An
installed :class:`repro.obs.prof.SimProfiler` is handed each popped pair
by the same loop; it does not run a loop of its own.

Only work that advances simulated time, or that a running process
raised, is an entry of its own.  Two rules keep same-instant hand-offs
out of the queues:

- **Who wakes in place** (the :class:`Clock` contract).  An event the
  loop itself triggers, with no process executing, calls its callbacks
  on the spot, so the waiting process runs inside that dispatch; one a
  running process triggers queues them on ``_ready`` for this instant.
- **What a bare delay is.**  ``yield 2.5`` is one
  ``schedule(2.5, process._wake, token)`` and nothing else — no
  ``Timeout``, no callback list, no second hop to resume.  An interrupt
  bumps the process's token, so the wake of a sleep it left early is
  ignored when it arrives.

Determinism contract: every entry in ``_ready`` was scheduled at the
current ``now`` and therefore *after* (in program order) every heap
entry whose time equals ``now`` — heap entries landing at ``now`` were
pushed at an earlier instant with a positive delay.  The loop therefore
drains same-time heap entries before the ready queue, and the ready
queue before any future heap entry, which reproduces exactly the global
``(time, seq)`` order of a single heap holding every action
(``tests/sim/test_dispatch_order.py`` checks it against that model).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

_heappush = heapq.heappush

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "AllOf",
    "AnyOf",
    "Clock",
    "Simulator",
    "call_action",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupt ``cause`` is carried as the first exception argument.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


def call_action(action: Callable[[], None]) -> None:
    """Scheduled thunk behind ``call_at``: run a no-argument callable."""
    action()


def _fire_event(event: "Event") -> None:
    """Scheduled-trigger thunk: succeed ``event`` with its staged value.

    The value is pre-staged on ``event._value`` at schedule time (the
    slot is unread while the event is pending), so firing a timeout
    allocates nothing.
    """
    if not event._triggered:
        event._trigger(True, event._value)


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, and is later either *succeeded* with a
    value or *failed* with an exception.  Processes that yield a pending
    event are suspended until it triggers; yielding an already-triggered
    event resumes the process on the next scheduler step.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_ok", "_value", "_abandon", "name")

    def __init__(self, sim: "Clock", name: str = "") -> None:
        self.sim = sim
        self.name = name
        # Lazily materialized: most events get exactly zero or one
        # callback, so the list is only allocated on first use.
        self._callbacks: Optional[list] = None
        self._triggered = False
        self._ok = False
        self._value: Any = None
        # Optional hook called with this event when a waiting process is
        # interrupted away from it (see Process._deliver_interrupt).
        # Primitives use it to cancel queued waiter state — a Resource
        # un-queues (or re-releases) the grant, a Condition/Mailbox
        # forgets the waiter — so interrupts never leak capacity.
        self._abandon: Optional[Callable[["Event"], None]] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self._triggered and self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self!r} has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        self._trigger(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raising it in waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(False, exception)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when this event triggers.

        If the event has already triggered, the callback runs on the next
        scheduler step (never synchronously), preserving run-to-completion
        semantics for the caller.
        """
        if self._triggered:
            if not self._ok and self in self.sim._unhandled:
                self.sim._unhandled.remove(self)
            self.sim.schedule(0.0, callback, self)
        else:
            callbacks = self._callbacks
            if callbacks is None:
                self._callbacks = [callback]
            else:
                callbacks.append(callback)

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError(f"event {self!r} triggered twice")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks = self._callbacks
        if callbacks is None:
            if not ok:
                # A failure nobody is waiting on: record it so run() can
                # re-raise instead of letting the error pass silently.
                self.sim._unhandled.append(self)
            return
        self._callbacks = None
        sim = self.sim
        if sim.dispatching and sim.active_process is None:
            # Raised by the dispatch loop itself (a timer fire, a message
            # delivery): no process is mid-step, so the waiters run in
            # place, in registration order, inside this dispatch.
            for callback in callbacks:
                callback(self)
        else:
            # Raised by a running process (or by set-up code outside the
            # loop): deferred, so process code keeps run-to-completion
            # and no generator is ever re-entered.
            schedule = sim.schedule
            for callback in callbacks:
                schedule(0.0, callback, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._triggered:
            state = "ok" if self._ok else "failed"
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.sim.now:.3f}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Clock", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Constant name: cheap, and enough for subsystem attribution
        # ("Timeout" -> the timer bucket); the delay is in `self.delay`.
        super().__init__(sim, name="Timeout")
        self.delay = delay
        self._value = value  # staged for _fire_event; unread while pending
        sim.schedule(delay, _fire_event, self)


class Process(Event):
    """A running generator, driven by the simulator.

    The process is also an event: it triggers when the generator returns
    (with the return value) or raises (failing waiters with the error).
    """

    __slots__ = ("generator", "context", "_waiting_on", "_interrupts", "_resume_cb", "_sleep")

    def __init__(
        self, sim: "Clock", generator: Generator[Any, Any, Any], name: str = ""
    ) -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self.generator = generator
        # Ambient per-process state (e.g. the current trace span).  A
        # process spawned while another is executing inherits a snapshot
        # of the spawner's context, mirroring how a thread-local would
        # flow across a thread pool.
        parent = sim.active_process
        self.context: dict = dict(parent.context) if parent is not None and parent.context else {}
        self._waiting_on: Optional[Event] = None
        self._interrupts: Optional[list] = None
        # One bound method for the life of the process instead of a fresh
        # one per yield (processes re-register after every wait).
        self._resume_cb = self._resume
        # Token of the current bare-delay sleep: every interrupt bumps
        # it, so the wake of a sleep the process left early is stale.
        self._sleep = 0

    def start(self) -> None:
        """Take the generator's first step, now.

        ``sim.process(...)`` schedules this for the next scheduler step;
        a caller that is itself a dispatched action (message delivery)
        may call it directly to run the first step in place.
        """
        if not self._triggered:
            self._advance(False, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is a silent no-op, mirroring the
        common "cancel if still running" usage.
        """
        if self._triggered:
            return
        if self._interrupts is None:
            self._interrupts = [cause]
        else:
            self._interrupts.append(cause)
        self.sim.schedule(0.0, Process._deliver_interrupt, self)

    def _deliver_interrupt(self) -> None:
        if self._triggered or not self._interrupts:
            return
        cause = self._interrupts.pop(0)
        # Detach from whatever we were waiting on; when the original event
        # later triggers, _resume will see that it is no longer current.
        # If that event owns cancellable waiter state (a queued Resource
        # grant, a Condition/Mailbox slot), tell it the waiter is gone so
        # nothing is granted to — or retained for — a process that will
        # never consume it.
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is not None and waiting._abandon is not None:
            waiting._abandon(waiting)
        self._sleep += 1  # a bare-delay sleep we were in will wake stale
        self._advance(True, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._triggered or event is not self._waiting_on:
            # Finished, or a stale wakeup: an interrupt detached us from
            # this event (we may be waiting on another, or asleep).
            return
        self._waiting_on = None
        if not event._triggered or event._ok:
            self._advance(False, event._value)
        else:
            self._advance(True, event._value)

    def _wake(self, token: int) -> None:
        # End of a bare-delay sleep, unless an interrupt ended it first.
        if token == self._sleep:
            self._advance(False, None)

    def _advance(self, throw: bool, payload: Any) -> None:
        # Mark this process as the one executing so anything it creates
        # (events, child processes, trace spans) can find its context.
        sim = self.sim
        previous = sim.active_process
        sim.active_process = self
        try:
            try:
                if throw:
                    target = self.generator.throw(payload)
                else:
                    target = self.generator.send(payload)
            except StopIteration as stop:
                # Finished: let go of the generator and of the bound
                # method that points back here, so a done process is a
                # tree and dies with its last waiter's reference.
                self.generator = self._resume_cb = None
                self.succeed(stop.value)
                return
            except Interrupt:
                # The process let an interrupt escape: treat as normal exit.
                # (Thrown from here, it is `payload`, and its traceback
                # holds this frame: unname it, or the two are a cycle.)
                self.generator = self._resume_cb = payload = None
                self.succeed(None)
                return
            except BaseException as exc:
                # (A failure keeps its traceback whole, and that holds
                # this frame: a process that raised is the one kind the
                # collector, not the last reference, frees.)
                self.generator = self._resume_cb = None
                self.fail(exc)
                return
            kind = type(target)
            if (
                kind is not float and kind is not Event and kind is not Timeout
                and not isinstance(target, Event)
            ):
                target = self._coerce(target)
        finally:
            sim.active_process = previous
        if type(target) is float:
            # A bare delay is a sleep nobody else can wait on: one
            # scheduled wake, no Timeout object and no callback list.
            if target < 0:
                raise SimulationError(f"negative timeout delay {target!r}")
            sim.schedule(target, self._wake, self._sleep)
        else:
            self._waiting_on = target
            target.add_callback(self._resume_cb)

    def _coerce(self, target: Any) -> Any:
        if isinstance(target, (int, float)):
            return float(target)
        if hasattr(target, "send"):
            return self.sim.process(target)
        raise SimulationError(
            f"process {self.name!r} yielded {target!r}; expected an Event, "
            "a delay (number), or a generator"
        )


class AllOf(Event):
    """Triggers when all child events have triggered successfully.

    The value is the list of child values, in the order given.  Fails
    with the first child failure; a *later* child failure arriving after
    this event already triggered is defused (counted in
    ``sim.swallowed_failures``) instead of vanishing silently.
    """

    __slots__ = ("_pending", "_results")

    def __init__(self, sim: "Clock", events: Iterable[Event]) -> None:
        super().__init__(sim, name="AllOf")
        children = list(events)
        self._results: list[Any] = [None] * len(children)
        self._pending = len(children)
        if not children:
            self._value = []  # staged for _fire_event
            sim.schedule(0.0, _fire_event, self)
            return
        for index, child in enumerate(children):
            child.add_callback(self._make_collector(index))

    def _make_collector(self, index: int) -> Callable[[Event], None]:
        def collect(event: Event) -> None:
            if self._triggered:
                if not event._ok:
                    self.sim.defuse(event)
                return
            if not event._ok:
                self.fail(event._value)
                return
            self._results[index] = event._value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(self._results)

        return collect


class AnyOf(Event):
    """Triggers when the first child event triggers (success or failure).

    The value is a ``(index, value)`` pair for the winning child; a child
    failure fails this event with the child's exception.  A *losing*
    child that fails after the winner already triggered is defused — its
    exception is recorded in ``sim.swallowed_failures`` rather than
    silently dropped (a quorum straggler raising after quorum success
    must not crash the run, but must not vanish without trace either).
    """

    __slots__ = ()

    def __init__(self, sim: "Clock", events: Iterable[Event]) -> None:
        super().__init__(sim, name="AnyOf")
        children = list(events)
        if not children:
            raise SimulationError("AnyOf needs at least one event")
        for index, child in enumerate(children):
            child.add_callback(self._make_collector(index))

    def _make_collector(self, index: int) -> Callable[[Event], None]:
        def collect(event: Event) -> None:
            if self._triggered:
                if not event._ok:
                    self.sim.defuse(event)
                return
            if event._ok:
                self.succeed((index, event._value))
            else:
                self.fail(event._value)

        return collect


class Clock:
    """The scheduler seam every protocol class runs against, as ``sim``.

    A clock owns time (``now``, in milliseconds since its epoch), makes
    the waitables of this module (``event`` / ``timeout`` / ``all_of`` /
    ``any_of``) and drives generator processes (``process``).  Two
    subclasses supply ``now`` (an attribute or a property of their own)
    and the two kernel hooks: :class:`Simulator` (virtual time, a heap,
    deterministic) and :class:`repro.live.LiveClock` (wall time on an
    asyncio loop).  Everything here runs unchanged on either, which is
    why protocol code has no ``if live:``.

    The scheduling contract both hooks keep:

    - ``schedule(delay, fn, arg)`` runs ``fn(arg)`` after ``delay`` ms
      with no closure.  A non-positive delay means this instant, FIFO
      behind what is already queued for it, and never synchronously
      inside the call; positive delays run in (time, insertion) order.
    - ``schedule_at(when, fn, arg)`` is the same at an absolute clock
      time, met exactly: a deadline computed earlier is hit, where
      ``when - now`` through ``schedule`` could land one ulp off.  A
      time at or before ``now`` is clamped to this instant.
    - **Who wakes in place.**  ``dispatching`` is True while the clock
      runs a scheduled action.  An event triggered then with no process
      executing (``active_process`` is None: a timer fire, a message
      delivery) runs its waiters on the spot, inside that action; one
      triggered by a running process, or by code outside the clock,
      queues them for this instant, so no generator is re-entered.
    """

    # Self-profiler slot (see repro.obs.prof.SimProfiler).  A class
    # attribute, not instance state: unprofiled clocks carry no extra
    # per-instance data.  SimProfiler.install() sets the instance
    # attribute; the DES dispatch loop reads it once per run and hands
    # each popped action to it.
    profiler: Optional[Any] = None

    def __init__(self) -> None:
        # The process currently being stepped, if any (used to inherit
        # per-process context into spawned children and trace spans).
        self.active_process: Optional[Process] = None
        # True while the clock runs a scheduled action: a wakeup raised
        # there by no process runs in place (Event._trigger).
        self.dispatching = False
        # Failures nobody waited on, for the clock's owner to surface.
        self._unhandled: list[Event] = []
        # Child failures that lost an AllOf/AnyOf race after the
        # combinator already triggered: defused, not silently dropped.
        self.swallowed_failures = 0

    # -- construction helpers -------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        process = Process(self, generator, name=name)
        # Kick the generator off on the next scheduler step.
        self.schedule(0.0, Process.start, process)
        return process

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        raise NotImplementedError

    def schedule_at(self, when: float, fn: Callable[[Any], None], arg: Any) -> None:
        raise NotImplementedError

    def call_at(self, when: float, action: Callable[[], None]) -> None:
        """Run a plain callable at absolute clock time ``when``."""
        self.schedule_at(when, call_action, action)

    def defuse(self, event: Event) -> None:
        """Account a child failure that lost an AllOf/AnyOf race."""
        self.swallowed_failures += 1


class Simulator(Clock):
    """The event loop: a FIFO ready queue plus a priority heap.

    Same-time continuations live in ``_ready`` (FIFO), future work in
    ``_heap`` ordered by ``(time, seq)``; see the module docstring for
    the determinism argument.
    """

    def __init__(self) -> None:
        super().__init__()
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._ready: deque = deque()
        # Heap pushes ever — also the FIFO tie-break sequence for
        # same-time heap entries.
        self.heap_pushes = 0

    def schedule(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay`` ms — the one scheduling hook.

        A non-positive delay is clamped to "now": the action joins the
        same-time FIFO queue, behind everything already queued for this
        instant, and never runs synchronously.
        """
        if delay <= 0.0:
            self._ready.append((fn, arg))
        else:
            seq = self.heap_pushes
            self.heap_pushes = seq + 1
            _heappush(self._heap, (self.now + delay, seq, fn, arg))

    def schedule_at(self, when: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at absolute simulated time ``when``, exactly.

        :meth:`schedule` with ``when - now`` would re-add ``now`` and can
        land one ulp off a deadline computed earlier; this pushes the
        float it is given.  Times at or before ``now`` are clamped to
        "now", as in :meth:`schedule`.
        """
        if when <= self.now:
            self._ready.append((fn, arg))
        else:
            seq = self.heap_pushes
            self.heap_pushes = seq + 1
            heapq.heappush(self._heap, (when, seq, fn, arg))

    # -- execution ---------------------------------------------------------

    def _drain(self, until: float, waiting: Event) -> None:
        """The dispatch loop: run actions in global ``(time, seq)`` order.

        Same-time heap entries (scheduled at an earlier instant, landing
        now) run before the ready queue; the ready queue runs before any
        future heap entry.  Stops when ``waiting`` has triggered, when
        both queues are empty, or before the first heap entry later than
        ``until``; the caller tells those apart.
        """
        if self.dispatching:
            raise SimulationError("simulator is already running (re-entrant run())")
        self.dispatching = True
        ready = self._ready
        heap = self._heap
        heappop = heapq.heappop
        popleft = ready.popleft
        profiler = self.profiler
        observe = None if profiler is None else profiler.dispatch
        try:
            while not waiting._triggered:
                if ready and not (heap and heap[0][0] <= self.now):
                    fn, arg = popleft()
                elif heap and heap[0][0] <= until:
                    self.now, _seq, fn, arg = heappop(heap)
                else:
                    break
                if observe is None:
                    fn(arg)
                else:
                    # Queue depth as it stood before this pop.
                    observe(fn, arg, len(heap) + len(ready) + 1)
        finally:
            self.dispatching = False

    def run(self, until: Optional[float] = None, strict: bool = True) -> None:
        """Run until the queues drain or simulated time passes ``until``.

        When stopped by ``until``, ``now`` is set to ``until`` exactly so
        measurement windows have precise lengths.  With ``strict`` (the
        default), a process failure that no other process observed is
        re-raised here rather than passing silently.
        """
        # `run` waits on an event nobody triggers: only the queues or
        # `until` end the loop.
        if until is None:
            self._drain(float("inf"), Event(self))
        elif until >= self.now:
            self._drain(until, Event(self))
            self.now = until
        if strict and self._unhandled:
            failure = self._unhandled.pop(0)
            raise failure._value

    def run_until_complete(self, process: Process, limit: float = float("inf")) -> Any:
        """Run until ``process`` finishes; return its value or raise its error.

        ``limit`` bounds simulated time as a hang safeguard.
        """
        self._drain(limit, process)
        if not process._triggered:
            if self._heap:
                raise SimulationError(f"simulated time limit {limit} exceeded")
            raise SimulationError(
                f"deadlock: no scheduled events but {process.name!r} is not done"
            )
        if process._ok:
            return process._value
        if process in self._unhandled:
            self._unhandled.remove(process)
        raise process._value

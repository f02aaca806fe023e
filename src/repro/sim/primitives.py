"""Coordination primitives built on the simulation kernel.

These mirror the small set of concurrency tools the protocol code needs:
FIFO mailboxes for message delivery, counted resources for CPU cores and
NIC serialization, and condition variables for state-change waits.

A resource has one way to hold a unit: :meth:`Resource.hold`, a
continuation with one queueing rule (FIFO) and one abandon rule.
:meth:`Resource.use` is its generator face, not a second implementation.
A queued hold waits as itself, with no grant event: a release hands the
unit to the oldest one and starts it by the kernel's trigger rule.

Each primitive registers an *abandon hook* (``Event._abandon``) on the
event a waiter blocks on: a mailbox get, a condition wait, the event a
hold's owner waits on.  When a waiting process is interrupted away from
it, the kernel calls the hook and the primitive cancels the waiter's
state: a hold leaves the queue or gives its unit back (else capacity
would shrink for good), a ``Condition`` forgets the waiter, and a
``Mailbox`` puts back an item it had already handed over.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Mailbox", "Resource", "Condition"]


class Mailbox:
    """An unbounded FIFO queue of items with event-based ``get``.

    ``put`` is immediate (never blocks); ``get`` returns an event that
    triggers with the oldest item, waking waiters in FIFO order.  A
    mailbox satisfies the transports' inbox contract (anything with
    ``put``), for code that wants to pull messages; :class:`repro.net.
    Node` registers a sink that dispatches on ``put`` instead.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        # The event reuses the mailbox's own name: no per-get f-string,
        # and the profiler's subsystem attribution sees e.g. "inbox:...".
        event = Event(self.sim, name=self.name)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        event._abandon = self._abandon_get
        return event

    def _abandon_get(self, event: Event) -> None:
        # The waiting process was interrupted away from this get.
        if event._triggered:
            if event._ok:
                # An item was already dequeued into the event; put it
                # back at the head so delivery order is preserved.
                self._items.appendleft(event._value)
        else:
            try:
                self._getters.remove(event)
            except ValueError:
                pass

    def get_nowait(self) -> Any:
        if not self._items:
            raise SimulationError(f"mailbox {self.name!r} is empty")
        return self._items.popleft()


class Resource:
    """A counted resource with FIFO granting (e.g. CPU cores, a NIC).

    There is one way to hold a unit, :meth:`hold`: a continuation that
    queues FIFO for a free unit, keeps it ``hold_time`` and gives it
    back, then runs ``then(arg)``.  :meth:`use` is its generator face::

        yield from resource.use(service_time)
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[_Hold] = deque()
        # Statistics for utilisation reporting.
        self.total_busy_time = 0.0
        self._busy_since: Optional[float] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def release(self) -> None:
        """Give one unit back: to the oldest queued hold, else to the pool."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # The unit passes straight on, and the oldest hold starts by
            # the kernel's trigger rule: in place when the dispatch loop
            # released it, else as one ready-queue entry for this instant.
            held = self._waiters.popleft()
            sim = self.sim
            if sim.dispatching and sim.active_process is None:
                held.state = _RUNNING
                sim.schedule(held.hold_time, _end_hold, held)
            else:
                held.state = _GRANTED
                sim.schedule(0.0, _start_hold, held)
            return
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.total_busy_time += self.sim.now - self._busy_since
            self._busy_since = None

    def use(self, hold_time: float) -> Generator[Any, Any, None]:
        """:meth:`hold` for ``yield from``: the calling process resumes
        from the hold's end, after the release, and an interrupt abandons
        the hold."""
        process = self.sim.active_process
        held = Event(self.sim, name=self.name)
        self.hold(hold_time, process._resume_cb, held, process, held)
        yield held

    def hold(
        self,
        hold_time: float,
        then: Callable[[Any], None],
        arg: Any,
        owner: Any = None,
        waiter: Optional[Event] = None,
    ) -> None:
        """Queue for a unit, hold it ``hold_time`` (one heap entry), then
        release it and run ``then(arg)`` with ``owner`` as
        ``sim.active_process``.  Interrupted away from ``waiter``, the
        owner abandons the hold: it leaves the queue or gives its unit
        back at once, and ``then`` never runs."""
        if hold_time < 0:
            raise SimulationError(f"negative timeout delay {hold_time!r}")
        held = _Hold(self, hold_time, then, arg, owner)
        if waiter is not None:
            waiter._abandon = held.abandon
        in_use = self._in_use
        if in_use < self.capacity:
            if in_use == 0:
                self._busy_since = self.sim.now
            self._in_use = in_use + 1
            self.sim.schedule(hold_time, _end_hold, held)
        else:
            held.state = _QUEUED
            self._waiters.append(held)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the resource was non-idle."""
        busy = self.total_busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy / elapsed if elapsed > 0 else 0.0


# What a live hold is doing (``_Hold.state``): waiting in its resource's
# queue, granted a unit with its start still queued, or holding the unit.
_QUEUED, _GRANTED, _RUNNING = 0, 1, 2


class _Hold:
    """One :meth:`Resource.hold`: queued, granted, running (``state``),
    or ended or abandoned (``then`` cleared, with what it referenced)."""

    __slots__ = ("resource", "hold_time", "then", "arg", "owner", "state", "name")

    def __init__(
        self, resource: Resource, hold_time: float, then: Any, arg: Any, owner: Any
    ) -> None:
        self.resource = resource
        self.hold_time = hold_time
        self.then = then
        self.arg = arg
        self.owner = owner
        self.state = _RUNNING
        self.name = resource.name if owner is None else owner.name  # for the profiler

    def abandon(self, _event: Any = None) -> None:
        """Cancel the hold (a no-op once it has ended)."""
        if self.then is None:
            return
        resource, owner, state = self.resource, self.owner, self.state
        self.then = self.arg = self.owner = None
        if state == _RUNNING:  # released as the owner
            sim = resource.sim
            previous = sim.active_process
            sim.active_process = owner
            try:
                resource.release()
            finally:
                sim.active_process = previous
        elif state == _GRANTED:
            resource.release()  # its start, still queued, will find it gone
        else:
            resource._waiters.remove(self)


def _start_hold(held: _Hold) -> None:
    """A granted hold's queued start: hold the unit, unless abandoned."""
    if held.then is not None:
        held.state = _RUNNING
        held.resource.sim.schedule(held.hold_time, _end_hold, held)


def _end_hold(held: _Hold) -> None:
    """Scheduled end of a :meth:`Resource.hold`: release, then continue."""
    then = held.then
    if then is None:
        return  # abandoned: its unit went back at the interrupt
    arg, owner = held.arg, held.owner
    held.then = held.arg = held.owner = None
    resource = held.resource
    sim = resource.sim
    previous = sim.active_process
    sim.active_process = owner
    try:
        if resource._waiters:
            resource.release()
        else:  # what release does with no hold queued, inline
            in_use = resource._in_use = resource._in_use - 1
            if in_use == 0 and resource._busy_since is not None:
                resource.total_busy_time += sim.now - resource._busy_since
                resource._busy_since = None
        then(arg)
    finally:
        sim.active_process = previous


class Condition:
    """A broadcast condition: waiters block until the next ``notify_all``."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        event = Event(self.sim, name=self.name)
        self._waiters.append(event)
        event._abandon = self._abandon_wait
        return event

    def _abandon_wait(self, event: Event) -> None:
        # An interrupted waiter will never consume its notification;
        # drop it so the waiter list cannot grow without bound.
        if not event._triggered:
            try:
                self._waiters.remove(event)
            except ValueError:
                pass

    def notify_all(self, value: Any = None) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.succeed(value)

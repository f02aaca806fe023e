"""A wall-clock :class:`repro.runtime.Clock` over asyncio.

This is the live counterpart of :class:`repro.sim.Simulator`.  It
implements the identical scheduler surface the DES kernel exposes —
``now``/``event``/``timeout``/``process``/``all_of``/``any_of``/``call_at``
plus the three kernel hooks ``schedule``/``schedule_at``/``defuse`` —
but backs it with an asyncio event loop instead of a heap of virtual
timestamps.  The existing :class:`~repro.sim.core.Event`,
:class:`~repro.sim.core.Process`, :class:`~repro.sim.primitives.Mailbox`
and friends run on it **unmodified**: a protocol generator that yields
``sim.timeout(5.0)`` sleeps five virtual milliseconds under the DES and
five real milliseconds here, with no code able to tell the difference.

Time is milliseconds since a configurable *epoch* (unix seconds).  Every
process of a live cluster is handed the same epoch through the cluster
config, so timestamps — ballot numbers, v2s stamps, audit ``t_ms`` —
are mutually comparable across processes, which is what lets the ECF
auditor replay a merged multi-process event stream.

Determinism contract (DESIGN.md §11): none.  The DES stays the oracle;
the live clock trades reproducible timings for real concurrency.  What
survives the trade is *safety*: the auditor checks the same invariants
on the nondeterministic schedule.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from ..errors import RpcTimeout
from ..sim.core import AllOf, AnyOf, Event, Process, Timeout, call_action

__all__ = ["LiveClock"]


class LiveClock:
    """Drives DES events and processes on an asyncio loop in wall time."""

    profiler: Optional[Any] = None

    def __init__(self, epoch: Optional[float] = None) -> None:
        try:
            self.loop = asyncio.get_running_loop()
        except RuntimeError:
            # Constructed outside async context (tests, REPL): own a
            # fresh loop that the harness will run.
            self.loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self.loop)
        # Unix-seconds anchor shared by every process of a cluster.
        self.epoch = time.time() if epoch is None else float(epoch)
        self.active_process: Optional[Process] = None
        # True inside a scheduled action: a wakeup raised there by no
        # process runs its waiters in place, as under the DES loop.
        self.dispatching = False
        self._unhandled: List[Event] = []
        # Pending loop handles by schedule order, for close() to cancel.
        self._handles: Dict[int, asyncio.Handle] = {}
        self._scheduled = 0
        self._closed = False
        # Failures that escaped a scheduled action (a handler bug, a
        # codec error): recorded loudly instead of unwinding the loop.
        self.errors: List[str] = []
        # How many failures drained so far were bugs — everything but an
        # RPC timeout nobody was left waiting on (peers leaving during a
        # shutdown drain produce those).  Process exit codes read this.
        self.fatal_failures = 0
        # Child failures defused by AllOf/AnyOf after the combinator
        # already triggered (same counter the DES kernel keeps).
        self.swallowed_failures = 0

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Wall milliseconds since the cluster epoch."""
        return (time.time() - self.epoch) * 1000.0

    # -- construction helpers (identical shape to Simulator) ---------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        process = Process(self, generator, name=name)
        self.schedule(0.0, Process.start, process)
        return process

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay`` ms on the loop (the kernel hook)."""
        if self._closed:
            return
        # The loop's handle is kept (for close()) under a token the
        # firing pops: once fired, nothing names the handle, so it and
        # the (fn, arg) it carries are freed there and then.
        token = self._scheduled = self._scheduled + 1
        if delay <= 0.0:
            # Soon, in FIFO order — the live analogue of a same-time
            # heap entry.
            handle = self.loop.call_soon(self._fire, token, fn, arg)
        else:
            handle = self.loop.call_later(delay / 1000.0, self._fire, token, fn, arg)
        self._handles[token] = handle

    def _fire(self, token: int, fn: Callable[[Any], None], arg: Any) -> None:
        self._handles.pop(token, None)
        if self._closed:
            return
        self.dispatching = True
        try:
            fn(arg)
        except BaseException:  # noqa: BLE001 - isolate handler bugs
            self.errors.append(traceback.format_exc())
        finally:
            self.dispatching = False

    def schedule_at(self, when: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at absolute clock time ``when`` (ms)."""
        self.schedule(when - self.now, fn, arg)

    def call_at(self, when: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute clock time ``when`` (ms)."""
        self.schedule_at(when, call_action, action)

    def defuse(self, event: Event) -> None:
        """Account a child failure that lost an AllOf/AnyOf race."""
        self.swallowed_failures += 1

    # -- asyncio bridge ----------------------------------------------------

    def wait(self, event: Event) -> "asyncio.Future":
        """An awaitable that resolves when ``event`` triggers.

        This is the one-way door between the two worlds: protocol code
        stays generator-shaped, and harness code (``async def main``)
        awaits its completion.  Process failures surface as exceptions
        on the future.
        """
        future = self.loop.create_future()

        def resolve(ev: Event) -> None:
            if future.cancelled():
                return
            if ev.ok:
                future.set_result(ev._value)
            elif isinstance(ev._value, BaseException):
                future.set_exception(ev._value)
            else:
                future.set_exception(RuntimeError(f"event failed: {ev._value!r}"))

        event.add_callback(resolve)
        return future

    async def run_process(self, generator: Generator[Any, Any, Any], name: str = "") -> Any:
        """Spawn ``generator`` as a process and await its result."""
        return await self.wait(self.process(generator, name=name))

    # -- failure surfacing -------------------------------------------------

    def drain_failures(self) -> List[str]:
        """Collect and clear pending unobserved failures.

        Mirrors the DES ``run(strict=True)`` re-raise: failures nobody
        waited on (and exceptions that escaped scheduled actions) are
        returned as formatted strings for the harness to log or assert
        on.
        """
        failures, self.errors = list(self.errors), []
        self.fatal_failures += len(failures)
        for event in self._unhandled:
            value = event._value
            if not isinstance(value, RpcTimeout):
                self.fatal_failures += 1
            if isinstance(value, BaseException):
                failures.append(
                    "".join(
                        traceback.format_exception(type(value), value, value.__traceback__)
                    )
                )
            else:
                failures.append(repr(value))
        self._unhandled.clear()
        return failures

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Cancel every outstanding timer; further scheduling is a no-op."""
        self._closed = True
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()

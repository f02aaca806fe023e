"""A wall-clock :class:`repro.sim.Clock` over asyncio.

This is the live sibling of :class:`repro.sim.Simulator`: both inherit
the scheduler surface — ``event``/``timeout``/``process``/``all_of``/
``any_of``/``call_at``/``defuse`` — from :class:`~repro.sim.core.Clock`,
and this class backs the two kernel hooks ``schedule``/``schedule_at``
with an asyncio event loop instead of a heap of virtual timestamps.
The existing :class:`~repro.sim.core.Event`,
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
from typing import Any, Callable, Dict, Generator, List, Optional

from ..errors import RpcTimeout
from ..sim.core import Clock, Event

__all__ = ["LiveClock"]


class LiveClock(Clock):
    """Drives DES events and processes on an asyncio loop in wall time."""

    def __init__(self, epoch: Optional[float] = None) -> None:
        super().__init__()
        try:
            self.loop = asyncio.get_running_loop()
        except RuntimeError:
            # Constructed outside async context (tests, REPL): own a
            # fresh loop that the harness will run.
            self.loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self.loop)
        # Unix-seconds anchor shared by every process of a cluster.
        self.epoch = time.time() if epoch is None else float(epoch)
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

    @property
    def now(self) -> float:
        """Wall milliseconds since the cluster epoch."""
        return (time.time() - self.epoch) * 1000.0

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

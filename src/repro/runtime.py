"""The environment contract protocol code runs against.

Every protocol class in this repository (``repro.core``,
``repro.lockstore``, ``repro.store``, ``repro.leases``) talks to its
environment through exactly two seams:

- a **Clock** — the scheduler handed around as ``sim``: it owns time
  (``now``), makes waitable :class:`~repro.sim.core.Event` objects
  (``event``/``timeout``/``all_of``/``any_of``), and drives generator
  processes (``process``).  The discrete-event
  :class:`~repro.sim.Simulator` is one implementation (virtual
  milliseconds, deterministic); :class:`repro.live.LiveClock` is the
  other (wall-clock milliseconds over an asyncio loop).
- a **Transport** — the message fabric handed around as ``network``: it
  registers node inboxes, moves :class:`~repro.net.Message` objects
  (``src, dst, kind, body``, plus an RPC's ``request_id`` and ``trace``),
  answers failure/locality queries, and carries the shared
  :class:`~repro.obs.Observability` facade.  The simulated
  :class:`~repro.net.Network` is one implementation (modelled WAN
  latencies, seeded loss); :class:`repro.live.TcpTransport` is the
  other (length-prefixed JSON frames over real asyncio TCP sockets).

These are :class:`typing.Protocol` definitions, not base classes: the
existing simulator types satisfy them structurally without inheriting
anything, which is what keeps DES-mode timings bit-identical — the
refactor adds a named contract, not a dispatch layer.  Protocol code
must depend only on what is declared here; anything else (the sim
Network's loss model, the live transport's connection pool) is
implementation detail that must not leak upward.

The contract is intentionally scheduler-shaped rather than
async/await-shaped: protocol logic is written as generators yielding
events, and the *Clock implementation* decides whether "wait 5 ms"
advances virtual time instantly (DES) or arms a real timer on the
asyncio loop (live).  That one decision is what lets the identical
classes run in both modes with no ``if live:`` branches anywhere.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

__all__ = ["Clock", "Transport", "EventLike", "require_clock", "require_transport"]


class EventLike(Protocol):
    """What a waitable returned by a :class:`Clock` must offer."""

    @property
    def triggered(self) -> bool: ...

    @property
    def ok(self) -> bool: ...

    def succeed(self, value: Any = None) -> Any: ...

    def fail(self, exception: BaseException) -> Any: ...

    def add_callback(self, callback: Callable[[Any], None]) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """The scheduler seam: time, waitables, and process execution.

    Implementations: :class:`repro.sim.Simulator` (virtual time) and
    :class:`repro.live.LiveClock` (wall time on asyncio).  ``now`` is
    always in milliseconds; what a millisecond *is* — a heap pop or a
    rotation of the planet — is the implementation's business.
    """

    # Milliseconds since the epoch of this clock (sim start / cluster
    # epoch).  Mutated only by the implementation.
    now: float

    # The process currently being stepped (context inheritance for
    # spawned children and trace spans); None between steps.
    active_process: Optional[Any]

    # True while the clock is running a scheduled action.  An event
    # triggered then, with no process executing, wakes its waiters in
    # place; triggered by a running process or by code outside the loop,
    # it queues them for this instant instead.
    dispatching: bool

    # Self-profiler slot (repro.obs.prof.SimProfiler); None when off.
    profiler: Optional[Any]

    # -- waitable construction --------------------------------------------

    def event(self, name: str = "") -> Any: ...

    def timeout(self, delay: float, value: Any = None) -> Any: ...

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Any: ...

    def all_of(self, events: Iterable[Any]) -> Any: ...

    def any_of(self, events: Iterable[Any]) -> Any: ...

    # -- scheduling --------------------------------------------------------

    def call_at(self, when: float, action: Callable[[], None]) -> None: ...

    # The three kernel hooks: Event/Timeout/Process objects, the node
    # RPC expiry timer and both transports schedule themselves through
    # these, so any Clock must provide them.  ``schedule`` runs
    # ``fn(arg)`` after ``delay`` ms without a closure; a non-positive
    # delay means "this instant, FIFO behind what is already queued,
    # never synchronously", and positive delays run in (time, insertion)
    # order.  ``schedule_at`` is the same at an absolute clock time — a
    # deadline computed earlier is met exactly, where ``when - now``
    # through ``schedule`` could land one ulp off.  ``defuse`` accounts
    # an AllOf/AnyOf child failure that lost the race after the
    # combinator triggered (``swallowed_failures``).
    def schedule(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None: ...

    def schedule_at(self, when: float, fn: Callable[[Any], None], arg: Any) -> None: ...

    def defuse(self, event: Any) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """The message-fabric seam: registration, send, and locality.

    Implementations: :class:`repro.net.Network` (modelled
    latency/loss/partitions) and :class:`repro.live.TcpTransport`
    (asyncio TCP with length-prefixed JSON framing).
    :class:`repro.net.Node` is written purely against this surface,
    which is why the identical Node subclasses run over both.

    ``send`` delivers a ``Message`` with the ``body`` given; an RPC
    passes its ``request_id`` (−1: one-way) and caller ``trace``, and
    its reply goes to the request's ``src`` under the same id.
    """

    # Shared observability facade; every Node reads this at construction.
    obs: Any

    # Site-to-site latency metadata (repro.net.LatencyProfile): clients
    # and coordinators use it to sort replicas by proximity.  In live
    # mode this is advisory (the real network provides the latency).
    profile: Any

    def register(self, node_id: str, site: str, inbox: Any) -> None: ...

    def send(
        self, src: str, dst: str, kind: str, body: Any, size_bytes: int = 64,
        request_id: int = -1, trace: Optional[Tuple[int, int]] = None,
    ) -> None: ...

    def site_of(self, node_id: str) -> str: ...

    def node_ids(self) -> List[str]: ...

    def fail_node(self, node_id: str) -> None: ...

    def recover_node(self, node_id: str) -> None: ...

    def is_failed(self, node_id: str) -> bool: ...

    def add_tap(self, tap: Callable[[Any], None]) -> None: ...


def require_clock(candidate: Any) -> Any:
    """Assert ``candidate`` satisfies :class:`Clock`; returns it.

    Used by harness entry points (and the conformance tests) to fail
    fast with a readable error instead of an AttributeError three
    layers down a protocol generator.
    """
    if not isinstance(candidate, Clock):
        missing = [
            name
            for name in (
                "now", "active_process", "dispatching", "profiler", "event",
                "timeout", "process", "all_of", "any_of", "call_at",
                "schedule", "schedule_at", "defuse",
            )
            if not hasattr(candidate, name)
        ]
        raise TypeError(
            f"{type(candidate).__name__} does not satisfy repro.runtime.Clock "
            f"(missing: {missing})"
        )
    return candidate


def require_transport(candidate: Any) -> Any:
    """Assert ``candidate`` satisfies :class:`Transport`; returns it."""
    if not isinstance(candidate, Transport):
        missing = [
            name
            for name in (
                "obs", "profile", "register", "send", "site_of", "node_ids",
                "fail_node", "recover_node", "is_failed", "add_tap",
            )
            if not hasattr(candidate, name)
        ]
        raise TypeError(
            f"{type(candidate).__name__} does not satisfy "
            f"repro.runtime.Transport (missing: {missing})"
        )
    return candidate

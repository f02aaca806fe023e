"""Node base class: message dispatch, request/reply RPC, CPU modelling.

Every protocol participant (store replica, MUSIC replica, Zookeeper
server, Raft peer, client host) subclasses :class:`Node`.  The inbox a
node registers with the :class:`~repro.net.network.Network` is a sink,
not a queue: the transport's ``put(message)`` completes a pending RPC
or runs the registered handler inside the delivery itself, with no
mailbox and no serve loop in between.  A reply goes straight to what
waits for it: a single call's reply event, or the
:class:`~repro.net.quorum.QuorumWait` of a :meth:`Node.call_quorum`,
registered under every request id of the round.  A node also owns a
local clock and a CPU resource with a configurable core count (the
paper's testbed machines have eight 2.5 GHz cores; CPU contention is
what caps CassaEV-style local operations at finite throughput).
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Any, Callable, Deque, Dict, Generator, List, Optional
from typing import Sequence, Tuple

from ..errors import QuorumUnavailable, RpcTimeout
from ..sim import Clock, Event, NodeClock, Process, Resource
from .network import Message, Transport
from .quorum import QuorumWait

__all__ = ["Node", "DEFAULT_RPC_TIMEOUT_MS", "REPLY_KIND"]

DEFAULT_RPC_TIMEOUT_MS = 4_000.0

# The kind of every RPC reply; its Message carries the request's id.
REPLY_KIND = "__reply__"

Handler = Callable[[Message], Optional[Generator[Any, Any, None]]]


class _Sink:
    """What a node registers as its inbox: ``put`` is its dispatch.

    (Not the node itself — subclasses own the name, e.g.
    ``MusicReplica.put(key, value)``.)
    """

    __slots__ = ("put",)

    def __init__(self, put: Callable[[Message], None]) -> None:
        self.put = put


class _Handler:
    """What a served handler's continuation runs as (:meth:`Node.serve`):
    the process it used to spawn, minus the generator — a name for the
    profiler and an empty context (its spans name their parent).  One
    per handled kind, built on the kind's first request."""

    __slots__ = ("name",)

    context = MappingProxyType({})

    def __init__(self, name: str) -> None:
        self.name = name


class _ExpiryQueue:
    """One node's RPC deadlines for one timeout value, behind one timer.

    Calls with the same timeout expire in the order they were sent, so
    the deadlines form a FIFO and a single kernel entry, armed for the
    oldest one, covers them all: when it fires it drops the heads that
    were answered meanwhile, fails the ones that are due and re-arms
    for the next unanswered deadline.  An answered RPC therefore costs
    no kernel event and parks nothing in the clock's heap — nor here: an
    entry is four scalars, never what waits for the reply, and ``add`` drops
    answered heads as well, so the queue is as long as the calls in
    flight (plus whatever was answered behind an unanswered head).
    """

    __slots__ = ("sim", "pending", "timeout", "entries", "armed")

    # Profiler attribution: the timer is the net layer's.
    name = "rpc:expiry"

    def __init__(self, sim: "Clock", pending: Dict[int, Any], timeout: float) -> None:
        self.sim = sim
        # The node's request_id -> reply event (or QuorumWait) map; a
        # call is unanswered exactly while its id is in it.
        self.pending = pending
        self.timeout = timeout
        # (deadline, request_id, kind, dst), oldest first.
        self.entries: Deque[Tuple[float, int, str, str]] = deque()
        self.armed = False

    def add(self, request_id: int, kind: str, dst: str) -> None:
        sim = self.sim
        entries = self.entries
        pending = self.pending
        # Answered heads go now, not only at the next fire.
        while entries and entries[0][1] not in pending:
            entries.popleft()
        # The deadline is fixed here and met exactly (schedule_at), as
        # if every call still had a timer of its own.
        deadline = sim.now + self.timeout
        entries.append((deadline, request_id, kind, dst))
        if not self.armed:
            self.armed = True
            sim.schedule_at(deadline, self._fire, None)

    def _fire(self, _arg: None) -> None:
        entries = self.entries
        pending = self.pending
        now = self.sim.now
        due: List[Tuple[Any, int, str, str]] = []
        while entries:
            deadline, request_id, kind, dst = entries[0]
            if request_id in pending:
                if deadline > now:
                    break
                due.append((pending.pop(request_id), request_id, kind, dst))
            entries.popleft()
        # Re-arm before failing anything: a waiter woken below may well
        # call again, and must find the timer state settled.
        if entries:
            self.sim.schedule_at(entries[0][0], self._fire, None)
        else:
            self.armed = False
        for waiter, request_id, kind, dst in due:
            if type(waiter) is QuorumWait:
                waiter.timed_out(request_id)
            else:
                waiter.fail(RpcTimeout(f"{kind} to {dst} after {self.timeout}ms"))


class Node:
    """A host participating in the protocols.

    Written purely against the two environment seams: ``sim`` is any
    :class:`~repro.sim.Clock` (the DES simulator, or a ``repro.live``
    wall clock) and ``network`` is any :class:`~repro.net.Transport`
    (the simulated network, or asyncio TCP).  That is what lets every
    Node subclass run unmodified in both modes.
    """

    def __init__(
        self,
        sim: "Clock",
        network: "Transport",
        node_id: str,
        site: str,
        cores: int = 8,
        clock: Optional[NodeClock] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.site = site
        # Shared observability facade (a no-op unless installed on the
        # network); protocol code opens spans and emits audit events
        # through it.  Its metrics count this node's traffic from the
        # network's own stats.
        self.obs = network.obs
        self.obs.tally("net", network)
        self.cpu = Resource(sim, capacity=cores, name=f"cpu:{node_id}")
        self.clock = clock or NodeClock(sim)
        # Messages delivered before start(), in arrival order; None once
        # the node dispatches.
        self._early: Optional[List[Message]] = []
        self.inbox = _Sink(self._dispatch)
        self.network.register(node_id, site, self.inbox)
        # kind -> (handler, its "<node>:<kind>" stand-in once it has run)
        self._handlers: Dict[str, Tuple[Handler, Optional[_Handler]]] = {}
        self._pending_replies: Dict[int, Any] = {}
        self._expiry: Dict[float, _ExpiryQueue] = {}
        self._next_request_id = 0
        # Per-kind reply-event names ("rpc:<kind>"), built once per kind
        # so the RPC hot path never formats strings.
        self._rpc_names: Dict[str, str] = {}
        # The stand-in of the request being dispatched (see serve()).
        self._serving = _Handler(node_id)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin dispatching incoming messages, oldest undelivered first."""
        early, self._early = self._early, None
        for message in early or ():
            self._dispatch(message)

    def crash(self) -> None:
        """Crash-stop this node: traffic is dropped and volatile state is lost.

        The contract (paper Section III: crash failures, not fail-stop
        amnesia of *everything*): in-flight and future traffic is
        dropped, and whatever the node holds only in memory is gone —
        subclasses declare their volatile state via
        :meth:`_discard_volatile` (a :class:`~repro.store.replica.
        StorageReplica` drops its memtable, Paxos acceptor dict and
        unsynced commit-log tail; a plain node has nothing modelled as
        volatile, so nothing is lost).  Durable state — a storage
        engine's synced commit log and flushed segments — survives and
        is replayed by :meth:`recover`.  (A *suspended* process — GC
        pause, VM migration: silent, RAM intact — is
        ``network.fail_node`` / ``recover_node``.)
        """
        self.network.fail_node(self.node_id)
        self._discard_volatile()

    def recover(self) -> None:
        """Replay durable state, then rejoin the network.

        If :meth:`_replay_durable` returns a generator (a storage
        engine's commit-log replay), it runs first on the simulated
        clock — the node stays unreachable until replay finishes, so
        recovery time is part of the availability story.  Plain nodes
        rejoin immediately with whatever state survived the crash.
        """
        replay = self._replay_durable()
        if replay is None:
            self.network.recover_node(self.node_id)
            return
        self.sim.process(self._replay_then_join(replay), name=f"recover:{self.node_id}")

    def _discard_volatile(self) -> None:
        """Hook: drop state that does not survive a crash.

        The base node models no durable/volatile split, so this is a
        no-op; stateful subclasses override it.
        """

    def _replay_durable(self) -> Optional[Generator[Any, Any, None]]:
        """Hook: a generator that rebuilds state from durable storage
        (run before the node rejoins the network), or None."""
        return None

    def _replay_then_join(self, replay: Generator[Any, Any, None]) -> Generator[Any, Any, None]:
        yield from replay
        self.network.recover_node(self.node_id)

    @property
    def failed(self) -> bool:
        return self.network.is_failed(self.node_id)

    # -- handler registration ------------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for messages of ``kind``.

        A handler may be a plain function (runs instantly; one that
        needs CPU time serves it, :meth:`serve`, and continues when the
        core is released) or a generator function result; generators
        are spawned as independent processes so slow requests do not
        hold up later deliveries.
        """
        if kind == REPLY_KIND:
            raise ValueError("cannot register a handler for the reply kind")
        self._handlers[kind] = (handler, None)

    # -- messaging ------------------------------------------------------------

    def send(self, dst: str, kind: str, body: Any, size_bytes: int = 64) -> None:
        """One-way message (no reply expected)."""
        self.network.send(self.node_id, dst, kind, body, size_bytes)

    def call_async(
        self,
        dst: str,
        kind: str,
        body: Any,
        size_bytes: int = 64,
        timeout: float = DEFAULT_RPC_TIMEOUT_MS,
        reply_event: Any = None,
    ) -> Any:
        """Fire an RPC; returns the reply Event (fails with RpcTimeout),
        ``reply_event`` if given — one a caller already waits on."""
        sim = self.sim
        request_id = self._next_request_id
        self._next_request_id = request_id + 1
        profiler = sim.profiler
        if profiler is not None:
            profiler.rpc_envelopes += 1
            if reply_event is None:
                name = self._rpc_names.get(kind)
                if name is None:
                    name = self._rpc_names[kind] = "rpc:" + kind
                reply_event = sim.event(name=name)
        elif reply_event is None:
            reply_event = sim.event()
        self._pending_replies[request_id] = reply_event
        tracer = self.obs.tracer
        trace = tracer.rpc_context() if tracer.enabled else None
        self.network.send(self.node_id, dst, kind, body, size_bytes, request_id, trace)
        expiry = self._expiry.get(timeout)
        if expiry is None:
            expiry = self._expiry[timeout] = _ExpiryQueue(sim, self._pending_replies, timeout)
        expiry.add(request_id, kind, dst)
        return reply_event

    def call_quorum(
        self,
        destinations: Sequence[str],
        kind: str,
        body: Any,
        needed: int,
        outcome: Optional[Event] = None,
        size_bytes: int = 64,
        timeout: float = DEFAULT_RPC_TIMEOUT_MS,
        on_failure: Optional[Callable[[str], None]] = None,
        first: Optional[Tuple[str, Event]] = None,
    ) -> Event:
        """Send one request per destination, in order, and return an
        event (``outcome`` if given) that succeeds with the
        ``(destination, reply)`` pairs of the first ``needed`` replies,
        in arrival order, or fails with :class:`QuorumUnavailable` once
        a quorum can no longer be formed.  A process waits with
        ``replies = yield node.call_quorum(...)``.

        Refuses with :class:`QuorumUnavailable` in the caller's step,
        before anything is sent, if ``needed`` exceeds the destinations;
        ``needed == 0`` succeeds at once with ``[]``.  Stragglers are
        left running; their eventual completion is harmless (and mirrors
        replicas applying a write after the coordinator has already
        acknowledged it).  ``on_failure(destination)`` runs for every
        request that times out, whether or not the outcome has
        triggered (hinted handoff).  ``first = (destination, event)``
        also succeeds ``event`` with that destination's reply, if it
        arrives before the outcome triggers: a caller that may go on at
        one replica's ack waits on it, and the outcome, which it must
        still observe, settles the quorum behind it."""
        total = len(destinations)
        if needed > total:
            raise QuorumUnavailable(f"need {needed} replies but only {total} requests sent")
        sim = self.sim
        if outcome is None:
            outcome = Event(sim, "quorum")
        wait = QuorumWait(outcome, needed, on_failure, first)
        if needed <= 0:
            outcome._trigger(True, [])
        profiler = sim.profiler
        if profiler is not None:
            profiler.rpc_envelopes += total
        tracer = self.obs.tracer
        trace = tracer.rpc_context() if tracer.enabled else None
        expiry = self._expiry.get(timeout)
        if expiry is None:
            expiry = self._expiry[timeout] = _ExpiryQueue(sim, self._pending_replies, timeout)
        pending, by_request = self._pending_replies, wait.destinations
        send, node_id = self.network.send, self.node_id
        for dst in destinations:
            request_id = self._next_request_id
            self._next_request_id = request_id + 1
            pending[request_id] = wait
            by_request[request_id] = dst
            send(node_id, dst, kind, body, size_bytes, request_id, trace)
            expiry.add(request_id, kind, dst)
        return outcome

    def call(
        self,
        dst: str,
        kind: str,
        body: Any,
        size_bytes: int = 64,
        timeout: float = DEFAULT_RPC_TIMEOUT_MS,
    ) -> Generator[Any, Any, Any]:
        """Request/reply RPC; yields until the reply or raises RpcTimeout.

        Use as ``reply = yield from node.call(...)`` inside a process.
        """
        reply = yield self.call_async(dst, kind, body, size_bytes, timeout)
        return reply

    def reply(self, request: Message, body: Any, size_bytes: int = 64) -> None:
        """Answer an RPC request received via :meth:`call` on the peer."""
        self.network.send(
            self.node_id, request.src, REPLY_KIND, body, size_bytes, request.request_id
        )

    @staticmethod
    def payload(request: Message) -> Any:
        """The caller-supplied body of an RPC request: ``request.body``."""
        return request.body

    # -- compute ------------------------------------------------------------

    def compute(self, service_time_ms: float) -> Generator[Any, Any, None]:
        """:meth:`serve` for a process: ``yield from node.compute(ms)``."""
        return self.cpu.use(service_time_ms)

    def serve(
        self,
        service_time_ms: float,
        then: Callable[[Any], None],
        arg: Any,
        waiter: Any = None,
    ) -> None:
        """Hold a CPU core ``service_time_ms`` (FIFO), then run
        ``then(arg)`` — a continuation (DESIGN.md §4) run as the calling
        process, so trace context, spans and the trigger rule see what
        the rest of its step saw; from a handler inside its delivery, as
        a stand-in ``"<node>:<kind>"``.  ``waiter``: see ``Resource.hold``."""
        owner = self.sim.active_process
        if owner is None:
            owner = self._serving
        self.cpu.hold(service_time_ms, then, arg, owner, waiter)

    # -- delivery ------------------------------------------------------------

    def _dispatch(self, message: Message) -> None:
        """The inbox's ``put``: handle ``message`` now, in the delivery.

        A reply completes its pending RPC (a call's reply event, or the
        round's :class:`QuorumWait`); anything else runs its
        handler, and a generator handler takes its first step here, in
        the delivery, before becoming a process of its own.
        """
        if self._early is not None:
            self._early.append(message)
            return
        kind = message.kind
        if kind == REPLY_KIND:
            request_id = message.request_id
            waiter = self._pending_replies.pop(request_id, None)
            if waiter is None:
                return
            if type(waiter) is QuorumWait:
                waiter.reply(request_id, message.body)
            elif not waiter._triggered:
                waiter._trigger(True, message.body)
            return
        entry = self._handlers.get(kind)
        if entry is None:
            raise LookupError(f"{self.node_id}: no handler for {kind!r}")
        handler, stand_in = entry
        if stand_in is None:
            stand_in = _Handler(f"{self.node_id}:{kind}")
            self._handlers[kind] = (handler, stand_in)
        self._serving = stand_in
        result = handler(message)
        if result is not None and hasattr(result, "send"):
            process = Process(self.sim, result, stand_in.name)
            if message.trace is not None:
                # Join the handler to the caller's trace so the
                # replica-side work nests under the RPC's span.
                self.obs.tracer.adopt(process, message.trace)
            process.start()

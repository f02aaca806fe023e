"""The MUSIC-locks engine: strict 2PL over multi-key critical sections.

A transaction's key set is locked up front via
:func:`~repro.core.multikey.enter_multi` (lexicographic order — the
paper's deadlock-avoidance rule), reads and writes go through the
critical operations under the held lockRefs, and commit is simply
"install the buffered writes, then exit the section".  A forced release
mid-transaction surfaces as :class:`~repro.txn.engine.TxnAborted`
(reason ``forced_release``): the executor releases the surviving locks
and retries with fresh lockRefs.

Deadlock-freedom is not assumed — it is *checked*.  The
:class:`WaitsForGraph` subscribes to the audit stream exactly as the
ECF checker does (``enqueue`` / ``grant`` / ``release`` /
``forced_release``, the same events) and maintains the classical
waits-for graph: an edge T₁ → T₂ whenever a lockRef bound to T₁ waits
in a queue whose granted head is bound to T₂.  The graph must stay
acyclic at every grant and enqueue; a cycle is filed as a ``Deadlock``
violation on the stream.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..core.multikey import MultiKeyCriticalSection, enter_multi
from ..errors import NotLockHolder, ReproError
from ..obs.audit import AuditEvent, AuditStream
from ..verification.invariants import ViolationRecord
from .engine import Stamp, Transaction, TxnAborted, TxnEngine
from .oracle import CommittedTxn, find_cycle

__all__ = ["LockingEngine", "LockingTxn", "WaitsForGraph"]


class WaitsForGraph:
    """Waits-for-graph deadlock detection over lockstore audit events.

    Only lockRefs explicitly bound to a transaction (via :meth:`bind`,
    wired through ``enter_multi``'s ``on_ref`` hook) appear in the
    graph; other lock users of the deployment (leases, the OCC epoch
    key, plain clients) are ignored.
    """

    invariant = "Deadlock"

    def __init__(self, stream: Optional[AuditStream] = None) -> None:
        self.stream = stream  # where cycles are filed, if anywhere
        self._txn_of: Dict[Tuple[str, int], str] = {}  # (key, ref) -> txn
        self._waiting: Dict[str, Set[int]] = {}        # key -> queued refs
        self._granted: Dict[str, Optional[int]] = {}   # key -> head ref
        self.violations: List[ViolationRecord] = []
        self.checks = 0

    def bind(self, key: str, lock_ref: int, txn_id: str) -> None:
        self._txn_of[(key, lock_ref)] = txn_id

    def on_event(self, event: AuditEvent) -> None:
        kind = event.kind
        if kind not in ("enqueue", "grant", "release", "forced_release"):
            return
        key, ref = event.key, event.lock_ref
        if key is None or ref is None:
            return
        if kind == "enqueue":
            if self._granted.get(key) != ref:
                self._waiting.setdefault(key, set()).add(ref)
                self._check(event)
        elif kind == "grant":
            self._waiting.get(key, set()).discard(ref)
            self._granted[key] = ref
            self._check(event)
        else:  # release / forced_release: the ref leaves the queue
            self._waiting.get(key, set()).discard(ref)
            if self._granted.get(key) == ref:
                self._granted[key] = None
            self._txn_of.pop((key, ref), None)

    # -- the invariant -----------------------------------------------------

    def edges(self) -> Dict[str, Set[str]]:
        """Current waits-for edges: waiting txn -> granted-holder txn."""
        out: Dict[str, Set[str]] = {}
        for key, refs in self._waiting.items():
            head = self._granted.get(key)
            if head is None:
                continue
            holder = self._txn_of.get((key, head))
            if holder is None:
                continue
            for ref in refs:
                waiter = self._txn_of.get((key, ref))
                if waiter is not None and waiter != holder:
                    out.setdefault(waiter, set()).add(holder)
        return out

    def _check(self, event: AuditEvent) -> None:
        self.checks += 1
        cycle = find_cycle(
            {txn: sorted(holders) for txn, holders in sorted(self.edges().items())}
        )
        if cycle is None:
            return
        record = ViolationRecord(
            invariant=self.invariant,
            source="runtime",
            detail=(
                "waits-for cycle " + " -> ".join(cycle)
                + f" (triggered by {event.label()} on {event.key!r})"
            ),
            key=event.key,
            lock_ref=event.lock_ref,
            time_ms=event.t_ms,
            trace=[event.label()],
        )
        self.violations.append(record)
        if self.stream is not None:
            self.stream.file(record)


class LockingEngine(TxnEngine):
    """Pessimistic engine: MUSIC multi-key critical sections per txn."""

    name = "locking"

    def __init__(
        self,
        deployment: Any,
        lock_timeout_ms: float = 120_000.0,
        acquire_retries: int = 4,
    ) -> None:
        super().__init__(deployment)
        self.lock_timeout_ms = lock_timeout_ms
        self.acquire_retries = acquire_retries
        # The deadlock checker, subscribed when the deployment is audited.
        self.waits_for: Optional[WaitsForGraph] = None
        if deployment.auditor is not None:
            self.waits_for = WaitsForGraph(deployment.auditor)
            deployment.auditor.subscribe(self.waits_for.on_event)

    def begin(self, client: Any, spec: Any) -> Generator[Any, Any, "LockingTxn"]:
        txn = LockingTxn(self, client, self.next_txn_id(client), spec)
        yield from txn._enter()
        return txn

    def _lock_keys(self, spec: Any) -> List[str]:
        # Kept separate so the seeded mutation in tests can drop a lock.
        return sorted(spec.keys)


class LockingTxn(Transaction):
    def __init__(self, engine: LockingEngine, client: Any, txn_id: str, spec: Any) -> None:
        super().__init__(engine, client, txn_id, spec)
        self.section: Optional[MultiKeyCriticalSection] = None

    def _enter(self) -> Generator[Any, Any, None]:
        engine: LockingEngine = self.engine  # type: ignore[assignment]
        on_ref = None
        if engine.waits_for is not None:
            graph, txn_id = engine.waits_for, self.txn_id
            on_ref = lambda key, ref: graph.bind(key, ref, txn_id)  # noqa: E731
        try:
            self.section = yield from enter_multi(
                self.client,
                engine._lock_keys(self.spec),
                timeout_ms=engine.lock_timeout_ms,
                retries=engine.acquire_retries,
                on_ref=on_ref,
            )
        except NotLockHolder as error:
            raise TxnAborted("forced_release", str(error))
        except ReproError as error:
            raise TxnAborted("lock_acquire", str(error))

    def _read(self, key: str) -> Generator[Any, Any, Any]:
        assert self.section is not None
        try:
            value, stamp = yield from self.client.critical_get_stamped(
                key, self.section.lock_refs[key]
            )
        except NotLockHolder as error:
            raise TxnAborted("forced_release", str(error))
        self._note_read(key, value, stamp)
        return value

    def _write(self, key: str, value: Any) -> Generator[Any, Any, Stamp]:
        assert self.section is not None
        try:
            stamp = yield from self.client.critical_put(
                key, self.section.lock_refs[key], value
            )
        except NotLockHolder as error:
            raise TxnAborted("forced_release", str(error))
        return stamp

    def commit(self) -> Generator[Any, Any, CommittedTxn]:
        assert self.section is not None
        engine: LockingEngine = self.engine  # type: ignore[assignment]
        sim = self.client.sim
        with engine.obs.tracer.span("txn.commit_cs", txn=self.txn_id):
            # The section holds every key's lock: its writes go out at
            # once, as the optimistic engines' do.
            keys = sorted(self._pending)
            stamps = yield sim.all_of(
                [sim.process(self._write(key, self._pending[key])) for key in keys]
            )
            writes: Dict[str, Stamp] = dict(zip(keys, stamps))
            record = engine.record_commit(
                self.txn_id, self.reads, writes
            )
            yield from self.section.exit()
            self.section = None
        self.finished = True
        return record

    def abort(self) -> Generator[Any, Any, None]:
        if self.section is not None:
            section, self.section = self.section, None
            try:
                yield from section.exit()
            except ReproError:
                pass  # best effort; orphan cleanup reaps leftovers
        self.finished = True

"""The epoch OCC engine: optimistic reads, epoch-batched validation.

Transactions read at QUORUM with no locks, recording the v2s stamp of
every value they observe, and buffer writes.  Commit hands the
read/write sets to the *epoch sealer* — a background process that holds
a long-lived single-key MUSIC critical section on a designated epoch
key.  The CS is the exclusive-committer fence: because only the lock
holder can seal epochs, validation and write installation are
serialized by the same quorum machinery the rest of MUSIC uses, with no
second consensus protocol.

Every ``epoch_ms`` the sealer drains the pending commit requests and,
in arrival order, validates each read set against the stamps of the
writes it has installed so far (backward validation): any key read at a
stamp that a committed transaction has since overwritten aborts the
request.  Validated write sets are installed as quorum writes stamped
under the sealer's lockRef, then the epoch is *sealed* — one
criticalPut on the epoch key — and only then are the waiting clients
acked.  Commit latency is therefore the Silo-style group-commit wait:
cheap reads, batched durability.

An engine instance assumes its data keys are not concurrently written
by other engines (each bench regime runs in its own deployment).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from .engine import Stamp, Transaction, TxnAborted, TxnEngine
from .oracle import CommittedTxn

__all__ = ["EpochOCCEngine", "OCCTxn", "EPOCH_KEY"]

EPOCH_KEY = "__txn_epoch__"

# Spacing between stamps minted under the sealer's lockRef; offsets stay
# far below period_ms for any realistic commit count.
_STAMP_TICK = 0.001


class _CommitRequest:
    __slots__ = ("txn", "reads", "writes", "event", "record", "detail")

    def __init__(self, txn: "OCCTxn", event: Any) -> None:
        self.txn = txn
        self.reads = dict(txn.reads)
        self.writes = dict(txn._pending)
        self.event = event
        self.record: Optional[CommittedTxn] = None
        self.detail = ""


class EpochOCCEngine(TxnEngine):
    name = "occ"

    def __init__(
        self,
        deployment: Any,
        epoch_ms: float = 25.0,
        epoch_key: str = EPOCH_KEY,
        site: Optional[str] = None,
    ) -> None:
        super().__init__(deployment)
        self.epoch_ms = epoch_ms
        self.epoch_key = epoch_key
        self.site = site or deployment.profile.site_names[0]
        self.epoch = 0
        self.pending: List[_CommitRequest] = []
        # Latest installed stamp per key; absent = never OCC-written, in
        # which case any observed (pre-existing/initial) stamp is current.
        self.versions: Dict[str, Stamp] = {}
        self._proc: Optional[Any] = None
        self._running = False
        self._stamp_seq = 0
        self._sealer_ref: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._proc is not None:
            return
        self._running = True
        client = self.deployment.client(self.site, client_id=f"{self.name}-sealer")
        self._proc = self.sim.process(self._sealer(client), name="occ-sealer")

    def stop(self) -> None:
        self._running = False

    # -- the sealer --------------------------------------------------------

    def _sealer(self, client: Any) -> Generator[Any, Any, None]:
        cs = yield from client.critical_section(self.epoch_key)
        self._sealer_ref = cs.lock_ref
        period = self.deployment.config.period_ms
        while self._running:
            yield self.sim.timeout(self.epoch_ms)
            if self.pending:
                batch, self.pending = self.pending, []
                self.epoch += 1
                writers: List[Any] = []
                for request in batch:
                    if not self._validate(request):
                        request.detail = "read set stale at epoch seal"
                        continue
                    stamps: Dict[str, Stamp] = {}
                    self._stamp_seq += 1
                    scalar = cs.lock_ref * period + self._stamp_seq * _STAMP_TICK
                    for key in sorted(request.writes):
                        stamp = (scalar, f"occ-e{self.epoch}")
                        # Install in the version table *before* the
                        # store write lands: a racing reader observing
                        # either the old or the new stamp validates
                        # correctly (old -> abort, new -> current).
                        self.versions[key] = stamp
                        stamps[key] = stamp
                        writers.append(self.sim.process(
                            client.txn_write(key, request.writes[key], stamp)
                        ))
                    request.record = self.record_commit(
                        request.txn.txn_id, request.reads, stamps,
                    )
                if writers:
                    yield self.sim.all_of(writers)
                # Seal the epoch: one criticalPut under the held CS is
                # the group-commit durability point for the whole batch.
                yield from cs.put({
                    "epoch": self.epoch, "commit_seq": self.commit_seq,
                })
                for request in batch:
                    request.event.succeed(request.record)
        # Clean shutdown (stop() flipped the flag): give the lock back.
        # An abandoned sealer (simulation simply ends) leaves the CS
        # held, which preemption/orphan-cleanup would eventually reap.
        yield from cs.exit()

    def _validate(self, request: _CommitRequest) -> bool:
        """Backward validation (mutation hook: tests override this)."""
        for key, observed in request.reads.items():
            expected = self.versions.get(key)
            if expected is not None and observed != expected:
                return False
        return True

    # -- the engine interface ----------------------------------------------

    def begin(self, client: Any, spec: Any) -> Generator[Any, Any, "OCCTxn"]:
        self.start()
        return OCCTxn(self, client, self.next_txn_id(client), spec)
        yield  # pragma: no cover - begin is yield-free for OCC


class OCCTxn(Transaction):
    def _read(self, key: str) -> Generator[Any, Any, Any]:
        value, stamp = yield from self.client.txn_read(key)
        self._note_read(key, value, stamp)
        return value

    def commit(self) -> Generator[Any, Any, CommittedTxn]:
        engine: EpochOCCEngine = self.engine  # type: ignore[assignment]
        with engine.obs.tracer.span("txn.commit_cs", txn=self.txn_id):
            request = _CommitRequest(self, engine.sim.event())
            engine.pending.append(request)
            record = yield request.event
        if record is None:
            raise TxnAborted("validation", request.detail)
        self.finished = True
        return record

"""The SSI engine: snapshot isolation made serializable.

A centralized transaction manager (the RepCRec blueprint) gives every
transaction a consistent snapshot — reads resolve to the latest version
committed before the transaction began — and enforces:

* **first-committer-wins** on write-write conflicts: a write key with a
  version committed after my snapshot aborts me at validation; and
* **dangerous-structure detection** on rw antidependencies (Cahill et
  al.): every read of a version that a concurrent transaction
  overwrites raises an ``rw`` edge reader → writer; a transaction with
  both an incoming and an outgoing rw edge to concurrent transactions
  (a pivot) is aborted — wounded while active, refused at commit
  otherwise.

Reads still pay the real QUORUM read against the store (latency
realism); the version *selected* may come from the manager's version
cache when the store already shows a newer committed write.  Writes are
installed in the manager's version table before the quorum writes are
issued, so a racing reader resolves either way to a consistent version.

Like the OCC engine, an SSI engine assumes its data keys are not
concurrently written by other engines.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from .engine import Stamp, Transaction, TxnAborted, TxnEngine
from .oracle import CommittedTxn

__all__ = ["SSIEngine", "SSITxn"]


class _Version:
    __slots__ = ("commit_seq", "stamp", "value", "writer")

    def __init__(self, commit_seq: int, stamp: Stamp, value: Any, writer: "SSITxn") -> None:
        self.commit_seq = commit_seq
        self.stamp = stamp
        self.value = value
        self.writer = writer


class SSIEngine(TxnEngine):
    name = "ssi"

    # Stamp space for SSI-installed versions; far above real lockRefs so
    # engine writes always supersede pre-existing (initial) stamps.
    _SSI_REF_BASE = 2_000_000

    def __init__(self, deployment: Any) -> None:
        super().__init__(deployment)
        self.versions: Dict[str, List[_Version]] = {}
        # First observed (pre-engine) value+stamp per key, so late
        # snapshots can still read below all engine versions.
        self.initial: Dict[str, Tuple[Any, Optional[Stamp]]] = {}
        self.readers: Dict[str, List["SSITxn"]] = {}

    def begin(self, client: Any, spec: Any) -> Generator[Any, Any, "SSITxn"]:
        return SSITxn(self, client, self.next_txn_id(client), spec)
        yield  # pragma: no cover - begin is yield-free for SSI

    # -- read-time bookkeeping (mutation hook: tests override this) --------

    def _register_read(self, txn: "SSITxn", key: str) -> None:
        """Record the SIREAD and raise rw edges against newer writers."""
        for version in self.versions.get(key, ()):  # ascending seq
            if version.commit_seq <= txn.begin_seq:
                continue
            writer = version.writer
            txn.out_conflict = True
            writer.in_conflict = True
            if not writer.active and writer.out_conflict:
                raise TxnAborted(
                    "dangerous_structure",
                    f"read of {key!r} under committed pivot {writer.txn_id}",
                )
        self.readers.setdefault(key, []).append(txn)
        if txn.in_conflict and txn.out_conflict:
            raise TxnAborted(
                "dangerous_structure", f"{txn.txn_id} became a pivot on read"
            )


class SSITxn(Transaction):
    def __init__(self, engine: SSIEngine, client: Any, txn_id: str, spec: Any) -> None:
        super().__init__(engine, client, txn_id, spec)
        self.begin_seq = engine.commit_seq
        self.active = True
        self.aborted = False
        self.doomed = False
        self.in_conflict = False
        self.out_conflict = False
        self.commit_seq_final: Optional[int] = None

    def _read(self, key: str) -> Generator[Any, Any, Any]:
        engine: SSIEngine = self.engine  # type: ignore[assignment]
        if self.doomed:
            raise TxnAborted("dangerous_structure", "wounded by a concurrent writer")
        value, store_stamp = yield from self.client.txn_read(key)
        versions = engine.versions.get(key, [])
        snapshot: Optional[_Version] = None
        for version in reversed(versions):
            if version.commit_seq <= self.begin_seq:
                snapshot = version
                break
        if snapshot is not None:
            value, stamp = snapshot.value, snapshot.stamp
        elif versions:
            # Every engine version postdates our snapshot: we need the
            # pre-engine value, which is only available if some earlier
            # read cached it.
            if key not in engine.initial:
                raise TxnAborted(
                    "snapshot_unavailable",
                    f"no version of {key!r} at snapshot {self.begin_seq}",
                )
            value, stamp = engine.initial[key]
        else:
            stamp = store_stamp
            engine.initial.setdefault(key, (value, stamp))
        engine._register_read(self, key)
        self._note_read(key, value, stamp)
        return value

    def commit(self) -> Generator[Any, Any, CommittedTxn]:
        engine: SSIEngine = self.engine  # type: ignore[assignment]
        if self.doomed:
            raise TxnAborted("dangerous_structure", "wounded by a concurrent writer")
        with engine.obs.tracer.span("txn.validate", txn=self.txn_id):
            # First committer wins on ww conflicts.
            for key in self._pending:
                for version in engine.versions.get(key, ()):
                    if version.commit_seq > self.begin_seq:
                        raise TxnAborted(
                            "first_committer",
                            f"{key!r} written since snapshot {self.begin_seq}",
                        )
            # Raise rw edges from concurrent readers of my write keys.
            for key in self._pending:
                for reader in engine.readers.get(key, ()):
                    if reader is self or reader.aborted:
                        continue
                    concurrent = reader.active or (
                        reader.commit_seq_final is not None
                        and reader.commit_seq_final > self.begin_seq
                    )
                    if not concurrent:
                        continue
                    reader.out_conflict = True
                    self.in_conflict = True
                    if reader.active:
                        if reader.in_conflict:  # active pivot: wound it
                            reader.doomed = True
                    elif reader.in_conflict:  # committed pivot: yield to it
                        raise TxnAborted(
                            "dangerous_structure",
                            f"committed pivot {reader.txn_id} read "
                            f"{key!r} before this write",
                        )
            if self.in_conflict and self.out_conflict:
                raise TxnAborted(
                    "dangerous_structure", f"{self.txn_id} became a pivot"
                )
        # No yields between validation and version installation: the
        # decision and its effects are atomic in the simulation.
        with engine.obs.tracer.span("txn.commit_cs", txn=self.txn_id):
            engine.commit_seq += 1
            seq = engine.commit_seq
            self.commit_seq_final = seq
            self.active = False
            period = engine.deployment.config.period_ms
            scalar = (SSIEngine._SSI_REF_BASE + seq) * period
            stamps: Dict[str, Stamp] = {}
            for key in sorted(self._pending):
                stamp = (scalar, f"ssi:{self.txn_id}")
                engine.versions.setdefault(key, []).append(
                    _Version(seq, stamp, self._pending[key], self)
                )
                stamps[key] = stamp
            record = engine.record_commit(
                self.txn_id, self.reads, stamps,
                begin_seq=self.begin_seq, commit_seq=seq,
            )
            writers = [
                engine.sim.process(
                    self.client.txn_write(key, self._pending[key], stamps[key])
                )
                for key in sorted(self._pending)
            ]
            if writers:
                yield engine.sim.all_of(writers)
        self.finished = True
        return record

    def abort(self) -> Generator[Any, Any, None]:
        self.aborted = True
        self.active = False
        self.finished = True
        return
        yield  # pragma: no cover

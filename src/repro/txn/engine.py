"""The shared engine interface of the transaction layer.

A concurrency-control engine owns the commit protocol for one
deployment: :class:`~repro.txn.locking.LockingEngine` serializes by
holding MUSIC multi-key critical sections, :class:`~repro.txn.occ.EpochOCCEngine`
validates read sets at epoch boundaries inside a single-key MUSIC CS,
and :class:`~repro.txn.ssi.SSIEngine` runs snapshot isolation with
first-committer-wins plus rw-antidependency aborts.

Every engine produces the same evidence: a list of
:class:`~repro.txn.oracle.CommittedTxn` records whose read/write stamps
are *real store cell stamps*, so one
:class:`~repro.txn.oracle.SerializabilityChecker` replays any engine's
history and verifies a valid serial order exists.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..errors import ReproError
from .oracle import CommittedTxn, Stamp

__all__ = ["TxnAborted", "TxnEngine", "Transaction", "Stamp"]


class TxnAborted(ReproError):
    """The transaction cannot commit; the executor may retry it.

    ``reason`` is a short machine-readable tag (``forced_release``,
    ``validation``, ``first_committer``, ``dangerous_structure``,
    ``lock_acquire``) used for abort accounting in the bench.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


class TxnEngine:
    """Base class: txn identity, commit/abort accounting, the record log."""

    name = "abstract"

    def __init__(self, deployment: Any) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.obs = deployment.obs
        self.commit_seq = 0
        self.committed: List[CommittedTxn] = []
        self.abort_counts: Dict[str, int] = {}
        self._txn_seq = 0

    # -- the engine interface ---------------------------------------------

    def begin(self, client: Any, spec: Any) -> Generator[Any, Any, "Transaction"]:
        """Open a transaction for ``client`` over ``spec`` (a
        :class:`~repro.workloads.TxnSpec` or any object with ``keys``,
        ``read_keys`` and ``write_keys``)."""
        raise NotImplementedError

    def start(self) -> None:
        """Spawn any background processes (e.g. the OCC epoch sealer)."""

    def stop(self) -> None:
        """Wind down background processes; safe to call twice."""

    # -- shared bookkeeping -----------------------------------------------

    def next_txn_id(self, client: Any) -> str:
        self._txn_seq += 1
        return f"{self.name}:{client.client_id}:{self._txn_seq}"

    def record_commit(
        self,
        txn_id: str,
        reads: Dict[str, Optional[Stamp]],
        writes: Dict[str, Stamp],
        begin_seq: Optional[int] = None,
        commit_seq: Optional[int] = None,
    ) -> CommittedTxn:
        if commit_seq is None:
            self.commit_seq += 1
            commit_seq = self.commit_seq
        record = CommittedTxn(
            txn_id=txn_id,
            engine=self.name,
            commit_seq=commit_seq,
            reads=dict(reads),
            writes=dict(writes),
            begin_seq=begin_seq,
            commit_ms=self.sim.now,
        )
        self.committed.append(record)
        return record

    def record_abort(self, reason: str) -> None:
        self.abort_counts[reason] = self.abort_counts.get(reason, 0) + 1

    @property
    def abort_total(self) -> int:
        return sum(self.abort_counts.values())


class Transaction:
    """One in-flight transaction: buffered writes, recorded read stamps.

    Writes are buffered client-side until :meth:`commit` (all three
    engines install them atomically-enough for their own protocol);
    ``get`` observes the transaction's own pending writes first
    (read-your-writes), then caches the first committed read per key so
    the read set holds exactly one version token per key.
    """

    def __init__(self, engine: TxnEngine, client: Any, txn_id: str, spec: Any) -> None:
        self.engine = engine
        self.client = client
        self.txn_id = txn_id
        self.spec = spec
        self.reads: Dict[str, Optional[Stamp]] = {}
        self._read_values: Dict[str, Any] = {}
        self._pending: Dict[str, Any] = {}
        self.finished = False

    # -- operations -------------------------------------------------------

    def get(self, key: str) -> Generator[Any, Any, Any]:
        if key in self._pending:
            return self._pending[key]
        if key in self._read_values:
            return self._read_values[key]
        value = yield from self._read(key)
        return value

    def put(self, key: str, value: Any) -> Generator[Any, Any, None]:
        self._pending[key] = value
        return
        yield  # pragma: no cover - keeps the op a generator like get()

    def delete(self, key: str) -> Generator[Any, Any, None]:
        """Delete = write the None tombstone (the criticalDelete
        convention of the core layer)."""
        yield from self.put(key, None)

    def commit(self) -> Generator[Any, Any, CommittedTxn]:
        raise NotImplementedError

    def abort(self) -> Generator[Any, Any, None]:
        """Idempotent cleanup (release locks, unregister); never raises."""
        self.finished = True
        return
        yield  # pragma: no cover

    # -- engine hooks ------------------------------------------------------

    def _read(self, key: str) -> Generator[Any, Any, Any]:
        raise NotImplementedError

    def _note_read(self, key: str, value: Any, stamp: Optional[Stamp]) -> None:
        self.reads[key] = stamp
        self._read_values[key] = value

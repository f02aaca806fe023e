"""repro.txn — a transactional layer over the MUSIC deployment.

Three concurrency-control regimes behind one interface (DESIGN.md §13):

* ``locking`` — :class:`LockingEngine`: MUSIC multi-key critical
  sections (strict 2PL, lexicographic acquisition), waits-for-graph
  deadlock detection as a checked invariant;
* ``occ`` — :class:`EpochOCCEngine`: optimistic quorum reads, epoch
  sealer validating read sets inside a single-key MUSIC CS;
* ``ssi`` — :class:`SSIEngine`: serializable snapshot isolation with
  first-committer-wins and rw-antidependency pivot aborts.

Every engine emits :class:`CommittedTxn` records that the
:class:`SerializabilityChecker` replays (:mod:`repro.txn.oracle`), so the
regimes are compared on *checked* histories, not trust.

Usage::

    deployment = build_music(audit=True, txn=True)
    executor = deployment.txn.executor("locking")
    result = sim.run_until_complete(
        sim.process(executor.run(spec)), limit=60_000)
"""

from .api import RetryPolicy, TransactionExecutor, TxnResult, TxnRuntime, rmw_body
from .engine import Transaction, TxnAborted, TxnEngine
from .locking import LockingEngine, LockingTxn, WaitsForGraph
from .occ import EPOCH_KEY, EpochOCCEngine, OCCTxn
from .oracle import CommittedTxn, SerializabilityChecker
from .ssi import SSIEngine, SSITxn

ENGINES = {
    LockingEngine.name: LockingEngine,
    EpochOCCEngine.name: EpochOCCEngine,
    SSIEngine.name: SSIEngine,
}

__all__ = [
    "CommittedTxn",
    "EPOCH_KEY",
    "ENGINES",
    "EpochOCCEngine",
    "LockingEngine",
    "LockingTxn",
    "OCCTxn",
    "RetryPolicy",
    "SSIEngine",
    "SSITxn",
    "SerializabilityChecker",
    "Transaction",
    "TransactionExecutor",
    "TxnAborted",
    "TxnEngine",
    "TxnResult",
    "TxnRuntime",
    "WaitsForGraph",
    "rmw_body",
]

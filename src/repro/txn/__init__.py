"""repro.txn — a transactional layer over the MUSIC deployment.

Three concurrency-control regimes behind one interface (DESIGN.md §9):

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

    deployment = build_music(audit=True)
    executor = deployment.txn.executor("locking")  # built on first access
    result = sim.run_until_complete(
        sim.process(executor.run(spec)), limit=60_000)
"""

from .api import RetryPolicy, TxnRuntime
from .engine import Transaction, TxnAborted, TxnEngine
from .locking import LockingEngine, LockingTxn, WaitsForGraph
from .occ import EpochOCCEngine
from .oracle import SerializabilityChecker
from .ssi import SSIEngine

ENGINES = {
    LockingEngine.name: LockingEngine,
    EpochOCCEngine.name: EpochOCCEngine,
    SSIEngine.name: SSIEngine,
}

__all__ = [
    "EpochOCCEngine",
    "LockingEngine",
    "LockingTxn",
    "RetryPolicy",
    "SSIEngine",
    "SerializabilityChecker",
    "Transaction",
    "TxnAborted",
    "TxnEngine",
    "TxnRuntime",
    "WaitsForGraph",
]

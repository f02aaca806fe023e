"""Seeded mutations: one deliberately broken variant per engine must be
*caught* by the serializability checker (ISSUE acceptance: the checker
is only trustworthy if it rejects known-bad protocols)."""

import itertools

import pytest

from repro.txn import EpochOCCEngine, LockingEngine, SerializabilityChecker, SSIEngine
from repro.txn.locking import LockingTxn

from .helpers import build_txn_music, run_workload


class DroppedLockEngine(LockingEngine):
    """Mutation: 'forget' the last lock of every multi-key set; reads
    and writes of the dropped key go out unguarded."""

    def __init__(self, deployment):
        super().__init__(deployment)
        # "lockRefs" stamping the unguarded writes: monotone, and far
        # above any real lockRef so chains stay ordered.
        self.unguarded_refs = itertools.count(1_000_001)

    def begin(self, client, spec):
        txn = DroppedLockTxn(self, client, self.next_txn_id(client), spec)
        yield from txn._enter()
        return txn

    def _lock_keys(self, spec):
        keys = sorted(spec.keys)
        return keys[:-1] if len(keys) > 1 else keys


class DroppedLockTxn(LockingTxn):
    def _read(self, key):
        if key in self.section.lock_refs:
            return (yield from super()._read(key))
        value, stamp = yield from self.client.txn_read(key)
        self._note_read(key, value, stamp)
        return value

    def _write(self, key, value):
        if key in self.section.lock_refs:
            return (yield from super()._write(key, value))
        period = self.engine.deployment.config.period_ms
        stamp = (next(self.engine.unguarded_refs) * period, "txn-unlocked")
        yield from self.client.txn_write(key, value, stamp)
        return stamp


class NoValidationEngine(EpochOCCEngine):
    """Mutation: the sealer admits every commit without checking read
    sets against installed versions."""

    def _validate(self, request):
        return True


class StaleReadEngine(SSIEngine):
    """Mutation: reads keep their snapshots but skip SIREAD registration
    and rw-edge bookkeeping — stale reads are admitted silently."""

    def _register_read(self, txn, key):
        pass


MUTANTS = [
    pytest.param(DroppedLockEngine, id="locking-drop-one-lock"),
    pytest.param(NoValidationEngine, id="occ-skip-validation"),
    pytest.param(StaleReadEngine, id="ssi-admit-stale-read"),
]

# High contention over a tiny key population so the races the mutations
# open actually fire (deterministic under the seeded streams).
CONTENTION = dict(clients=8, txns_per_client=10, key_count=8, theta=0.95,
                  read_fraction=0.5)


@pytest.mark.parametrize("engine_cls", MUTANTS)
def test_mutant_is_caught_by_the_checker(engine_cls):
    music = build_txn_music(seed=11)
    engine = engine_cls(music)
    run_workload(engine, music, stream="txn-mutant", **CONTENTION)
    checker = SerializabilityChecker()
    violations = checker.check(engine.committed)
    assert violations, (
        f"{engine_cls.__name__} produced a non-serializable protocol "
        "but the checker accepted its history"
    )
    # The violation names a dependency cycle or failed replay, with the
    # implicated transactions in the detail.
    assert any(
        "cycle" in v.detail or "replay" in v.detail for v in violations
    )


@pytest.mark.parametrize(
    "engine_cls", [LockingEngine, EpochOCCEngine, SSIEngine],
    ids=["locking", "occ", "ssi"],
)
def test_unmutated_twin_is_clean(engine_cls):
    """The same workload through the real engines stays clean — the
    mutants fail because of the mutation, not the workload."""
    music = build_txn_music(seed=11)
    engine = engine_cls(music)
    run_workload(engine, music, stream="txn-mutant", **CONTENTION)
    checker = SerializabilityChecker()
    assert checker.check(engine.committed) == []

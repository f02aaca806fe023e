"""Every engine commits a contended Zipfian workload and the committed
history passes the serializability checker (DESIGN.md §9)."""

import pytest

from repro.txn import SerializabilityChecker, TxnAborted
from repro.txn.oracle import find_cycle

from .helpers import build_txn_music, run_workload

ENGINE_NAMES = ["locking", "occ", "ssi"]


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_engine_serializable_under_contention(name):
    music = build_txn_music(audit=True)
    engine = music.txn.engine(name)
    results = run_workload(engine, music)

    assert results and all(r.committed for r in results)
    assert len(engine.committed) == len(results)

    checker = SerializabilityChecker()
    violations = checker.check(engine.committed)
    assert violations == [], "\n".join(v.render() for v in violations)
    # The checker actually produced a full serial order.
    assert len(checker.serial_order) == len(engine.committed)
    # And the runtime ECF auditor saw nothing wrong either.
    assert music.auditor.clean, music.auditor.render_report()


def test_locking_serial_order_matches_commit_order():
    """Strict 2PL commits in conflict order, so the commit order itself
    must be a valid serial order."""
    music = build_txn_music(audit=True)
    engine = music.txn.engine("locking")
    run_workload(engine, music)
    checker = SerializabilityChecker()
    assert checker.check(engine.committed) == []
    assert checker.commit_order_serial


def test_locking_waits_for_graph_checked_and_acyclic():
    music = build_txn_music(audit=True)
    engine = music.txn.engine("locking")
    run_workload(engine, music, theta=0.95, key_count=8)
    graph = engine.waits_for
    assert graph is not None
    # Contention actually exercised the checker...
    assert graph.checks > 0
    # ...and lexicographic acquisition kept the graph acyclic.
    assert graph.violations == []
    assert find_cycle(graph.edges()) is None


def test_occ_epochs_sealed_and_store_matches_records():
    music = build_txn_music(audit=True)
    engine = music.txn.engine("occ")
    run_workload(engine, music, theta=0.95, key_count=10)
    assert engine.epoch >= 1
    # Abort accounting: optimistic regime under contention retries.
    assert engine.abort_total == sum(
        count for count in engine.abort_counts.values()
    )
    # Final store state equals the last committed write of each chain.
    last = {}
    for record in sorted(engine.committed, key=lambda r: r.commit_seq):
        for key, stamp in record.writes.items():
            last[key] = stamp
    sim = music.sim
    client = music.client(music.profile.site_names[0])
    mismatches = []

    def read_back():
        for key, stamp in last.items():
            _value, stored = yield from client.txn_read(key)
            if stored != stamp:
                mismatches.append(key)

    sim.run_until_complete(sim.process(read_back()), limit=1e10)
    assert mismatches == []


def test_ssi_reorders_but_stays_serializable():
    """SSI may commit in an order that is not itself serial (an
    rw-antidependent reader can commit after the writer it precedes);
    the checker must still find a valid topological order."""
    music = build_txn_music(audit=True)
    engine = music.txn.engine("ssi")
    results = run_workload(engine, music, theta=0.95, key_count=10)
    assert all(r.committed for r in results)
    checker = SerializabilityChecker()
    assert checker.check(engine.committed) == []


def test_delete_is_a_tombstone_write():
    music = build_txn_music()
    engine = music.txn.engine("locking")
    sim = music.sim
    executor = music.txn.executor(engine)

    class Spec:
        keys = ("del-k",)
        read_keys = ()
        write_keys = ("del-k",)

    def seed_body(txn):
        yield from txn.put("del-k", "live")
        return None

    def delete_body(txn):
        value = yield from txn.get("del-k")
        yield from txn.delete("del-k")
        return value

    def scenario():
        yield from executor.run(Spec(), seed_body)
        result = yield from executor.run(Spec(), delete_body)
        assert result.value == "live"
        final = yield from executor.run(Spec(), lambda txn: txn.get("del-k"))
        return final.value

    assert sim.run_until_complete(sim.process(scenario()), limit=1e10) is None


def test_executor_reports_permanent_failure():
    """An engine that always aborts exhausts the retry budget and the
    executor reports a failed result instead of raising."""
    from repro.txn import RetryPolicy, TxnEngine

    music = build_txn_music()
    sim = music.sim

    class AlwaysAborts(TxnEngine):
        name = "always-aborts"

        def begin(self, client, spec):
            raise TxnAborted("unlucky", "scripted abort")
            yield  # pragma: no cover

    executor = music.txn.executor(
        AlwaysAborts(music), retry=RetryPolicy(max_retries=2)
    )

    class Spec:
        keys = read_keys = ()
        write_keys = ()

    result = sim.run_until_complete(
        sim.process(executor.run(Spec(), lambda txn: iter(()))), limit=1e10
    )
    assert not result.committed
    assert result.attempts == 3
    assert result.aborts == 3
    assert result.abort_reason == "unlucky"

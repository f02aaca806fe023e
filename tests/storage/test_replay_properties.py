"""Property tests: WAL replay is idempotent and order-preserving.

Random operation sequences go through ``StorageEngine.commit`` under
``wal_sync="always"``; a crash must lose nothing, recovery must rebuild
exactly the pre-crash state (order-preserving: later writes still win
their LWW races after replay), and replaying twice must be a no-op
(idempotent).
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.storage import StorageEngine, StorageEngineConfig
from repro.store.types import DeleteRow, Update

from tests.helpers import commit, run

# One logical operation: (kind, clustering key, column, value, timestamp
# tiebreaker).  Small key spaces force overwrites, deletes over live
# rows, and LWW conflicts — the cases where replay order matters.
ops = st.lists(
    st.tuples(
        st.sampled_from(["update", "delete"]),
        st.integers(min_value=0, max_value=3),      # clustering key
        st.sampled_from(["c1", "c2"]),              # column
        st.text(min_size=0, max_size=8),            # value
        st.integers(min_value=0, max_value=5),      # timestamp
    ),
    min_size=1,
    max_size=30,
)


def apply_ops(sim, engine, sequence):
    for i, (kind, ck, col, value, ts) in enumerate(sequence):
        stamp = (float(ts), f"w{i}")
        if kind == "update":
            mutation = Update("t", "p", ck, {col: value}, stamp)
        else:
            mutation = DeleteRow("t", "p", ck, stamp)
        commit(sim, engine, [mutation])


@contextmanager
def build(flush_bytes):
    """A fresh engine whose memtable flushes at ``flush_bytes`` while
    the block runs (a per-example patch: hypothesis cannot take the
    function-scoped ``monkeypatch`` fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StorageEngineConfig, "memtable_flush_bytes", flush_bytes)
        sim = Simulator()
        yield sim, StorageEngine(sim, StorageEngineConfig(wal_sync="always"), node_id="prop")


@settings(max_examples=60, deadline=None)
@given(sequence=ops, flush_bytes=st.sampled_from([1 << 30, 200, 40]))
def test_replay_rebuilds_the_exact_pre_crash_state(sequence, flush_bytes):
    with build(flush_bytes) as (sim, engine):
        apply_ops(sim, engine, sequence)
        before = engine.snapshot()
        engine.crash()
        run(sim, engine.recover())
        assert engine.snapshot() == before


@settings(max_examples=40, deadline=None)
@given(sequence=ops)
def test_replay_is_idempotent(sequence):
    with build(1 << 30) as (sim, engine):
        apply_ops(sim, engine, sequence)
        engine.crash()
        run(sim, engine.recover())
        once = engine.snapshot()
        # Replaying the same log again over the recovered state must
        # change nothing: every record application is a LWW merge.
        for record in engine.wal.records:
            engine._replay(record)
        assert engine.snapshot() == once


@settings(max_examples=40, deadline=None)
@given(sequence=ops)
def test_replay_matches_a_never_crashed_twin(sequence):
    # Order preservation, phrased as an oracle: an engine that crashed
    # and recovered is indistinguishable from one that never did.
    with build(1 << 30) as (sim_a, crashed), build(1 << 30) as (sim_b, pristine):
        apply_ops(sim_a, crashed, sequence)
        crashed.crash()
        run(sim_a, crashed.recover())

        apply_ops(sim_b, pristine, sequence)

        assert crashed.snapshot() == pristine.snapshot()

"""The default path (and even ``deployment.txn`` touched with no
transactions run) must stay bit-identical.

The transaction layer is strictly additive: building the runtime
creates no processes and consumes no randomness, so the golden
simulated timestamps pinned by tests/core/test_fast_locks.py must
reproduce exactly — the same guard CI runs as its identity step."""

from repro import build_music
from tests.core import test_fast_locks
from tests.core.test_fast_locks import (
    GOLDEN_CONTENDED_SEED3,
    GOLDEN_SINGLE,
    _contended_stamps,
    _single_client_stamps,
)


def test_default_build_matches_golden_stamps():
    import repro.txn  # noqa: F401 - merely importable must change nothing

    assert _single_client_stamps(3) == GOLDEN_SINGLE
    assert _contended_stamps(3) == GOLDEN_CONTENDED_SEED3


def test_touching_the_txn_runtime_keeps_the_golden_stamps(monkeypatch):
    def build_and_touch(**kwargs):
        music = build_music(**kwargs)
        assert music.txn._engines == {}
        return music

    monkeypatch.setattr(test_fast_locks, "build_music", build_and_touch)
    assert _single_client_stamps(3) == GOLDEN_SINGLE
    assert _contended_stamps(3) == GOLDEN_CONTENDED_SEED3


def test_txn_runtime_attaches_without_touching_the_simulator():
    music = build_music(seed=3)
    runtime = music.txn
    assert music.txn is runtime
    # No engines built, no processes spawned, no events scheduled by
    # the runtime itself.
    assert runtime._engines == {}
    assert music.sim.now == 0.0


def test_txn_default_is_unbuilt():
    music = build_music(seed=3)
    assert music._txn is None

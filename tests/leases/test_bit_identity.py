"""``read_leases=False`` must leave the default path bit-identical.

The lease tier is strictly additive: with the knob off (the default),
no extra clock reads, RPCs, timeouts, or audit events happen, so the
golden simulated timestamps pinned by tests/core/test_fast_locks.py
must reproduce exactly — the same guard CI runs as its identity step.
"""

from repro import build_music
from repro.leases import NULL_LEASES
from tests.core.test_fast_locks import (
    GOLDEN_CONTENDED_SEED3,
    GOLDEN_SINGLE,
    _contended_stamps,
    _single_client_stamps,
)


def test_default_build_matches_golden_stamps():
    assert _single_client_stamps(3) == GOLDEN_SINGLE
    assert _contended_stamps(3) == GOLDEN_CONTENDED_SEED3


def test_explicit_read_leases_false_is_the_default_path():
    music = build_music(seed=3, read_leases=False)
    # The knob stayed off and no lease machinery was even constructed:
    # both tiers are the stateless null object.
    assert music.config.read_leases is False
    for replica in music.replicas:
        assert replica.lease_manager is NULL_LEASES
        assert replica.read_cache is NULL_LEASES

"""Gossip membership: dissemination, status changes, phi suspicion."""

import pytest

from repro.core import build_music
from repro.topo import STATUS_LEAVING, STATUS_NORMAL, gossip
from tests.helpers import broken_rpc


def make_elastic(seed=5, **kwargs):
    return build_music(elastic=True, seed=seed, **kwargs)


def test_membership_converges_to_all_normal():
    music = make_elastic()
    music.sim.run(until=15_000.0)
    members = {r.node_id for r in music.store.replicas}
    for node_id, gossiper in music.topology.gossipers.items():
        assert set(gossiper.states) == members
        for state in gossiper.states.values():
            assert state.status == STATUS_NORMAL
        # Heartbeats observed from every peer.
        for peer in members - {node_id}:
            assert gossiper.states[peer].version > 0


def test_status_change_propagates():
    music = make_elastic()
    music.sim.run(until=5_000.0)
    music.topology.gossipers["store-2-0"].set_status(STATUS_LEAVING)
    music.sim.run(until=20_000.0)
    for gossiper in music.topology.gossipers.values():
        assert gossiper.states["store-2-0"].status == STATUS_LEAVING


def test_phi_accrues_on_silent_peer_and_resets_on_recovery(monkeypatch):
    monkeypatch.setattr(gossip, "PHI_THRESHOLD", 4.0)
    music = make_elastic()
    sim = music.sim
    sim.run(until=20_000.0)  # learn the normal heartbeat cadence
    observer = music.topology.gossipers["store-0-0"]
    assert observer.suspects == []

    music.network.fail_node("store-2-0")
    sim.run(until=60_000.0)
    assert observer.phi("store-2-0") > 4.0
    assert "store-2-0" in observer.suspects
    # A live peer stays unsuspected.
    assert "store-1-0" not in observer.suspects

    music.network.recover_node("store-2-0")
    sim.run(until=75_000.0)
    assert observer.suspects == []


def test_a_bug_in_a_gossip_round_fails_the_run():
    """Only a silent peer (RpcTimeout) is ridden out — the phi test
    above; anything else raised by a round is a bug, not suspicion."""
    music = make_elastic()
    music.sim.run(until=5_000.0)
    music.store.by_id["store-0-0"].call = broken_rpc
    with pytest.raises(TypeError, match="bug on the RPC path"):
        music.sim.run(until=20_000.0)


def test_gossip_is_deterministic():
    def states(seed):
        music = make_elastic(seed=seed)
        music.sim.run(until=12_000.0)
        return {
            node_id: sorted(
                (s.node_id, s.generation, s.version, s.status)
                for s in g.states.values()
            )
            for node_id, g in music.topology.gossipers.items()
        }

    assert states(9) == states(9)


def test_default_deployment_builds_no_topology_plane():
    music = build_music()
    assert music.topology is None
    # No gossip traffic, no extra node: the topology id is unregistered.
    assert "topo-0" not in music.network.node_ids()

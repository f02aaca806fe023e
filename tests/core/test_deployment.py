"""Tests for the deployment builder itself."""

from dataclasses import replace

import pytest

from repro.core import MusicConfig, build_music
from repro.net import PAPER_PROFILES, Network
from repro.obs import NULL_OBS, Observability
from repro.sim import RandomStreams, Simulator
from repro.storage import StorageEngineConfig
from repro.store import StoreConfig
from tests.helpers import run


def test_default_deployment_shape():
    music = build_music()
    assert len(music.replicas) == 3
    assert len(music.store.replicas) == 3
    assert {r.site for r in music.replicas} == set(music.profile.site_names)
    assert music.detectors == []  # detection off by default


def test_failure_detection_flag_starts_detectors():
    music = build_music(music_config=MusicConfig(failure_detection_enabled=True))
    assert len(music.detectors) == 3


def test_nodes_per_site_scales_store():
    music = build_music(nodes_per_site=3)
    assert len(music.store.replicas) == 9
    for site in music.profile.site_names:
        assert len(music.store.replicas_in_site(site)) == 3


def test_replica_at_unknown_site_raises():
    music = build_music()
    with pytest.raises(KeyError):
        music.replica_at("Atlantis")


def test_client_ids_are_unique_per_site():
    music = build_music()
    a = music.client("Ohio")
    b = music.client("Ohio")
    assert a.client_id != b.client_id
    named = music.client("Ohio", "my-client")
    assert named.client_id == "my-client"


def test_client_prefers_local_replica():
    music = build_music()
    client = music.client("Oregon")
    assert client.replica.site == "Oregon"
    music.replica_at("Oregon").crash()
    # Failover order: next nearest (N.California is 24.2ms from Oregon).
    assert client.replica.site == "N.California"


def test_profiles_respected():
    music = build_music(profile_name="lUsEu")
    assert "Frankfurt" in music.profile.site_names
    with pytest.raises(KeyError):
        build_music(profile_name="not-a-profile")


def test_custom_config_propagates():
    config = MusicConfig(period_ms=123_456.0)
    music = build_music(music_config=config)
    assert all(r.config.period_ms == 123_456.0 for r in music.replicas)
    assert music.client("Ohio").config.period_ms == 123_456.0


def test_music_replicas_have_distinct_ids():
    music = build_music(music_replicas_per_site=2)
    ids = [r.node_id for r in music.replicas]
    assert len(ids) == len(set(ids)) == 6


def test_keyword_sugar_never_writes_the_callers_configs():
    """``build_music`` resolves its keywords onto copies: one config
    object can seed a features-on deployment and then a features-off one."""
    music_config = MusicConfig(fast_locks=True, failure_detection_enabled=True)
    store_config = StoreConfig(storage=StorageEngineConfig(wal_sync="periodic"))
    asked_music, asked_store = replace(music_config), replace(store_config)
    first = build_music(
        music_config=music_config, store_config=store_config,
        read_leases=True, anti_entropy=True,
    )
    assert first.config.push_grants and first.config.read_leases
    assert first.config.fast_locks
    assert first.config.failure_detection_enabled and first.detectors
    assert first.store.config.anti_entropy_enabled
    assert first.store.config.storage.wal_sync == "periodic"

    assert music_config == asked_music
    assert store_config == asked_store

    second = build_music(music_config=music_config, store_config=store_config)
    assert second.config == music_config
    assert second.config is not music_config
    assert not second.config.read_leases
    assert not second.store.config.anti_entropy_enabled  # the keyword's default
    assert second.store.config.storage == store_config.storage


def _one_critical_section(music):
    client = music.client("Ohio")

    def body():
        section = yield from client.critical_section("k")
        yield from section.put(1)
        yield from section.exit()

    run(music.sim, body())


def _callers_network(observed=False):
    sim = Simulator()
    network = Network(
        sim, PAPER_PROFILES["lUs"], streams=RandomStreams(3),
        jitter_fraction=0.05, obs=Observability(sim) if observed else None,
    )
    return sim, network


def test_audit_alone_on_a_passed_in_network_reaches_every_node():
    """The ``ycsb_*`` shape: the caller builds the (jittered) network.
    The audit-only recorder must be on it before any node reads it."""
    sim, network = _callers_network()
    music = build_music(sim=sim, network=network, audit=True)
    assert network.obs is music.obs is not NULL_OBS
    assert not music.obs.tracer.enabled and music.obs.audit is music.auditor
    nodes = music.store.replicas + music.replicas
    assert all(node.obs is music.obs for node in nodes)
    _one_critical_section(music)
    assert music.auditor.events and music.auditor.clean
    assert music.obs.tracer.spans == []
    assert NULL_OBS.audit.events == []  # the shared default stayed inert
    with pytest.raises(ValueError):
        NULL_OBS.attach_audit(music.auditor)


@pytest.mark.parametrize("obs", [None, True])
def test_audit_on_an_already_observed_network_joins_its_recorder(obs):
    """No second recorder is built beside the one the network's nodes
    read: the stream attaches to that one, span ids and all."""
    sim, network = _callers_network(observed=True)
    theirs = network.obs
    music = build_music(sim=sim, network=network, obs=obs, audit=True)
    assert network.obs is music.obs is theirs
    assert theirs.audit is music.auditor
    _one_critical_section(music)
    # Every node registered the one network: its sends count once.
    assert music.obs.metrics.total("net.messages") == network.stats.sent
    assert music.auditor.events and music.auditor.clean
    assert all(event.span_id is not None for event in music.auditor.events)


def test_a_second_recorder_for_an_observed_network_is_refused():
    """The network's nodes read the recorder it carries, so a different
    one passed beside it could never record: it is refused, not ignored."""
    sim, network = _callers_network(observed=True)
    with pytest.raises(ValueError):
        build_music(sim=sim, network=network, obs=Observability(sim))
    assert build_music(sim=sim, network=network, obs=network.obs).obs is network.obs

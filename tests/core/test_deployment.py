"""Tests for the deployment builder itself."""

from dataclasses import replace

import pytest

from repro.core import MusicConfig, build_music
from repro.storage import StorageEngineConfig
from repro.store import StoreConfig


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

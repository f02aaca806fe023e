"""Subprocess clusters and the CLI surface.

One real end-to-end run: N OS processes booted via ``python -m
repro.live node``, the audited workload driven from this process over
real sockets, SIGTERM teardown (the graceful-drain path), audit slices
merged and replayed.  Plus the config-file round trips behind
``python -m repro.live init/node``.
"""

import json
import re
import sys

import pytest

from repro.live import load_cluster, run_localcluster, toml_skeleton
from repro.live.__main__ import main as live_main

from .conftest import free_port_block, make_spec


def test_process_cluster_end_to_end(tmp_path):
    summary = run_localcluster(
        n_nodes=3,
        n_clients=2,
        keys=["pc-key"],
        rounds=3,
        seed=5,
        base_port=free_port_block(3),
        run_dir=str(tmp_path / "run"),
        timeout_s=120.0,
    )
    assert summary["ok"], summary
    assert summary["exit_codes"] == [0, 0, 0]  # SIGTERM drained gracefully
    assert summary["violations"] == []
    assert summary["metrics"]["completed_cs"] == 6.0
    assert summary["final_values"] == {"pc-key": 6}
    assert summary["audited_events"] > 0
    # The run leaves its evidence on disk: one audit slice per node.
    for name in ("n0", "n1", "n2"):
        assert (tmp_path / "run" / f"audit-{name}.jsonl").exists()


def test_init_emits_loadable_toml(tmp_path, capsys):
    out = tmp_path / "cluster.toml"
    code = live_main(["init", "--out", str(out), "--nodes", "3"])
    assert code == 0
    text = out.read_text()
    assert "[[node]]" in text and "epoch" in text
    if sys.version_info >= (3, 11):
        spec = load_cluster(out)
        assert len(spec.nodes) == 3
        assert spec.epoch > 0


def test_json_config_round_trip(tmp_path):
    spec = make_spec(n_nodes=2, seed=9, tmp_path=tmp_path)
    path = spec.write_json(tmp_path / "cluster.json")
    loaded = load_cluster(path)
    assert loaded.to_dict() == spec.to_dict()
    assert loaded.music_ids == spec.music_ids
    assert loaded.site_names == spec.site_names


def test_config_rejects_missing_epoch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cluster": {"name": "x"}, "node": []}))
    with pytest.raises(ValueError, match="epoch"):
        load_cluster(path)


def test_config_rejects_unknown_tunable(tmp_path):
    # Only fields are tunables: a name the config merely *has* (a
    # derived property, a method, a calibration constant) is rejected
    # the same way.
    cases = [
        ("music", name)
        for name in ("no_such_knob", "push_grants", "__eq__", "acquire_poll_interval_ms")
    ]
    cases += [("store", "read_service_ms"), ("store", "hint_ttl_ms")]
    for section, name in cases:
        spec = make_spec(n_nodes=2, tmp_path=tmp_path)
        getattr(spec, section)[name] = 1
        with pytest.raises(KeyError, match=rf"\[{section}\] has no tunable '{name}'"):
            getattr(spec, f"{section}_config")()


def test_toml_skeleton_reflects_spec():
    spec = make_spec(n_nodes=2, name="skeltest", seed=42)
    text = toml_skeleton(spec)
    assert 'name = "skeltest"' in text
    assert "seed = 42" in text
    assert text.count("[[node]]") == 2


@pytest.mark.skipif(sys.version_info < (3, 11), reason="TOML needs stdlib tomllib")
def test_toml_skeleton_examples_are_tunables(tmp_path):
    """Every commented example line of the skeleton, un-commented,
    loads and builds both configs: the examples name real fields."""
    example = re.compile(r"^# (\w+ = .+)$", re.MULTILINE)
    text = toml_skeleton(make_spec(n_nodes=2, tmp_path=tmp_path))
    assert len(example.findall(text)) == 2
    path = tmp_path / "cluster.toml"
    path.write_text(example.sub(r"\1", text))
    spec = load_cluster(path)
    assert spec.music == {"fast_locks": True} and spec.store == {"replication_factor": 3}
    assert spec.music_config().fast_locks
    assert spec.store_config().replication_factor == 3

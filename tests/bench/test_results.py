"""The unified BENCH_*.json envelope: round-trip and validation."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    bench_record,
    load_bench_json,
    write_bench_json,
)
from repro.bench import results


def test_record_envelope_shape():
    record = bench_record(
        "contention", config={"scale": "quick", "clients": 16},
        seed=606, metrics={"speedup": 2.0},
    )
    assert record["schema"] == BENCH_SCHEMA
    assert record["name"] == "contention"
    assert record["seed"] == 606
    assert record["timestamp"] is None  # the writer adds nothing implicit
    assert record["config"]["clients"] == 16
    assert record["metrics"]["speedup"] == 2.0


def test_write_and_load_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(results, "results_dir", lambda: tmp_path)
    target = write_bench_json(
        "demo", config={"scale": "quick"}, seed=1, metrics={"x": 1},
    )
    assert target == tmp_path / "BENCH_demo.json"
    loaded = load_bench_json(target)
    assert loaded == bench_record(
        "demo", config={"scale": "quick"}, seed=1, metrics={"x": 1},
    )


def test_write_is_deterministic(tmp_path, monkeypatch):
    """Same data twice -> byte-identical file (committed baselines stay
    diff-clean)."""
    monkeypatch.setattr(results, "results_dir", lambda: tmp_path)
    kwargs = dict(config={"a": 1}, seed=2, metrics={"m": 3.5}, timestamp=10.0)
    first = write_bench_json("demo", **kwargs).read_bytes()
    second = write_bench_json("demo", **kwargs).read_bytes()
    assert first == second


def test_load_rejects_foreign_schema(tmp_path):
    alien = tmp_path / "BENCH_old.json"
    alien.write_text(json.dumps({"speedup": 2.0}))
    with pytest.raises(ValueError, match="repro.bench/v1"):
        load_bench_json(alien)


def test_committed_results_carry_the_schema():
    """Every committed BENCH_*.json in the repo is on the v1 envelope."""
    committed = sorted(results.results_dir().glob("BENCH_*.json"))
    assert committed, "no committed benchmark results found"
    for path in committed:
        document = load_bench_json(path)
        assert document["schema"] == BENCH_SCHEMA
        assert document["name"]


def test_committed_e2e_fingerprints_cover_every_gated_workload():
    """CI's e2e-smoke job compares ``run.py --label ci`` against
    ``e2e_fingerprints.json``: it must name exactly the sim workloads
    BENCHMARK.json declares, each with a 16-hex-digit fingerprint."""
    import re

    baseline = json.loads((results.results_dir() / "e2e_fingerprints.json").read_text())
    spec = json.loads((results.results_dir().parents[1] / "BENCHMARK.json").read_text())
    assert set(baseline["fingerprints"]) == {w["name"] for w in spec["workloads"]}
    assert all(
        re.fullmatch(r"[0-9a-f]{16}", fingerprint)
        for fingerprint in baseline["fingerprints"].values()
    )
    assert (baseline["seed"], baseline["scale"]) == (0, "full")

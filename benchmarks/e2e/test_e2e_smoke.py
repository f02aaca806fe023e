"""Smoke test of the benchmark itself: every workload and one traced
pass at ``--scale tiny``, in-process, writing only under ``tmp_path``.

It guards the contract between ``run.py`` and ``BENCHMARK.json`` (the
emitted metric names are exactly the declared ones), the determinism
the exact metrics rely on (two runs of one seed agree bit for bit),
that a wrong output actually fails the command, and that ``--compare``
reports a regression or a changed sim fingerprint.
"""

import json
import re

import pytest

from benchmarks.e2e import run as e2e
from benchmarks.e2e import workloads
from benchmarks.e2e.compare import compare

SPEC = e2e.load_spec()
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
# Simulated-clock metrics: exact for a seed.
EXACT = ("op_p50_ms", "op_p90_ms", "clock_ops_per_s", "attempts_per_op")


def run_command(capsys, tmp_path, *argv):
    """``run.py <argv>`` at tiny scale; returns (exit code, last-line JSON)."""
    code = e2e.main([
        *argv, "--scale", "tiny", "--seconds", "0", "--out-dir", str(tmp_path),
    ])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_and_limits():
    names = END_TO_END + PER_LAYER + [entry["name"] for entry in SPEC["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(set(names)) == len(names)
    assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    assert "setup_s" in END_TO_END
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert [entry["name"] for entry in SPEC["workloads"]] == [
        name for name in workloads.WORKLOADS if name not in workloads.UNGATED
    ]
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_the_declared_metrics_and_repeats_exactly(name, capsys, tmp_path):
    code, result = run_command(capsys, tmp_path, "--workload", name)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if workloads.is_live(name):
        return
    first = json.loads((tmp_path / f"run-{name}-trace0.json").read_text())
    code, again = run_command(capsys, tmp_path, "--workload", name)
    second = json.loads((tmp_path / f"run-{name}-trace0.json").read_text())
    assert code == 0
    assert first["fingerprint"] == second["fingerprint"]
    for metric in EXACT:
        assert result["metrics"][metric] == again["metrics"][metric]


def test_traced_pass_emits_every_per_layer_metric(capsys, tmp_path):
    code, result = run_command(
        capsys, tmp_path, "--workload", "contention16", "--trace", "1"
    )
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == PER_LAYER
    assert result["metrics"]["sim.events_per_op"]["value"] > 0
    assert result["metrics"]["live.codec_encode_us"]["value"] > 0
    assert (tmp_path / "trace-contention16.jsonl").stat().st_size > 0


def test_a_wrong_final_counter_fails_the_command(capsys, tmp_path, monkeypatch):
    honest = workloads.final_counter
    monkeypatch.setattr(
        workloads, "final_counter", lambda deployment, key: honest(deployment, key) + 1
    )
    code, result = run_command(capsys, tmp_path, "--workload", "contention16")
    assert code == 1 and result["correct"] is False


def _result_file(ops_per_s, fingerprint="f00d"):
    samples = {metric: [1.0] for metric in END_TO_END}
    samples["ops_per_s"] = ops_per_s
    run = {"samples": samples, "fingerprint": fingerprint}
    return {"label": "x", "seed": 0, "workloads": {"contention16": run}}


def test_compare_flags_a_regression_and_a_fingerprint_change():
    base = _result_file([100.0, 101.0, 99.0])
    _lines, regressed, agree = compare(base, _result_file([98.0, 99.0, 100.0]), SPEC["end_to_end"])
    assert not regressed and agree
    _lines, regressed, agree = compare(base, _result_file([60.0, 61.0, 62.0]), SPEC["end_to_end"])
    assert regressed and not agree
    _lines, regressed, agree = compare(base, _result_file([160.0, 161.0, 162.0]), SPEC["end_to_end"])
    assert not regressed and not agree
    lines, regressed, agree = compare(
        base, _result_file([100.0, 101.0, 99.0], fingerprint="beef"), SPEC["end_to_end"]
    )
    assert regressed and not agree and "fingerprint differs" in lines[-1]

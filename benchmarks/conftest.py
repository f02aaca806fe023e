"""Shared plumbing for the figure-regeneration benchmarks.

Each benchmark regenerates one scenario of the :mod:`repro.bench`
registry by id: ``regenerate("<id>")`` runs it exactly once through
:func:`repro.bench.run_experiment` under pytest-benchmark timing,
asserts the scenario's shape checks, and writes the rendered table to
``benchmarks/results/<id>.txt`` so a full run leaves the regenerated
figures on disk.  Every registered id has exactly one such call
(``tests/bench/test_registry.py``).  Those tables are simulated-clock
numbers, byte-stable from run to run; a scenario that reports wall-clock
numbers names its own ``results_dir`` (a ``tmp_path``) so the suite
leaves ``git status`` clean.  Extra per-figure asserts live in the
``test_*.py`` files, on ``result.data``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench import run_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def regenerate(benchmark, monkeypatch):
    """Run an experiment once under the benchmark timer; verify shape.

    ``results_dir`` sends everything the run writes — the rendered table
    and the experiment's own ``BENCH_*.json`` — somewhere else than the
    committed ``benchmarks/results/``.
    """

    def runner(exp_id: str, results_dir: pathlib.Path = RESULTS_DIR):
        if results_dir != RESULTS_DIR:
            monkeypatch.setattr("repro.bench.results.results_dir", lambda: results_dir)
        result = benchmark.pedantic(
            lambda: run_experiment(exp_id), rounds=1, iterations=1
        )
        results_dir.mkdir(exist_ok=True)
        report = result.text + "\n" + result.check_report() + "\n"
        (results_dir / f"{exp_id}.txt").write_text(report)
        failed = [desc for desc, ok in result.checks if not ok]
        assert result.ok, (
            f"{exp_id}: shape checks failed: {failed}\n{result.text}"
        )
        return result

    return runner

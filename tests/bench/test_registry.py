"""The scenario-registry contract: every experiment is regenerated,
guarded and documented by id, and the runner keeps no state."""

import pathlib
import re

import pytest

from repro.bench import EXPERIMENTS, results_dir
from repro.bench.__main__ import main

REPO = results_dir().parents[1]
IDS = sorted(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", IDS)
def test_scenario_is_regenerated_and_guarded(exp_id):
    """A committed table, and a benchmarks/ test that regenerates it."""
    assert (results_dir() / f"{exp_id}.txt").exists()
    calls = [
        path.name for path in (REPO / "benchmarks").glob("test_*.py")
        if re.search(rf'regenerate\(\s*"{exp_id}"', path.read_text())
    ]
    assert len(calls) == 1, f"regenerate({exp_id!r}) called from {calls}"


def _design_index() -> str:
    design = (REPO / "DESIGN.md").read_text()
    start = design.index("\n### Per-experiment index")
    return design[start:design.index("\n#", start + 1)]


@pytest.mark.parametrize("exp_id", IDS)
def test_scenario_is_documented_by_id(exp_id):
    named = re.compile(rf"`{exp_id}`")
    assert named.search((REPO / "EXPERIMENTS.md").read_text()), "EXPERIMENTS.md"
    assert named.search(_design_index()), "DESIGN.md, Per-experiment index"


def test_every_bench_file_is_named_by_exactly_one_scenario():
    committed = sorted(
        path.name for path in results_dir().glob("BENCH_*.json")
        if path.name != "BENCH_simcore.json"  # frozen history, no writer
    )
    declared = sorted(
        f"BENCH_{scenario.bench}.json"
        for scenario in EXPERIMENTS.values() if scenario.bench is not None
    )
    assert declared == committed


def test_every_committed_table_is_named_by_a_scenario():
    orphans = [
        path.name for path in results_dir().glob("*.txt") if path.stem not in EXPERIMENTS
    ]
    assert orphans == []


def test_full_presets_only_override_quick_ones():
    """A scenario reads its own preset and nothing else, so every
    parameter must exist at the default scale."""
    for scenario in EXPERIMENTS.values():
        assert set(scenario.full) <= set(scenario.quick), scenario.id


def test_list_prints_one_documented_line_per_id(capsys):
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(EXPERIMENTS)
    for line in lines:
        doc = line.split(None, 1)[1]
        assert doc.endswith(".") and len(doc) > 20, line


def _bench_module_state():
    import sys

    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "repro.bench" or name.startswith("repro.bench.")
        for attr, value in vars(module).items()
        if not attr.startswith("__")
    }


def test_audit_adds_one_check_and_leaves_no_state(capsys):
    before = _bench_module_state()
    assert main(["--audit", "ablation_sync"]) == 0
    audited = capsys.readouterr().out
    assert audited.count("ECF audit clean") == 1
    assert "ECF audit clean (2 audited deployment(s))" in audited
    after = _bench_module_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert main(["ablation_sync"]) == 0
    assert "ECF audit clean" not in capsys.readouterr().out


def test_regenerated_table_is_the_committed_one():
    """The byte-identity oracle, on the cheapest scenario."""
    from repro.bench import run_experiment

    result = run_experiment("xb4")
    report = result.text + "\n" + result.check_report() + "\n"
    assert report == pathlib.Path(results_dir() / "xb4.txt").read_text()


def test_adding_an_axis_shows_the_real_scenario():
    """EXPERIMENTS.md demonstrates the ~30-line claim on fig7a: its
    listing is the source, not a paraphrase of it."""
    import inspect

    text = (REPO / "EXPERIMENTS.md").read_text()
    section = text[text.index("\n## Adding an axis"):]
    listing = section.split("```python\n", 1)[1].split("```", 1)[0]
    source = inspect.getsource(EXPERIMENTS["fig7a"].body)
    assert listing == source
    assert len(source.splitlines()) <= 30

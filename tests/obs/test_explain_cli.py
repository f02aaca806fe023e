"""``python -m repro.obs explain`` explains the protocol a deployment
runs by default (the contention hot path), its ``node@site`` column can
name the site of every Paxos round it lists, and the span dump it writes
reads back to the same tables."""

from repro.core import build_music
from repro.obs import export, write_audit_jsonl
from repro.obs.__main__ import main


def test_explain_runs_the_default_protocol_and_every_paxos_span_has_a_site(
    tmp_path, capsys
):
    dump = tmp_path / "spans.jsonl"
    assert main(["explain", "--clients", "2", "--rounds", "1", "--jsonl", str(dump)]) == 0
    assert "fast_locks=on" in capsys.readouterr().out
    paxos = [span for span in export.load_jsonl(str(dump)) if span.name.startswith("paxos.")]
    assert paxos, "the workload ran no traced Paxos round"
    unsited = sorted({span.name for span in paxos if not span.site})
    assert not unsited, f"paxos spans without a site: {unsited}"


def test_bare_options_run_explain(capsys):
    assert main(["--clients", "1", "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "fast_locks=on" in out and "clean audit" in out


def test_explain_polling_runs_the_papers_protocol(capsys):
    assert main(["explain", "--clients", "2", "--rounds", "1", "--polling"]) == 0
    assert "fast_locks=off" in capsys.readouterr().out


def _tables(out):
    """The explain table through the phase table's attribution line."""
    lines = out.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("slowest "))
    last = next(i for i, line in enumerate(lines) if line.startswith("attribution: "))
    return lines[first:last + 1]


def test_a_span_dump_reads_back_to_the_runs_own_tables(tmp_path, capsys):
    """The span JSONL is the one dump of a run's timing: ``explain
    --spans`` over it prints the explain and phase tables the run did."""
    dump = str(tmp_path / "spans.jsonl")
    assert main(["explain", "--clients", "4", "--rounds", "2", "--jsonl", dump]) == 0
    ran = _tables(capsys.readouterr().out)
    assert main(["explain", "--spans", dump]) == 0
    assert _tables(capsys.readouterr().out) == ran


def test_an_audit_dump_rechecks_clean(tmp_path, capsys):
    """``explain``'s own run is audited: it reports the audit, dumps the
    history, and ``audit`` re-checks that dump clean."""
    history = str(tmp_path / "audit.jsonl")
    assert main(["explain", "--clients", "1", "--rounds", "2", "--audit-jsonl", history]) == 0
    assert "clean audit: all ECF invariants held" in capsys.readouterr().out
    assert main(["audit", history]) == 0
    assert "clean audit: all ECF invariants held" in capsys.readouterr().out


def test_a_file_that_is_not_the_dump_asked_for_is_a_one_line_error(tmp_path, capsys):
    """Both commands read spans through the CLI's one loader, so a wrong
    file is a one-line error, not a traceback; so is an audit history
    whose lines are not objects."""
    history = str(tmp_path / "audit.jsonl")
    write_audit_jsonl(build_music(audit=True).auditor, history)
    assert main(["audit", history, "--spans", history]) == 1
    assert f"{history} is not a span JSONL dump" in capsys.readouterr().err
    assert main(["explain", "--spans", history]) == 1
    assert f"{history} is not a span JSONL dump" in capsys.readouterr().err
    listed = tmp_path / "lists.jsonl"
    listed.write_text("[1, 2]\n")
    assert main(["audit", str(listed)]) == 1
    assert f"{listed} is not an audit JSONL dump" in capsys.readouterr().err


def test_metrics_on_a_span_dump_prints_the_phase_histograms(tmp_path, capsys):
    dump = str(tmp_path / "spans.jsonl")
    assert main(["explain", "--clients", "1", "--rounds", "2", "--metrics", "--jsonl", dump]) == 0
    ran = capsys.readouterr().out
    assert "crit.phase_ms" in ran and "net.messages" in ran
    assert main(["explain", "--spans", dump, "--metrics"]) == 0
    read = capsys.readouterr().out
    assert "crit.phase_ms" in read and "net.messages" not in read

"""``python -m repro.obs explain`` explains the protocol a deployment
runs by default (the contention hot path), and its ``node@site`` column
can name the site of every Paxos round it lists."""

from repro.obs import export
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


def test_explain_polling_runs_the_papers_protocol(capsys):
    assert main(["explain", "--clients", "2", "--rounds", "1", "--polling"]) == 0
    assert "fast_locks=off" in capsys.readouterr().out

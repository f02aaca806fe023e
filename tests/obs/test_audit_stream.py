"""The audit stream on its own: what it does with no checker subscribed,
what emission costs per event, and the slice-merging ``audit`` command."""

import io

from repro import build_music
from repro.obs import (
    AuditEvent,
    AuditStream,
    ECFAuditor,
    load_audit_jsonl,
    write_audit_jsonl,
)
from repro.obs.__main__ import main as obs_main
from tests.helpers import run

T = 1_000.0


def violating_history(stream):
    """A duplicate mint and a criticalPut by a never-granted lockRef."""
    stream.emit("enqueue", key="k", node="n0", lock_ref=1)
    stream.emit("enqueue", key="k", node="n0", lock_ref=1)
    stream.emit("critical_put", key="k", node="n0", lock_ref=7,
                stamp=(7 * T + 1.0, "n0"), value="x")


def test_a_stream_with_no_checker_records_everything_and_files_nothing():
    stream = AuditStream(period_ms=T)
    violating_history(stream)
    assert [event.kind for event in stream.events] == [
        "enqueue", "enqueue", "critical_put",
    ]
    assert stream.clean and stream.violations == [] and stream.counters == {}
    assert "clean audit" in stream.render_report()
    # The same events through a stream that has the checker subscribed.
    replayed = ECFAuditor.replay(stream.events, period_ms=T)
    assert type(replayed) is AuditStream
    assert replayed.violation_counts == {"LockQueueFIFO": 1, "Exclusivity": 1}


def test_subscribers_see_every_event_in_subscription_order():
    stream = AuditStream()
    seen = []
    stream.subscribe(lambda event: seen.append(("first", event.seq)))
    stream.subscribe(lambda event: seen.append(("second", event.seq)))
    stream.emit("enqueue", key="k", lock_ref=1)
    stream.ingest(AuditEvent(seq=9, t_ms=0.0, kind="lwt", key=None, node=None,
                             lock_ref=None, stamp=None, trace_id=None, span_id=None))
    assert seen == [("first", 1), ("second", 1), ("first", 9), ("second", 9)]
    stream.emit("enqueue", key="k", lock_ref=2)
    assert stream.events[-1].seq == 10  # emission resumes after an ingested seq


def test_a_clean_audited_run_formats_no_event(monkeypatch):
    """Trace labels are rendered when a violation is filed, never per
    event: with ``label`` booby-trapped a clean audited run completes."""

    def boom(self):
        raise AssertionError("an event label was rendered on a clean run")

    monkeypatch.setattr(AuditEvent, "label", boom)
    music = build_music(seed=2, audit=True)
    client = music.client("Ohio")

    def workload():
        for index in range(3):
            section = yield from client.critical_section(f"key-{index % 2}")
            yield from section.put(index)
            yield from section.get()
            yield from section.exit()

    run(music.sim, workload())
    # Per section: enqueue, the mint's lwt, grant, critical_put,
    # critical_get and release (a quorum delete: no lwt); the two first
    # sections on a key read the synchFlag.
    assert len(music.auditor.events) == 3 * 6 + 2
    music.auditor.assert_clean()


def test_audit_command_merges_the_slices_of_one_run(tmp_path, capsys):
    """``python -m repro.obs audit a.jsonl b.jsonl``: two processes each
    saw half of a duplicate mint — clean apart, flagged merged."""
    paths = []
    for index, t_ms in enumerate((5.0, 3.0)):
        stream = AuditStream(period_ms=T)
        stream.ingest(AuditEvent(
            seq=1, t_ms=t_ms, kind="enqueue", key="k", node=f"n{index}",
            lock_ref=1, stamp=None, trace_id=None, span_id=None,
        ))
        paths.append(str(tmp_path / f"audit-n{index}.jsonl"))
        write_audit_jsonl(stream, paths[-1])

    for path in paths:
        assert obs_main(["audit", path]) == 0
    capsys.readouterr()
    assert obs_main(["audit", *paths]) == 1
    report = capsys.readouterr().out
    assert "ECF audit: 2 events over 1 key(s), 1 violation(s)" in report
    # Merged on the shared clock: n1's earlier mint comes first.
    assert "after: t=3.0 enqueue(ref=1, @n1) -> t=5.0 enqueue(ref=1, @n0)" in report


def test_audit_dump_format_is_the_parents(tmp_path):
    """The meta line and one sorted-key object per event, with values
    JSON cannot express written as their repr — dumps written before the
    codecs were merged still load, and new ones read the same."""
    stream = AuditStream(period_ms=T)
    stream.emit("critical_put", key="k", node="n0", lock_ref=1,
                stamp=(T + 1.0, "n0"), value={1, 2})
    buffer = io.StringIO()
    write_audit_jsonl(stream, buffer)
    meta, line = buffer.getvalue().splitlines()
    assert meta == '{"kind": "_meta", "period_ms": 1000.0}'
    assert line == (
        '{"fields": {"value": "{1, 2}"}, "key": "k", "kind": "critical_put", '
        '"lock_ref": 1, "node": "n0", "seq": 1, "span_id": null, '
        '"stamp": [1001.0, "n0"], "t_ms": 0.0, "trace_id": null}'
    )
    buffer.seek(0)
    events, period_ms = load_audit_jsonl(buffer)
    assert period_ms == T and events[0].stamp == (1001.0, "n0")

"""Exporters: JSONL round-trip, Chrome trace validity."""

import io
import json

from repro.obs import (
    SpanRecord,
    chrome_trace_events,
    load_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def _sample_spans():
    #   op [0, 100] on client
    #     phase.a [0, 40]  on node-1
    #     phase.b [40, 90] on node-2
    return [
        SpanRecord(1, 1, None, "op", "client", "Ohio", 0.0, 100.0, {"key": "k"}),
        SpanRecord(1, 2, 1, "phase.a", "node-1", "Ohio", 0.0, 40.0, {}),
        SpanRecord(1, 3, 1, "phase.b", "node-2", "Oregon", 40.0, 90.0, {}),
    ]


def test_jsonl_round_trip():
    spans = _sample_spans()
    buffer = io.StringIO()
    write_jsonl(spans, buffer)
    buffer.seek(0)
    restored = load_jsonl(buffer)
    assert restored == spans


def test_jsonl_file_round_trip(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    write_jsonl(_sample_spans(), path)
    assert load_jsonl(path) == _sample_spans()


def test_chrome_trace_round_trips_through_json():
    spans = _sample_spans()
    document = io.StringIO()
    write_chrome_trace(spans, document)
    parsed = json.loads(document.getvalue())

    events = parsed["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    metadata = [event for event in events if event["ph"] == "M"]
    assert len(complete) == len(spans)
    # Millisecond sim time scales to microsecond trace time.
    op = next(event for event in complete if event["name"] == "op")
    assert op["ts"] == 0.0 and op["dur"] == 100_000.0
    assert op["args"]["key"] == "k"
    # pids/tids are numeric (strict viewers reject strings) and named.
    assert all(isinstance(event["pid"], int) for event in complete)
    assert any(event["name"] == "process_name" for event in metadata)
    assert any(event["name"] == "thread_name" for event in metadata)
    # Two sites -> two distinct pids.
    assert len({event["pid"] for event in complete}) == 2


def test_chrome_trace_events_empty():
    assert chrome_trace_events([]) == []

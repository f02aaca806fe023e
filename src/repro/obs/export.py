"""Trace exporters: JSONL, Chrome trace-event JSON, guilty span trees.

- :func:`write_records` / :func:`read_records` — the one JSONL codec:
  a ``to_dict()`` object per line out, a dict per non-blank line in.
  Spans and audit events both dump through it.
- :func:`write_jsonl` / :func:`load_jsonl` — a line-per-span dump that
  round-trips losslessly, for archival and offline analysis
  (``python -m repro.obs explain --spans spans.jsonl``).
- :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event format, loadable in ``about://tracing`` or Perfetto.
  Sites map to processes and nodes to threads, so a criticalPut renders
  as a coordinator slice with replica slices under the remote sites,
  offset by the WAN latencies that produced them.
- :func:`render_span_tree` — one trace as an indented tree with the
  spans an audit violation implicates marked ``▶``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Sequence, Set, Union

from .trace import SpanRecord

__all__ = [
    "write_records",
    "read_records",
    "write_jsonl",
    "load_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "render_span_tree",
]

PathOrFile = Union[str, "IO[str]"]


# -- JSONL ---------------------------------------------------------------


def write_records(
    records: Iterable[Any],
    destination: PathOrFile,
    header: Optional[Dict[str, Any]] = None,
) -> None:
    """One ``record.to_dict()`` per line (after ``header``, if given);
    values JSON cannot express are written as their ``repr``."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            write_records(records, handle, header)
        return
    if header is not None:
        destination.write(json.dumps(header) + "\n")
    for record in records:
        destination.write(
            json.dumps(record.to_dict(), sort_keys=True, default=repr) + "\n"
        )


def read_records(source: PathOrFile) -> Iterator[Dict[str, Any]]:
    """The JSON object on each non-blank line."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_records(handle)
        return
    for line in source:
        line = line.strip()
        if line:
            yield json.loads(line)


def write_jsonl(spans: Iterable[SpanRecord], destination: PathOrFile) -> None:
    """Write one span per line; safe to concatenate across runs."""
    write_records(spans, destination)


def load_jsonl(source: PathOrFile) -> List[SpanRecord]:
    return [SpanRecord.from_dict(data) for data in read_records(source)]


# -- Chrome trace-event JSON ----------------------------------------------


def chrome_trace_events(spans: Sequence[SpanRecord]) -> List[dict]:
    """Spans as Chrome trace events (``ph: "X"`` complete events).

    Sim milliseconds map to trace microseconds.  pid/tid are small
    integers (strict viewers require numbers); metadata events name
    them after sites and nodes.
    """
    site_ids: Dict[str, int] = {}
    node_ids: Dict[tuple, int] = {}
    events: List[dict] = []
    for span in spans:
        site = span.site or "-"
        node = span.node or "-"
        if site not in site_ids:
            site_ids[site] = len(site_ids) + 1
            events.append(
                {
                    "ph": "M", "name": "process_name", "pid": site_ids[site],
                    "tid": 0, "args": {"name": f"site:{site}"},
                }
            )
        pid = site_ids[site]
        if (site, node) not in node_ids:
            node_ids[(site, node)] = len(node_ids) + 1
            events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": node_ids[(site, node)], "args": {"name": node},
                }
            )
        args = {"trace_id": span.trace_id, "span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "pid": pid,
                "tid": node_ids[(site, node)],
                "ts": span.start_ms * 1000.0,
                "dur": span.duration_ms * 1000.0,
                "args": args,
            }
        )
    return events


def write_chrome_trace(spans: Sequence[SpanRecord], destination: PathOrFile) -> None:
    document = {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return
    json.dump(document, destination)


# -- guilty span trees -------------------------------------------------------


def render_span_tree(
    spans: Sequence[SpanRecord],
    trace_id: int,
    highlight: Optional[Set[int]] = None,
    max_spans: int = 100,
) -> str:
    """The span tree of one trace, guilty spans marked with ``▶``."""
    highlight = highlight or set()
    members = [s for s in spans if s.trace_id == trace_id]
    if not members:
        return f"  (no spans recorded for trace {trace_id})"
    by_id = {s.span_id: s for s in members}
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for span in members:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start_ms, s.span_id))
    lines: List[str] = [f"  span tree of trace {trace_id}:"]
    emitted = 0

    def walk(span: SpanRecord, depth: int) -> None:
        nonlocal emitted
        if emitted >= max_spans:
            return
        emitted += 1
        marker = "▶" if span.span_id in highlight else " "
        where = f" node={span.node}" if span.node else ""
        lines.append(
            f"  {marker}{'  ' * depth}{span.name} "
            f"[{span.start_ms:.1f}–{span.end_ms:.1f}ms]{where}"
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    if emitted >= max_spans:
        lines.append(f"  ... (tree truncated at {max_spans} spans)")
    return "\n".join(lines)

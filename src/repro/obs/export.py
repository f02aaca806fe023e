"""Trace exporters: JSONL, Chrome trace-event JSON, phase-breakdown
tables, guilty span trees.

- :func:`write_records` / :func:`read_records` — the one JSONL codec:
  a ``to_dict()`` object per line out, a dict per non-blank line in.
  Spans, critical paths and audit events all dump through it.
- :func:`write_jsonl` / :func:`load_jsonl` — a line-per-span dump that
  round-trips losslessly, for archival and offline analysis
  (``python -m repro.obs report spans.jsonl``).
- :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event format, loadable in ``about://tracing`` or Perfetto.
  Sites map to processes and nodes to threads, so a criticalPut renders
  as a coordinator slice with replica slices under the remote sites,
  offset by the WAN latencies that produced them.
- :func:`phase_breakdown` / :func:`render_phase_table` — the paper's
  Fig. 5(b) decomposition: group the children of each root operation
  span by name and tabulate mean latency, share of the end-to-end op,
  and message-level counts, purely from recorded spans.
- :func:`render_span_tree` — one trace as an indented tree with the
  spans an audit violation implicates marked ``▶``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Sequence, Set, Union

from .trace import SpanRecord

__all__ = [
    "write_records",
    "read_records",
    "write_jsonl",
    "load_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "speedscope_document",
    "write_speedscope",
    "PhaseStats",
    "PhaseBreakdown",
    "phase_breakdown",
    "render_phase_table",
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


# -- speedscope ------------------------------------------------------------

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

WeightedStack = Sequence  # (stack: Sequence[str], weight: float) pairs


def speedscope_document(
    name: str,
    samples: Sequence,
    unit: str = "milliseconds",
) -> dict:
    """A speedscope "sampled" profile from weighted stacks.

    ``samples`` is a sequence of ``(stack, weight)`` pairs where each
    stack is a sequence of frame names, outermost first.  The sampled
    format (stacks + weights, no open/close events) tolerates the
    overlapping sibling intervals that span trees and profiler buckets
    produce, which the "evented" format rejects.  Load the output at
    https://www.speedscope.app or via ``speedscope file.json``.
    """
    frame_ids: Dict[str, int] = {}
    frames: List[dict] = []
    out_samples: List[List[int]] = []
    weights: List[float] = []
    for stack, weight in samples:
        if weight <= 0:
            continue
        indices = []
        for frame in stack:
            if frame not in frame_ids:
                frame_ids[frame] = len(frames)
                frames.append({"name": frame})
            indices.append(frame_ids[frame])
        out_samples.append(indices)
        weights.append(weight)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": unit,
                "startValue": 0,
                "endValue": sum(weights),
                "samples": out_samples,
                "weights": weights,
            }
        ],
        "name": name,
        "exporter": "repro.obs",
    }


def write_speedscope(
    name: str,
    samples: Sequence,
    destination: PathOrFile,
    unit: str = "milliseconds",
) -> None:
    document = speedscope_document(name, samples, unit=unit)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return
    json.dump(document, destination)


# -- Fig. 5(b): per-phase latency decomposition ----------------------------


@dataclass
class PhaseStats:
    """Aggregate timing of one phase across all sampled operations."""

    name: str
    count: int = 0
    total_ms: float = 0.0
    durations: List[float] = field(default_factory=list)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


@dataclass
class PhaseBreakdown:
    """Phases of a set of root operation spans, Fig. 5(b)-style."""

    root_name: str
    operations: int
    end_to_end_total_ms: float
    phases: List[PhaseStats]
    unattributed_ms: float

    @property
    def end_to_end_mean_ms(self) -> float:
        return self.end_to_end_total_ms / self.operations if self.operations else 0.0

    @property
    def attributed_total_ms(self) -> float:
        return sum(phase.total_ms for phase in self.phases)

    @property
    def coverage(self) -> float:
        """Fraction of end-to-end time the phases account for."""
        if self.end_to_end_total_ms == 0:
            return 1.0
        return self.attributed_total_ms / self.end_to_end_total_ms


def phase_breakdown(
    spans: Sequence[SpanRecord],
    root_name: str,
    depth: int = 1,
    phase_order: Optional[Sequence[str]] = None,
) -> PhaseBreakdown:
    """Decompose every span named ``root_name`` into its child phases.

    ``depth=1`` groups direct children by name; ``depth=2`` descends one
    level further (e.g. splitting an LWT into its Paxos phases).  The
    decomposition uses only recorded spans — no cooperation from the
    instrumented code beyond having opened child spans.
    """
    by_parent: Dict[int, List[SpanRecord]] = {}
    for span in spans:
        if span.parent_id is not None:
            by_parent.setdefault(span.parent_id, []).append(span)

    roots = [span for span in spans if span.name == root_name]
    phases: Dict[str, PhaseStats] = {}
    end_to_end = 0.0
    attributed = 0.0

    def collect(parent: SpanRecord, level: int, prefix: str) -> float:
        covered = 0.0
        for child in by_parent.get(parent.span_id, ()):  # same trace by construction
            if child.trace_id != parent.trace_id:
                continue
            label = f"{prefix}{child.name}"
            if level < depth and by_parent.get(child.span_id):
                inner = collect(child, level + 1, f"{label}/")
                remainder = child.duration_ms - inner
                if remainder > 0:
                    stats = phases.setdefault(f"{label}/(self)", PhaseStats(f"{label}/(self)"))
                    stats.count += 1
                    stats.total_ms += remainder
                    stats.durations.append(remainder)
            else:
                stats = phases.setdefault(label, PhaseStats(label))
                stats.count += 1
                stats.total_ms += child.duration_ms
                stats.durations.append(child.duration_ms)
            covered += child.duration_ms
        return covered

    for root in roots:
        end_to_end += root.duration_ms
        attributed += collect(root, 1, "")

    ordered = list(phases.values())
    if phase_order:
        rank = {name: index for index, name in enumerate(phase_order)}
        ordered.sort(key=lambda stats: (rank.get(stats.name, len(rank)), stats.name))
    else:
        ordered.sort(key=lambda stats: -stats.total_ms)

    return PhaseBreakdown(
        root_name=root_name,
        operations=len(roots),
        end_to_end_total_ms=end_to_end,
        phases=ordered,
        unattributed_ms=max(0.0, end_to_end - attributed),
    )


def render_phase_table(breakdown: PhaseBreakdown) -> str:
    """The ASCII Fig. 5(b) table for one breakdown."""
    lines = [
        f"phase breakdown of {breakdown.root_name!r} "
        f"({breakdown.operations} ops, mean end-to-end "
        f"{breakdown.end_to_end_mean_ms:.2f} ms)",
        f"{'phase':<44} {'count':>6} {'mean ms':>9} {'% of op':>8}",
        "-" * 70,
    ]
    total = breakdown.end_to_end_total_ms or 1.0
    for phase in breakdown.phases:
        lines.append(
            f"{phase.name:<44} {phase.count:>6} {phase.mean_ms:>9.2f} "
            f"{100.0 * phase.total_ms / total:>7.1f}%"
        )
    if breakdown.operations:
        lines.append(
            f"{'(unattributed)':<44} {'':>6} "
            f"{breakdown.unattributed_ms / breakdown.operations:>9.2f} "
            f"{100.0 * breakdown.unattributed_ms / total:>7.1f}%"
        )
    lines.append("-" * 70)
    lines.append(
        f"{'end-to-end':<44} {breakdown.operations:>6} "
        f"{breakdown.end_to_end_mean_ms:>9.2f} {100.0:>7.1f}%"
    )
    return "\n".join(lines)


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

"""The audit stream: one recorded operation history, simulated or live.

The bounded model checker of :mod:`repro.verification` proves the ECF
properties over the Section V Alloy model — but nothing in that proof
watches the *implementation*.  The runtime audit closes the gap in the
style of replication-aware linearizability: correctness is specified
over a recorded operation **history**, not over internals.  Flow is one
way:

- **emission sites** (``core/replica.py``, ``lockstore``, ``store``,
  ``faults``, ``topo``) call :meth:`AuditStream.emit` at every
  ECF-relevant point — lockRef enqueue/grant/release/forcedRelease,
  synchFlag reads/writes, every criticalGet/criticalPut quorum decision
  with its v2s vector timestamp;
- the **stream** (this module) stamps each :class:`AuditEvent` with the
  clock and the open span, keeps the bounded history, and hands the
  event to its **subscribers** — :class:`~repro.obs.ecf.ECFChecker`,
  :class:`~repro.txn.WaitsForGraph` — which file what they find on the
  stream's one violation sink (:meth:`AuditStream.file`);
- **offline readers** work from the history alone: JSONL dump and load,
  :func:`merge_audit_events` over the per-process slices of a live
  run, :meth:`AuditStream.render_report`.

A simulated deployment and a live process attach the *same* class.  A
single live process sees only its slice of the global history, so no
checker is subscribed there: it records, the harness merges the slices,
and the merged history replays through a stream that does have the
checker subscribed (:meth:`ECFAuditor.replay
<repro.obs.ecf.ECFAuditor.replay>`).

Emission obeys two rules.  It never yields, sleeps or draws randomness,
so attaching a stream cannot change simulated timings.  And the
disabled path is the :data:`~repro.obs.recorder.NULL_OBS` null-object
pattern: every site reads ``audit = self.obs.audit; if audit.enabled:``
and the default :data:`NULL_AUDIT` is a shared inert object, so an
un-audited run pays two attribute loads and a falsy branch per site
(asserted by ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..verification.invariants import ViolationRecord
from .export import PathOrFile, read_records, render_span_tree, write_records
from .trace import SpanRecord

__all__ = [
    "AuditEvent",
    "AuditStream",
    "NULL_AUDIT",
    "NullAudit",
    "load_audit_jsonl",
    "merge_audit_events",
    "write_audit_jsonl",
]

# Matches MusicConfig.period_ms; build_music passes the configured value
# (not imported from core to keep obs free of a core dependency).
DEFAULT_PERIOD_MS = 10_000_000.0

Stamp = Tuple[float, str]


@dataclass(slots=True)
class AuditEvent:
    """One structured event from an ECF-relevant code point."""

    seq: int
    t_ms: float
    kind: str
    key: Optional[str]
    node: Optional[str]
    lock_ref: Optional[int]
    stamp: Optional[Stamp]
    trace_id: Optional[int]
    span_id: Optional[int]
    fields: Dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        """A compact model-checker-style trace label."""
        bits = [self.kind]
        if self.lock_ref is not None:
            bits.append(f"ref={self.lock_ref}")
        if self.node:
            bits.append(f"@{self.node}")
        return f"{bits[0]}({', '.join(bits[1:])})" if bits[1:] else bits[0]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "t_ms": self.t_ms,
            "kind": self.kind,
            "key": self.key,
            "node": self.node,
            "lock_ref": self.lock_ref,
            "stamp": list(self.stamp) if self.stamp is not None else None,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AuditEvent":
        stamp = data.get("stamp")
        return cls(
            seq=data["seq"],
            t_ms=data["t_ms"],
            kind=data["kind"],
            key=data.get("key"),
            node=data.get("node"),
            lock_ref=data.get("lock_ref"),
            stamp=tuple(stamp) if stamp is not None else None,
            trace_id=data.get("trace_id"),
            span_id=data.get("span_id"),
            fields=data.get("fields") or {},
        )


class NullAudit:
    """The inert default stream: emission sites see ``enabled=False``
    and never build an event."""

    enabled = False
    events: List[AuditEvent] = []
    violations: List[ViolationRecord] = []

    def emit(self, kind: str, **_fields: Any) -> None:
        pass


NULL_AUDIT = NullAudit()


class AuditStream:
    """The history of one execution and the findings filed against it.

    Attach with ``Observability.attach_audit``.  Events come in through
    :meth:`emit` (the instrumented run) or :meth:`ingest` (offline
    replay); every ``subscriber(event)`` sees each one, in subscription
    order, and files violations with :meth:`file`.  With no subscriber
    the stream only records.
    """

    enabled = True

    def __init__(
        self,
        period_ms: float = DEFAULT_PERIOD_MS,
        event_limit: int = 500_000,
        violation_limit: int = 1_000,
    ) -> None:
        # T rides with the history: replay needs it to decompose stamps.
        self.period_ms = period_ms
        # The run's clock and (if it records spans) tracer, set by
        # attach_audit; without them emit stamps t=0 and no span.
        self.sim: Any = None
        self.tracer: Any = None
        self.event_limit = event_limit
        self.violation_limit = violation_limit
        self.events: List[AuditEvent] = []
        self.dropped = 0
        self.violations: List[ViolationRecord] = []
        self.violation_counts: Dict[str, int] = {}
        # Benign-race and volume tallies, named by whichever subscriber
        # keeps them.
        self.counters: Dict[str, int] = {}
        self._subscribers: List[Callable[[AuditEvent], None]] = []
        self._seq = 0

    def subscribe(self, subscriber: Callable[[AuditEvent], None]) -> None:
        """Hand ``subscriber(event)`` every event from now on.

        Subscribers are bound by the emission rules: they must not
        yield, sleep, or consume randomness.
        """
        self._subscribers.append(subscriber)

    # -- ingestion --------------------------------------------------------

    def emit(
        self,
        kind: str,
        key: Optional[str] = None,
        node: Optional[str] = None,
        lock_ref: Optional[int] = None,
        stamp: Optional[Stamp] = None,
        **fields: Any,
    ) -> None:
        """Record one event at the current time, under the open span."""
        trace_id = span_id = None
        if self.tracer is not None:
            span = self.tracer.current_span()
            if span is not None:
                trace_id, span_id = span.trace_id, span.span_id
        self._seq += 1
        event = AuditEvent(
            seq=self._seq,
            t_ms=self.sim.now if self.sim is not None else 0.0,
            kind=kind,
            key=key,
            node=node,
            lock_ref=lock_ref,
            stamp=tuple(stamp) if stamp is not None else None,
            trace_id=trace_id,
            span_id=span_id,
            fields=fields,
        )
        self.ingest(event)

    def ingest(self, event: AuditEvent) -> None:
        """Feed one event (live emission and offline replay share this)."""
        if len(self.events) < self.event_limit:
            self.events.append(event)
        else:
            self.dropped += 1
        self._seq = max(self._seq, event.seq)
        for subscriber in self._subscribers:
            subscriber(event)

    # -- the violation sink -----------------------------------------------

    def file(self, record: ViolationRecord) -> None:
        """Count a subscriber's finding and keep it (up to the limit)."""
        self.violation_counts[record.invariant] = (
            self.violation_counts.get(record.invariant, 0) + 1
        )
        if len(self.violations) < self.violation_limit:
            self.violations.append(record)

    @property
    def clean(self) -> bool:
        return not self.violation_counts

    def assert_clean(self) -> None:
        if not self.clean:
            raise AssertionError(self.render_report())

    def render_report(
        self,
        spans: Optional[Sequence[SpanRecord]] = None,
        max_violations: int = 10,
    ) -> str:
        """A human-readable audit summary; pass recorded spans to also
        render the guilty span tree under each violation."""
        kinds: Dict[str, int] = {}
        keys = set()
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
            if event.key is not None:
                keys.add(event.key)
        total = len(self.events) + self.dropped
        lines = [
            f"ECF audit: {total} events over {len(keys)} key(s), "
            f"{sum(self.violation_counts.values())} violation(s)"
        ]
        if kinds:
            lines.append(
                "  events: "
                + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
            )
        zombies = {k: v for k, v in self.counters.items() if v and k.startswith("zombie")}
        if zombies:
            lines.append(
                "  benign races: "
                + ", ".join(f"{k}={v}" for k, v in sorted(zombies.items()))
            )
        if self.dropped:
            lines.append(f"  (history bounded: {self.dropped} events dropped)")
        if self.clean:
            lines.append("  clean audit: all ECF invariants held")
            return "\n".join(lines)
        for invariant, count in sorted(self.violation_counts.items()):
            lines.append(f"  {invariant}: {count} violation(s)")
        for record in self.violations[:max_violations]:
            lines.append("")
            lines.append(record.render())
            if spans:
                for trace_id, _span_id in record.trace_spans[:1]:
                    highlight = {s for _t, s in record.trace_spans}
                    lines.append(render_span_tree(spans, trace_id, highlight))
        remaining = len(self.violations) - max_violations
        if remaining > 0:
            lines.append(f"\n... and {remaining} more violation(s)")
        return "\n".join(lines)


def merge_audit_events(
    histories: Iterable[Iterable[AuditEvent]],
) -> List[AuditEvent]:
    """Merge per-process audit histories into one re-sequenced stream.

    Events order by their wall timestamp — every
    :class:`~repro.live.LiveClock` of a cluster shares the epoch, so
    ``t_ms`` values are mutually comparable — with (history index,
    original seq) breaking ties.  Sequence numbers are reassigned so a
    replay's seq sort reproduces exactly this order.
    """
    keyed = [
        (event.t_ms, index, event.seq, event)
        for index, events in enumerate(histories)
        for event in events
    ]
    keyed.sort(key=lambda entry: entry[:3])
    merged: List[AuditEvent] = []
    for seq, (_, _, _, event) in enumerate(keyed, start=1):
        event.seq = seq
        merged.append(event)
    return merged


# -- JSONL persistence ------------------------------------------------------

_META_KIND = "_meta"


def write_audit_jsonl(auditor: AuditStream, destination: PathOrFile) -> None:
    """One event per line, preceded by a meta line carrying T (needed to
    decompose v2s stamps on replay)."""
    write_records(
        auditor.events, destination,
        header={"kind": _META_KIND, "period_ms": auditor.period_ms},
    )


def load_audit_jsonl(source: PathOrFile) -> Tuple[List[AuditEvent], float]:
    """Returns ``(events, period_ms)``."""
    events: List[AuditEvent] = []
    period_ms = DEFAULT_PERIOD_MS
    for data in read_records(source):
        if data.get("kind") == _META_KIND:
            period_ms = float(data.get("period_ms", period_ms))
        else:
            events.append(AuditEvent.from_dict(data))
    return events, period_ms

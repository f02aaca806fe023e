"""Clock-aware distributed tracing.

Spans are stamped from the active :class:`repro.sim.Clock` — the
DES :class:`~repro.sim.Simulator` or the wall-clock
:class:`repro.live.LiveClock` — so the same tracer serves both modes.
Under the DES a trace of a criticalPut is the paper's own cost
breakdown in simulated milliseconds: the root span is the API call, its
children are the lock-store/data-store operations, and their children
are the Paxos phases and replica-side handlers — a tree whose leaf
durations are quorum RTTs and service times.  Under ``repro.live`` the
same tree carries wall milliseconds since the cluster epoch, and the
JSONL and Chrome exporters render it unchanged.

Context propagation uses two mechanisms:

- **Within a simulation process**: the currently-open span is stored in
  the process's ``context`` dict (see :class:`repro.sim.Process`), so a
  span opened anywhere down a ``yield from`` chain parents to the span
  above it, and a process spawned mid-span inherits that span as its
  parent.
- **Across RPCs**: :meth:`Tracer.rpc_context` returns a ``(trace_id,
  span_id)`` pair that :class:`repro.net.Node` sends as the ``trace``
  field of the request's ``Message``; the node's dispatch seeds a
  generator handler's process context with it (:meth:`Tracer.adopt`)
  before the handler's first step, and a served handler (no process)
  passes it as the explicit ``parent`` of its span, so replica-side
  spans join the caller's trace.

An operation is traced by one mechanism, :meth:`Tracer.around`: the
operation builds its body generator and returns it bare when
``tracer.enabled`` is false, or ``tracer.around(body, name, **attrs)``
otherwise, and sets in-body attributes on :meth:`Tracer.current_span`
behind the same check.  An untraced RPC therefore opens no span, enters
nothing and builds no attribute dict: it pays one ``enabled`` test per
operation.  The :data:`NULL_TRACER` is what such a run installs; its
``span()`` (an inert shared object whose enter/exit do nothing) is left
for cold paths, and it records nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

if TYPE_CHECKING:  # the scheduler seam
    from ..sim.core import Clock

__all__ = ["SpanRecord", "Span", "Tracer", "NullTracer", "NULL_TRACER"]

# Keys into Process.context.
_SPAN_KEY = "obs.span"       # the innermost open local Span
_REMOTE_KEY = "obs.remote"   # (trace_id, span_id) adopted from a request's Message


@dataclass(slots=True)
class SpanRecord:
    """One finished span, as exported."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    node: Optional[str]
    site: Optional[str]
    start_ms: float
    end_ms: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "site": self.site,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            node=data.get("node"),
            site=data.get("site"),
            start_ms=data["start_ms"],
            end_ms=data["end_ms"],
            attrs=data.get("attrs") or {},
        )


class Span:
    """A live span; use as a context manager around the timed work."""

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent_id", "name", "node", "site",
        "start_ms", "end_ms", "attrs", "_process", "_restore",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        node: Optional[str],
        site: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.site = site
        self.start_ms = tracer.sim.now
        self.end_ms: Optional[float] = None
        self.attrs = attrs
        self._process = None
        self._restore: Any = None

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        process = self.tracer.sim.active_process
        self._process = process
        if process is not None:
            self._restore = process.context.get(_SPAN_KEY)
            process.context[_SPAN_KEY] = self
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self.attrs["error"] = type(exc).__name__
        self.finish()
        return False

    def finish(self) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end_ms is not None:
            return
        self.end_ms = self.tracer.sim.now
        process = self._process
        if process is not None and process.context.get(_SPAN_KEY) is self:
            if self._restore is None:
                process.context.pop(_SPAN_KEY, None)
            else:
                process.context[_SPAN_KEY] = self._restore
        self.tracer._record(self)


class Tracer:
    """Collects spans from one simulation, bounded in memory."""

    enabled = True

    def __init__(self, sim: "Clock", limit: int = 500_000, id_base: int = 0) -> None:
        self.sim = sim
        self.limit = limit
        self.spans: List[SpanRecord] = []
        self.dropped = 0
        # ``id_base`` partitions the id space between the processes of a
        # live cluster, so traces merged from several nodes never alias.
        # The default (0) preserves the ids DES runs have always used.
        self._ids = itertools.count(id_base + 1)

    # -- span creation ------------------------------------------------------

    def span(
        self,
        name: str,
        node: Optional[str] = None,
        site: Optional[str] = None,
        parent: Optional[Tuple[int, int]] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span parented to the calling process's current context,
        or to ``parent`` — a request ``Message``'s ``(trace_id, span_id)``
        — when one is given (a served handler has no process to carry
        it; see ``repro.net.Node.serve``)."""
        trace_id: Optional[int] = None
        parent_id: Optional[int] = None
        process = self.sim.active_process
        if parent is not None:
            trace_id, parent_id = parent
        elif process is not None and process.context:
            current: Optional[Span] = process.context.get(_SPAN_KEY)
            if current is not None:
                trace_id, parent_id = current.trace_id, current.span_id
            else:
                remote = process.context.get(_REMOTE_KEY)
                if remote is not None:
                    trace_id, parent_id = remote
        if trace_id is None:
            trace_id = next(self._ids)
        profiler = self.sim.profiler
        if profiler is not None:
            profiler.obs_spans += 1
        return Span(self, trace_id, next(self._ids), parent_id, name, node, site, attrs)

    def around(
        self, op: Generator[Any, Any, Any], name: str, **attrs: Any
    ) -> Generator[Any, Any, Any]:
        """Run the generator ``op`` inside ``self.span(name, **attrs)``
        and return its result: a traced operation (see the module
        docstring)."""
        with self.span(name, **attrs):
            return (yield from op)

    def current_span(self) -> Optional[Span]:
        process = self.sim.active_process
        if process is None or not process.context:
            return None
        return process.context.get(_SPAN_KEY)

    # -- RPC propagation ----------------------------------------------------

    def rpc_context(self) -> Optional[Tuple[int, int]]:
        """The ``(trace_id, span_id)`` to piggyback on an outgoing RPC."""
        process = self.sim.active_process
        if process is None or not process.context:
            return None
        span: Optional[Span] = process.context.get(_SPAN_KEY)
        if span is not None:
            return (span.trace_id, span.span_id)
        return process.context.get(_REMOTE_KEY)

    def adopt(self, process: Any, context: Tuple[int, int]) -> None:
        """Seed a handler process with the remote parent its request's
        ``Message`` carried as ``trace``."""
        process.context[_REMOTE_KEY] = (context[0], context[1])

    # -- recording -----------------------------------------------------------

    def _record(self, span: Span) -> None:
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return
        self.spans.append(
            SpanRecord(
                trace_id=span.trace_id,
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                node=span.node,
                site=span.site,
                start_ms=span.start_ms,
                end_ms=span.end_ms if span.end_ms is not None else span.start_ms,
                attrs=span.attrs,
            )
        )

    # -- queries -------------------------------------------------------------

    def roots(self, name: Optional[str] = None) -> List[SpanRecord]:
        return [
            span
            for span in self.spans
            if span.parent_id is None and (name is None or span.name == name)
        ]

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def trace(self, trace_id: int) -> List[SpanRecord]:
        return sorted(
            (s for s in self.spans if s.trace_id == trace_id),
            key=lambda s: (s.start_ms, s.span_id),
        )


class _NullSpan:
    """The shared inert span returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        return False

    def set(self, **_attrs: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A no-op tracer: the always-installed default."""

    enabled = False
    spans: List[SpanRecord] = []
    dropped = 0

    def span(self, _name: str, **_kw: Any) -> _NullSpan:
        return _NULL_SPAN

    def rpc_context(self) -> None:
        return None

    def adopt(self, process: Any, context: Tuple[int, int]) -> None:
        pass


NULL_TRACER = NullTracer()

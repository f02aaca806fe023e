"""Observability: metrics + sim-clock distributed tracing for the stack.

Usage::

    from repro.obs import Observability
    from repro.core import build_music

    deployment = build_music(obs=True)          # or obs=Observability(sim)
    obs = deployment.obs
    ... run a workload, each critical section under a "music.cs" span ...
    print(obs.metrics.render())
    from repro.obs import extract_critpaths, render_phase_summary
    print(render_phase_summary(extract_critpaths(obs.tracer.spans)))

``python -m repro.obs explain`` runs a traced, audited workload (or
reads a span dump back) and prints its critical-path phase table, the
paper's Fig. 5(b) per-phase latency decomposition, from the spans alone.
"""

from .audit import (
    NULL_AUDIT,
    AuditEvent,
    AuditStream,
    load_audit_jsonl,
    merge_audit_events,
    write_audit_jsonl,
)
from .critpath import (
    explain_table,
    extract_critpaths,
    observe_phases,
    phase_summary,
    render_phase_summary,
)
from .ecf import ECFAuditor, replay_audit
from .export import (
    chrome_trace_events,
    load_jsonl,
    render_span_tree,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Histogram, MetricsRegistry
from .prof import SimProfiler, subsystem_of
from .recorder import NULL_OBS, Observability
from .trace import SpanRecord

__all__ = [
    "AuditEvent",
    "AuditStream",
    "ECFAuditor",
    "Histogram",
    "MetricsRegistry",
    "NULL_AUDIT",
    "NULL_OBS",
    "Observability",
    "SimProfiler",
    "SpanRecord",
    "chrome_trace_events",
    "explain_table",
    "extract_critpaths",
    "load_audit_jsonl",
    "load_jsonl",
    "merge_audit_events",
    "observe_phases",
    "phase_summary",
    "render_phase_summary",
    "render_span_tree",
    "replay_audit",
    "subsystem_of",
    "write_audit_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

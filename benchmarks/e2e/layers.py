"""The traced pass: per-layer metrics, in situ and from the layer drives.

End-to-end numbers are always taken with tracing off.  This module
re-runs one iteration of a workload with the switches ``repro`` already
has (``obs=True``, ``profile=True``, a transport tap), reads the layer
counters out of it, runs the layer drives of ``drives.py``, and prints
a *reconstruction*: the sum over layers of (drive self cost per call x
in-situ calls per operation) beside the untraced host time per
operation, with the unexplained residual stated as a number.
"""

from __future__ import annotations

import collections
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.live.codec import encode_frame
from repro.obs import extract_critpaths, phase_summary

from .drives import DRAIN_MS, Drives, SpanLog, run_drives, unit_of, wire_frames
from .workloads import Iteration, gc_paused, is_live, percentile, run_once

# Bottom-up: a unit's self cost subtracts every unit of a lower rank.
_RANK = {
    "sim.event": 0, "net.rpc": 1,
    "store.get": 2, "store.put": 2, "store.get_one": 2, "store.put_one": 2,
    "store.cas": 2,
    "lockstore.enqueue": 3, "lockstore.peek": 3, "lockstore.dequeue": 3,
    "core.op": 4, "leases.local_get": 4,
}

_PHASES = {
    "phase.mint_lwt_ms": ("mint.lwt",),
    "phase.acquire_queue_wait_ms": ("acquire.queue_wait",),
    "phase.acquire_flag_read_ms": ("acquire.flag_read",),
    "phase.acquire_sync_ms": ("acquire.sync",),
    "phase.op_quorum_ms": ("op.quorum_fastest", "op.quorum_straggler"),
    "phase.op_local_read_ms": ("op.local_read",),
    "phase.release_lwt_ms": ("release.lwt",),
}

_PROFILER_SHARES = ("store", "net", "client", "music", "timer")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Observed:
    """Span names, unit calls and counters of one traced iteration."""

    def __init__(self, spans: List[Any], registries: List[Any]) -> None:
        self.spans = spans
        self.registries = registries
        self.names = collections.Counter(span.name for span in spans)
        # Calls into each reconstruction unit during the iteration.
        self.units: Dict[str, float] = collections.Counter(
            unit for unit in map(unit_of, spans) if unit is not None
        )
        # A lease-served criticalGet is the leases layer's call, not core's.
        lease_hits = self.total("music.lease.hits")
        self.units["leases.local_get"] = lease_hits
        self.units["core.op"] -= lease_hits

    def total(self, counter: str) -> float:
        return sum(registry.total(counter) for registry in self.registries)


def _shared_insitu(observed: _Observed, ops: int) -> Dict[str, float]:
    names = observed.names
    units = observed.units
    hits = observed.total("music.lease.hits")
    misses = observed.total("music.lease.misses")
    return {
        "store.cas_per_op": _ratio(names["store.cas"], ops),
        "store.quorum_ops_per_op": _ratio(units["store.get"] + units["store.put"], ops),
        "store.ballot_conflict_frac": _ratio(
            observed.total("lockstore.enqueue.conflicts"), names["paxos.prepare"]
        ),
        "store.read_repairs": observed.total("store.read_repairs"),
        "storage.flushes": observed.total("storage.flushes"),
        "storage.wal_fsyncs": observed.total("storage.wal.fsyncs"),
        "lockstore.peeks_per_grant": _ratio(names["lockstore.peek"], names["music.grant"]),
        "core.syncs": observed.total("music.syncs"),
        "core.forced_releases": observed.total("music.forced_releases"),
        "leases.local_hit_frac": _ratio(hits, hits + misses),
        "leases.misses_per_op": _ratio(misses, ops),
        "obs.spans_per_op": _ratio(len(observed.spans), ops),
    }


def _sim_insitu(
    traced: Iteration, untraced: Iteration
) -> Tuple[Dict[str, float], Dict[str, float]]:
    deployment = traced.insitu["deployment"]
    profiler = deployment.profiler
    tap = traced.insitu["tap"]
    ops = traced.ops
    observed = _Observed(deployment.obs.tracer.spans, [deployment.obs.metrics])
    metrics = _shared_insitu(observed, ops)
    auditor = deployment.auditor
    takeovers = traced.insitu.get("takeovers_ms")
    metrics.update({
        "sim.events_per_op": _ratio(profiler.events, ops),
        "sim.heap_pushes_per_op": _ratio(profiler.heap_pushes, ops),
        "sim.heap_high_water": profiler.heap_high_water,
        "sim.us_per_event": _ratio(1e6 * untraced.wall_s, profiler.events),
        "net.msgs_per_op": _ratio(tap.count, ops),
        "net.bytes_per_op": _ratio(tap.bytes, ops),
        "core.takeover_sim_ms": statistics.median(takeovers) if takeovers else 0.0,
        "obs.audit_events_per_op": _ratio(len(auditor.events), ops) if auditor else 0.0,
        "obs.audit_flags": len(auditor.violations) if auditor else 0.0,
    })
    for span in observed.spans:
        # critpath indexes attrs["attempts"] on every store.cas span, but
        # a CAS that ends by raising (QuorumUnavailable under a partition)
        # never sets it: repro.obs.critpath would die with a KeyError.
        if span.name == "store.cas":
            span.attrs.setdefault("attempts", 1)
    paths = extract_critpaths(observed.spans)
    phase_ms = {phase: total for phase, _count, total in phase_summary(paths)}
    for metric, phases in _PHASES.items():
        metrics[metric] = _ratio(sum(phase_ms.get(p, 0.0) for p in phases), len(paths))
    shares = profiler.subsystem_shares()
    for subsystem in _PROFILER_SHARES:
        metrics[f"prof.{subsystem}_share"] = shares.get(subsystem, 0.0)
    counts = observed.units
    counts["sim.event"] = profiler.events
    counts["net.rpc"] = profiler.rpc_envelopes
    return metrics, counts


def _live_insitu(
    traced: Iteration, untraced: Iteration, frames: List[Dict[str, Any]]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    ops = traced.ops
    observed = _Observed(traced.insitu["spans"], traced.insitu["metrics"])
    metrics = _shared_insitu(observed, ops)
    metrics.update({
        "live.msgs_per_cs": _ratio(len(frames), ops),
        "live.bytes_per_cs": _ratio(sum(len(encode_frame(f)) for f in frames), ops),
        "live.acquire_p50_ms": percentile(traced.insitu["acquire_ms"], 0.50),
        "live.cpu_frac": _ratio(untraced.cpu_s, untraced.wall_s),
    })
    counts = observed.units
    counts["live.codec"] = counts["live.transport"] = len(frames)
    return metrics, counts


def self_costs(drives: Drives) -> Dict[str, float]:
    """Host µs one call of each unit spends in its own layer: the
    drive's cost minus the drives beneath it times their per-call counts."""
    calls = drives.calls
    kernel = [calls["sim.timeout"], calls["sim.mailbox"]]
    costs = {
        "sim.event": statistics.mean(
            _ratio(drive.us_per_call, drive.events) for drive in kernel
        )
    }
    for unit in sorted(_RANK, key=_RANK.get):
        if unit == "sim.event":
            continue
        drive = calls["core.cs" if unit == "core.op" else unit]
        beneath = drive.events * costs["sim.event"]
        if _RANK[unit] > 1:
            beneath += drive.rpcs * costs["net.rpc"]
        for lower, count in drive.units.items():
            if 1 < _RANK[lower] < _RANK[unit]:
                beneath += count * costs[lower]
        costs[unit] = drive.us_per_call - beneath
    # The core drive is one whole critical section: spread its self
    # cost over the MusicReplica operations it made.
    costs["core.op"] = _ratio(costs["core.op"], calls["core.cs"].units.get("core.op", 0.0))
    flat = drives.flat
    costs["live.codec"] = flat["live.codec_encode_us"] + flat["live.codec_decode_us"]
    costs["live.transport"] = flat["live.transport_frame_us"]
    return costs


def reconstruct(
    counts: Dict[str, float], costs: Dict[str, float], ops: int, host_us_per_op: float
) -> Tuple[List[Tuple[str, float, float, float]], Dict[str, float]]:
    """Rows of (unit, calls/op, self µs/call, µs/op), and the summary."""
    rows = []
    for unit, cost in costs.items():
        per_op = _ratio(counts.get(unit, 0.0), ops)
        if per_op:
            rows.append((unit, per_op, cost, per_op * cost))
    explained = sum(row[3] for row in rows)
    summary = {
        "recon.host_us_per_op": host_us_per_op,
        "recon.explained_us_per_op": explained,
        "recon.residual_frac": _ratio(host_us_per_op - explained, host_us_per_op),
    }
    return rows, summary


def _drive_metrics(drives: Drives) -> Dict[str, float]:
    calls = drives.calls
    metrics = {
        "sim.timeout_us_per_event": _ratio(
            calls["sim.timeout"].us_per_call, calls["sim.timeout"].events
        ),
        "sim.mailbox_us_per_event": _ratio(
            calls["sim.mailbox"].us_per_call, calls["sim.mailbox"].events
        ),
        "net.rpc_us_per_call": calls["net.rpc"].us_per_call,
        "net.events_per_rpc": calls["net.rpc"].events,
        "store.put_quorum_us": calls["store.put"].us_per_call,
        "store.get_quorum_us": calls["store.get"].us_per_call,
        "store.cas_us": calls["store.cas"].us_per_call,
        "store.events_per_cas": calls["store.cas"].events,
        "store.msgs_per_cas": calls["store.cas"].msgs,
        "store.cas_sim_ms": calls["store.cas"].sim_ms - DRAIN_MS,
        "storage.commit_us": calls["storage.commit"].us_per_call,
        "storage.flush_us": calls["storage.flush"].us_per_call,
        "lockstore.enqueue_us": calls["lockstore.enqueue"].us_per_call,
        "lockstore.peek_us": calls["lockstore.peek"].us_per_call,
        "lockstore.dequeue_us": calls["lockstore.dequeue"].us_per_call,
        "core.cs_us": calls["core.cs"].us_per_call,
        "core.events_per_cs": calls["core.cs"].events,
        "core.msgs_per_cs": calls["core.cs"].msgs,
        "core.bytes_per_cs": calls["core.cs"].bytes,
        "leases.local_get_us": calls["leases.local_get"].us_per_call,
    }
    metrics.update(drives.flat)
    return metrics


def traced_pass(
    name: str, seed_offset: int, scale: str, out_dir: Path, drive_budget_s: float
) -> Dict[str, Any]:
    """One untraced and one traced iteration of ``name`` plus every
    layer drive; returns the per-layer metrics and the reconstruction."""
    untraced = run_once(name, seed_offset, scale, out_dir, traced=False)
    traced = run_once(name, seed_offset, scale, out_dir, traced=True)
    # Frames for the codec drive come from a real cluster run: this
    # workload's own if it is live, a tiny live_cs run otherwise.
    source = traced if is_live(name) else run_once(
        "live_cs", seed_offset, "tiny", out_dir, traced=True
    )
    frames = wire_frames(source.insitu["tap"], source.insitu["spec"])
    if is_live(name):
        insitu, counts = _live_insitu(traced, untraced, frames)
    else:
        insitu, counts = _sim_insitu(traced, untraced)

    # The traced deployment holds every span it recorded: let it go
    # before the drives run.
    checked = [untraced, traced]
    for iteration in checked:
        iteration.insitu.clear()
    spans = SpanLog()
    with gc_paused():
        drives = run_drives(spans, drive_budget_s, frames)
    spans.write(out_dir / f"trace-{name}.jsonl")

    metrics = dict(insitu)
    metrics.update(_drive_metrics(drives))
    metrics["trace.overhead_frac"] = _ratio(traced.wall_s, untraced.wall_s) - 1.0
    # CPU seconds, not wall: a live run sleeps on real timers between
    # events (a simulated run never sleeps, so for it the two agree).
    rows, summary = reconstruct(
        counts, self_costs(drives), traced.ops,
        _ratio(1e6 * untraced.cpu_s, untraced.ops),
    )
    metrics.update(summary)
    return {
        "metrics": metrics,
        "reconstruction": rows,
        "iterations": checked,
        "bench_spans": len(spans.rows),
    }

"""The ``python -m repro.obs`` report CLI.

Three modes:

- ``python -m repro.obs fig5b`` (the default) — run a small MUSIC
  deployment with observability on, drive a single-client critical-
  section workload, and print the Fig. 5(b)-style critical-path phase
  totals derived purely from the recorded spans.  ``--jsonl`` and
  ``--chrome`` additionally dump the raw spans for offline analysis or
  Perfetto; ``--audit`` attaches the runtime ECF auditor and prints its
  report, ``--audit-jsonl`` dumps the audit history for offline replay.
- ``python -m repro.obs explain`` — the tail-latency explainer: run the
  16-client contention workload (or load ``--spans spans.jsonl``),
  reconstruct every critical section's blocking chain
  (:mod:`repro.obs.critpath`), and print the slowest CSs with their
  dominant phase, guilty span IDs and replica/site, plus the aggregate
  phase totals — the table ``fig5b`` prints, so ``explain --spans`` is
  also how a dumped run is read back.  ``--speedscope`` exports a phase
  flamegraph.
- ``python -m repro.obs audit events.jsonl`` — replay a dumped audit
  history through every ECF checker and print the violation report
  (exit status 1 if any invariant was violated); pass ``--spans`` to
  also render the guilty span tree under each violation.  Given the
  per-process slices of a live run (``live-runs/ci/audit-*.jsonl``) it
  merges them on their shared clock first.

Example::

    $ python -m repro.obs explain --slowest 5 --phase release.lwt
    slowest 5 critical sections dominated by 'release.lwt'
    ...
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Any, Generator, List, Optional, Sequence

from .audit import write_audit_jsonl
from .critpath import (
    CritPath,
    critpath_speedscope_samples,
    explain_table,
    extract_critpaths,
    observe_phases,
    render_phase_summary,
    write_critpath_jsonl,
)
from .ecf import replay_audit
from .export import (
    load_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_speedscope,
)
from .metrics import MetricsRegistry, render_derived_ratios
from .trace import SpanRecord

ROOT_SPAN = "music.cs"


def _run_fig5b(args: argparse.Namespace) -> int:
    from ..core import build_music
    from ..net import PAPER_PROFILES

    if args.profile not in PAPER_PROFILES:
        print(
            f"unknown profile {args.profile!r}; choose from "
            f"{', '.join(sorted(PAPER_PROFILES))}",
            file=sys.stderr,
        )
        return 2
    deployment = build_music(
        profile_name=args.profile, obs=True, audit=args.audit or bool(args.audit_jsonl)
    )
    obs = deployment.obs
    client = deployment.client(deployment.profile.site_names[0])
    payload = {"value": "x" * args.value_bytes}

    def workload() -> Generator[Any, Any, None]:
        for index in range(args.ops):
            key = f"key-{index % args.keys}"
            with obs.tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
                section = yield from client.critical_section(key)
                yield from section.put(payload)
                yield from section.get()
                yield from section.exit()

    deployment.sim.process(workload(), name="fig5b-client")
    deployment.sim.run()

    spans = obs.tracer.spans
    _print_phase_totals(extract_critpaths(spans, root_name=ROOT_SPAN), spans)
    _dump_spans(spans, args)
    if args.metrics:
        print()
        print(obs.metrics.render())
        ratios = render_derived_ratios(obs.metrics)
        if ratios:
            print()
            print(ratios)
    if deployment.auditor is not None:
        print()
        print(deployment.auditor.render_report(spans=spans))
        if args.audit_jsonl:
            write_audit_jsonl(deployment.auditor, args.audit_jsonl)
            print(f"audit history written to {args.audit_jsonl}")
        if not deployment.auditor.clean:
            return 1
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    if args.spans:
        try:
            spans = load_jsonl(args.spans)
        except OSError as error:
            print(f"cannot read {args.spans}: {error}", file=sys.stderr)
            return 1
        except (KeyError, ValueError) as error:
            print(f"{args.spans} is not a span JSONL dump ({error!r})", file=sys.stderr)
            return 1
        if not spans:
            print(f"no spans in {args.spans}", file=sys.stderr)
            return 1
    else:
        spans = _contention_spans(args)

    root = args.root or ROOT_SPAN
    paths = extract_critpaths(spans, root_name=root)
    if not paths:
        print(f"no {root!r} spans found; pass --root to pick another", file=sys.stderr)
        return 1

    print(explain_table(paths, slowest=args.slowest, phase=args.phase))
    print()
    _print_phase_totals(paths, spans)
    if args.histograms:
        registry = MetricsRegistry()
        observe_phases(paths, registry)
        print()
        print(registry.render())
    _dump_spans(spans, args)
    if args.critpath_jsonl:
        write_critpath_jsonl(paths, args.critpath_jsonl)
        print(f"critical paths written to {args.critpath_jsonl}")
    if args.speedscope:
        write_speedscope(
            "critical-path phases", critpath_speedscope_samples(paths), args.speedscope
        )
        print(f"speedscope profile written to {args.speedscope} (load at speedscope.app)")
    return 0


def _contention_spans(args: argparse.Namespace) -> List[SpanRecord]:
    """Run the standard contention workload (the 16-client hot-key bench
    shape, seed 606) with tracing on and return its spans."""
    from ..bench.workers import counter_increments, run_all, site_clients
    from ..core import MusicConfig, build_music

    config = MusicConfig(fast_locks=not args.polling)
    deployment = build_music(
        profile_name=args.profile, obs=True, seed=args.seed, music_config=config
    )
    tracer = deployment.obs.tracer
    run_all(deployment.sim, [
        counter_increments(
            deployment.sim,
            partial(client.critical_section, "hot", timeout_ms=1e9),
            args.rounds,
            span=partial(tracer.span, ROOT_SPAN,
                         node=client.client_id, site=client.site, key="hot"),
        )
        for client in site_clients(deployment, args.clients)
    ])
    print(
        f"ran {args.clients} clients x {args.rounds} rounds on 1 hot key "
        f"({args.profile}, seed {args.seed}, "
        f"fast_locks={'off' if args.polling else 'on'})"
    )
    return tracer.spans


def _run_audit(args: argparse.Namespace) -> int:
    named = " ".join(args.events)
    try:
        auditor = replay_audit(*args.events)
    except OSError as error:
        print(f"cannot read {named}: {error}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as error:
        print(f"{named} is not an audit JSONL dump ({error!r})", file=sys.stderr)
        return 1
    spans: Optional[List[SpanRecord]] = None
    if args.spans:
        try:
            spans = load_jsonl(args.spans)
        except OSError as error:
            print(f"cannot read {args.spans}: {error}", file=sys.stderr)
            return 1
    print(auditor.render_report(spans=spans))
    return 0 if auditor.clean else 1


def _span_hit_ratios(spans: List[SpanRecord]) -> List[str]:
    """Hit-rate lines derivable from span attributes alone.

    Works on offline JSONL dumps, where no metrics registry exists:
    ``music.grant`` spans carry ``fast=True`` on synchFlag fast-path
    grants, ``music.criticalGet`` spans carry ``lease=True`` on
    leaseholder-local reads.
    """
    lines: List[str] = []
    grants = [span for span in spans if span.name == "music.grant"]
    fast = sum(1 for span in grants if span.attrs.get("fast"))
    if grants and (fast or any("fast" in span.attrs for span in grants)):
        lines.append(
            f"synchFlag fast-path grants: {fast}/{len(grants)} "
            f"({100.0 * fast / len(grants):.1f}%)"
        )
    reads = [span for span in spans if span.name == "music.criticalGet"]
    local = sum(1 for span in reads if span.attrs.get("lease"))
    if reads and (local or any("lease" in span.attrs for span in reads)):
        lines.append(
            f"leaseholder local criticalGets: {local}/{len(reads)} "
            f"({100.0 * local / len(reads):.1f}%)"
        )
    return lines


def _print_phase_totals(paths: Sequence[CritPath], spans: List[SpanRecord]) -> None:
    """The one phase table, its self-check line, and the hit-rates the
    spans themselves carry — what ``fig5b`` prints for its run and
    ``explain`` for its own or a dumped one."""
    print(render_phase_summary(paths))
    worst = max(
        (
            abs(path.attributed_ms - path.duration_ms) / path.duration_ms
            for path in paths
            if path.duration_ms > 0
        ),
        default=0.0,
    )
    print(
        f"attribution: phase times sum to within {100.0 * worst:.2f}% of each "
        f"CS's measured latency ({len(paths)} CSs, {len(spans)} spans)"
    )
    ratios = _span_hit_ratios(spans)
    if ratios:
        print()
        print("derived hit-rates:")
        for line in ratios:
            print(f"  {line}")


def _dump_spans(spans: List[SpanRecord], args: argparse.Namespace) -> None:
    if args.jsonl:
        write_jsonl(spans, args.jsonl)
        print(f"spans written to {args.jsonl}")
    if args.chrome:
        write_chrome_trace(spans, args.chrome)
        print(f"chrome trace written to {args.chrome} (load in Perfetto / about://tracing)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability reports for the MUSIC reproduction",
    )
    subparsers = parser.add_subparsers(
        dest="command", title="commands", metavar="{fig5b,explain,audit}"
    )

    fig5b = subparsers.add_parser(
        "fig5b",
        help="run a traced workload and print the Fig. 5(b) phase totals",
        description=(
            "Run a single-client critical-section workload with tracing on "
            "and print its critical-path phase totals (the paper's Fig. 5(b)), "
            "optionally with metrics, span dumps and the runtime ECF auditor."
        ),
    )
    fig5b.add_argument("--profile", default="lUs", help="latency profile (default lUs)")
    fig5b.add_argument("--ops", type=int, default=20, help="critical sections to run")
    fig5b.add_argument("--keys", type=int, default=4, help="distinct keys to cycle over")
    fig5b.add_argument("--value-bytes", type=int, default=256, help="payload size")
    fig5b.add_argument("--jsonl", help="also dump spans to this JSONL file")
    fig5b.add_argument("--chrome", help="also dump a Chrome trace-event JSON file")
    fig5b.add_argument(
        "--metrics", action="store_true",
        help="also print the metrics registry and derived hit-rate ratios",
    )
    fig5b.add_argument(
        "--audit", action="store_true",
        help="attach the runtime ECF auditor and print its report",
    )
    fig5b.add_argument(
        "--audit-jsonl",
        help="also dump the audit history to this JSONL file (implies --audit)",
    )
    fig5b.set_defaults(run=_run_fig5b)

    explain = subparsers.add_parser(
        "explain",
        help="critical-path attribution: why were the slowest CSs slow",
        description=(
            "Reconstruct each critical section's blocking chain from spans "
            "and print the tail-latency explainer: the slowest CSs ranked "
            "with dominant phase, guilty span IDs and replica/site, plus "
            "aggregate per-phase totals.  With no --spans file, runs the "
            "standard 16-client hot-key contention workload."
        ),
    )
    explain.add_argument(
        "--spans", help="analyze this spans.jsonl instead of running a workload"
    )
    explain.add_argument(
        "--slowest", type=int, default=5, help="how many CSs to list (default 5)"
    )
    explain.add_argument(
        "--phase", help="only list CSs whose dominant phase matches (e.g. mint.lwt)"
    )
    explain.add_argument(
        "--root", help=f"root span name (default {ROOT_SPAN})"
    )
    explain.add_argument(
        "--clients", type=int, default=16, help="contention clients (default 16)"
    )
    explain.add_argument(
        "--rounds", type=int, default=3, help="critical sections per client (default 3)"
    )
    explain.add_argument("--profile", default="lUs", help="latency profile (default lUs)")
    explain.add_argument("--seed", type=int, default=606, help="workload seed (default 606)")
    explain.add_argument(
        "--polling", action="store_true",
        help="run the paper's polling protocol, MusicConfig(fast_locks=False), "
             "instead of the default contention hot path",
    )
    explain.add_argument(
        "--histograms", action="store_true",
        help="also print per-phase latency histograms (crit.phase_ms)",
    )
    explain.add_argument("--jsonl", help="dump the raw spans to this JSONL file")
    explain.add_argument(
        "--critpath-jsonl", help="dump the CritPath records to this JSONL file"
    )
    explain.add_argument("--chrome", help="dump a Chrome trace-event JSON file")
    explain.add_argument(
        "--speedscope", help="dump a speedscope phase flamegraph to this JSON file"
    )
    explain.set_defaults(run=_run_explain)

    audit = subparsers.add_parser(
        "audit",
        help="replay a dumped audit history through the ECF checkers",
        description=(
            "Replay an events.jsonl audit history through every ECF checker "
            "and print the violation report; exit status 1 if any invariant "
            "was violated.  Several files are taken as the per-process "
            "slices of one live run and merged first."
        ),
    )
    audit.add_argument(
        "events", nargs="+",
        help="an events.jsonl produced by --audit-jsonl, or a live run's "
        "audit-*.jsonl slices",
    )
    audit.add_argument(
        "--spans",
        help="a spans.jsonl from the same run, to render guilty span trees",
    )
    audit.set_defaults(run=_run_audit)

    args = parser.parse_args(argv)
    if not hasattr(args, "run"):  # bare `python -m repro.obs`
        args = parser.parse_args(["fig5b", *(argv or [])])
    return args.run(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        raise SystemExit(0)

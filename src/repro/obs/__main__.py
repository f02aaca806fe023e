"""The ``python -m repro.obs`` report CLI.

Two commands:

- ``python -m repro.obs explain`` (the default) — the tail-latency
  explainer and the one reader of a traced run.  It runs the hot-key
  contention workload with tracing and the runtime ECF auditor on
  (``--clients 1`` is the paper's single-client Fig. 5(b) shape), or
  reads a span dump back with ``--spans``; reconstructs every critical
  section's blocking chain (:mod:`repro.obs.critpath`); and prints the
  slowest CSs with their dominant phase, guilty span IDs and
  replica/site, then the aggregate phase table.  A run then prints its
  audit report and exits 1 if any ECF invariant was violated.
  ``--jsonl`` dumps the spans — the one dump of a run's timing, which
  ``--spans`` reads back to the same tables — ``--chrome`` a Perfetto
  timeline, ``--audit-jsonl`` the audit history, and ``--metrics``
  prints the metrics registry with the per-phase ``crit.*`` histograms.
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
from typing import Any, List, Optional, Sequence

from .audit import write_audit_jsonl
from .critpath import (
    ROOT_SPAN,
    CritPath,
    explain_table,
    extract_critpaths,
    observe_phases,
    render_phase_summary,
)
from .ecf import replay_audit
from .export import load_jsonl, write_chrome_trace, write_jsonl
from .metrics import MetricsRegistry, render_derived_ratios
from .trace import SpanRecord

# What decoding a JSONL line that is not the expected record raises.
_NOT_A_DUMP = (AttributeError, KeyError, TypeError, ValueError)


def _run_explain(args: argparse.Namespace) -> int:
    deployment = None
    if args.spans:
        spans = _load_spans(args.spans)
        if spans is None:
            return 1
    else:
        deployment = _run_contention(args)
        if deployment is None:
            return 2
        spans = deployment.obs.tracer.spans

    root = args.root or ROOT_SPAN
    paths = extract_critpaths(spans, root_name=root)
    if not paths:
        print(f"no {root!r} spans found; pass --root to pick another", file=sys.stderr)
        return 1

    print(explain_table(paths, slowest=args.slowest, phase=args.phase))
    print()
    _print_phase_totals(paths, spans)
    if args.metrics:
        registry = MetricsRegistry() if deployment is None else deployment.obs.metrics
        observe_phases(paths, registry)
        print()
        print(registry.render())
        ratios = render_derived_ratios(registry)
        if ratios:
            print()
            print(ratios)
    if args.jsonl:
        write_jsonl(spans, args.jsonl)
        print(f"spans written to {args.jsonl}")
    if args.chrome:
        write_chrome_trace(spans, args.chrome)
        print(f"chrome trace written to {args.chrome} (load in Perfetto / about://tracing)")
    if deployment is None:
        return 0
    auditor = deployment.auditor
    print()
    print(auditor.render_report(spans=spans))
    if args.audit_jsonl:
        write_audit_jsonl(auditor, args.audit_jsonl)
        print(f"audit history written to {args.audit_jsonl}")
    return 0 if auditor.clean else 1


def _run_contention(args: argparse.Namespace) -> Any:
    """Run the contention workload (the 16-client hot-key bench shape,
    seed 606) traced and audited; the deployment, or None for an
    unknown profile."""
    from ..bench.workers import counter_increments, run_all, site_clients
    from ..core import MusicConfig, build_music
    from ..net import PAPER_PROFILES

    if args.profile not in PAPER_PROFILES:
        print(
            f"unknown profile {args.profile!r}; choose from "
            f"{', '.join(sorted(PAPER_PROFILES))}",
            file=sys.stderr,
        )
        return None
    config = MusicConfig(fast_locks=not args.polling)
    deployment = build_music(
        profile_name=args.profile, obs=True, audit=True, seed=args.seed,
        music_config=config,
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
    return deployment


def _run_audit(args: argparse.Namespace) -> int:
    named = " ".join(args.events)
    try:
        auditor = replay_audit(*args.events)
    except OSError as error:
        print(f"cannot read {named}: {error}", file=sys.stderr)
        return 1
    except _NOT_A_DUMP as error:
        print(f"{named} is not an audit JSONL dump ({error!r})", file=sys.stderr)
        return 1
    spans: Optional[List[SpanRecord]] = None
    if args.spans:
        spans = _load_spans(args.spans)
        if spans is None:
            return 1
    print(auditor.render_report(spans=spans))
    return 0 if auditor.clean else 1


def _load_spans(path: str) -> Optional[List[SpanRecord]]:
    """The CLI's one span-dump reader: the spans, or None once it has
    said why there are none."""
    try:
        spans = load_jsonl(path)
    except OSError as error:
        print(f"cannot read {path}: {error}", file=sys.stderr)
        return None
    except _NOT_A_DUMP as error:
        print(f"{path} is not a span JSONL dump ({error!r})", file=sys.stderr)
        return None
    if not spans:
        print(f"no spans in {path}", file=sys.stderr)
        return None
    return spans


def _span_hit_ratios(spans: List[SpanRecord]) -> List[str]:
    """Hit-rate lines derivable from span attributes alone.

    Works on offline JSONL dumps, where no metrics registry exists:
    ``music.grant`` spans carry ``fast=True`` on grants that skipped
    the synchFlag read on the hand-off row, ``music.criticalGet`` spans
    ``lease=True`` on leaseholder-local reads and ``handoff=True`` on
    hand-off serves, whose ``source`` (the grant's read or the hand-off
    row) is counted apart.
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
    for served, test in (
        ("leaseholder local", lambda attrs: attrs.get("lease")),
        ("hand-off served (grant read)", lambda attrs: attrs.get("source") == "grant"),
        ("hand-off served (row)", lambda attrs: attrs.get("source") == "row"),
    ):
        local = sum(1 for span in reads if test(span.attrs))
        if local:
            lines.append(
                f"{served} criticalGets: {local}/{len(reads)} "
                f"({100.0 * local / len(reads):.1f}%)"
            )
    return lines


def _print_phase_totals(paths: Sequence[CritPath], spans: List[SpanRecord]) -> None:
    """The one phase table, its self-check line, and the hit-rates the
    spans themselves carry."""
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability reports for the MUSIC reproduction",
    )
    subparsers = parser.add_subparsers(
        dest="command", title="commands", metavar="{explain,audit}"
    )

    explain = subparsers.add_parser(
        "explain",
        help="critical-path attribution: why were the slowest CSs slow",
        description=(
            "Reconstruct each critical section's blocking chain from spans "
            "and print the tail-latency explainer: the slowest CSs ranked "
            "with dominant phase, guilty span IDs and replica/site, plus "
            "aggregate per-phase totals.  With no --spans file, runs the "
            "hot-key contention workload traced and audited, prints the "
            "audit report, and exits 1 if an ECF invariant was violated."
        ),
    )
    # A span dump carries no audit history to write.
    exclusive = explain.add_mutually_exclusive_group()
    exclusive.add_argument(
        "--spans", help="analyze this spans.jsonl instead of running a workload"
    )
    exclusive.add_argument(
        "--audit-jsonl", help="also dump the run's audit history to this JSONL file"
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
        "--metrics", action="store_true",
        help="also print the metrics registry, derived hit-rates and the "
             "per-phase crit.* histograms (the histograms only with --spans)",
    )
    explain.add_argument("--jsonl", help="dump the raw spans to this JSONL file")
    explain.add_argument("--chrome", help="dump a Chrome trace-event JSON file")
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
        help="an events.jsonl produced by explain --audit-jsonl, or a live "
        "run's audit-*.jsonl slices",
    )
    audit.add_argument(
        "--spans",
        help="a spans.jsonl from the same run, to render guilty span trees",
    )
    audit.set_defaults(run=_run_audit)

    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in ("explain", "audit", "-h", "--help"):
        argv = ["explain", *argv]  # bare `python -m repro.obs [options]`
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        raise SystemExit(0)

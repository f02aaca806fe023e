"""CLI for the live runtime.

Commands::

    python -m repro.live init [--out cluster.toml] [--nodes 3]
        Emit a cluster-config skeleton.

    python -m repro.live node --config cluster.toml --name n0
        Run one cluster node until SIGTERM/ctrl-C (graceful drain).

    python -m repro.live client --config cluster.toml [--ops 50] ...
        Run the counter CS workload against a running cluster.

    python -m repro.live localcluster [--nodes 3] [--ops 200] ...
        Boot an N-node localhost cluster as subprocesses, run the
        audited workload, merge+replay the audit slices, print a
        verdict.  Exit code 0 iff zero violations and exact final
        state.  This is what the CI live-smoke job runs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from .config import load_cluster, localhost_spec, toml_skeleton
from .harness import run_clients, run_localcluster
from .node import run_node


def _cmd_init(args: argparse.Namespace) -> int:
    spec = localhost_spec(n_nodes=args.nodes, base_port=args.base_port)
    text = toml_skeleton(spec)
    if args.out == "-":
        print(text, end="")
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    spec = load_cluster(args.config)
    return asyncio.run(run_node(spec, args.name, duration_s=args.duration))


def _cmd_client(args: argparse.Namespace) -> int:
    spec = load_cluster(args.config)
    keys = args.keys.split(",") if args.keys else ["live-key-0"]
    result, failures = asyncio.run(
        run_clients(spec, keys, rounds=args.ops, n_clients=args.clients, timeout_s=args.timeout)
    )
    print(
        json.dumps(
            {
                "completed_cs": result.completed_cs,
                "failed_cs": result.failed_cs,
                "duration_ms": result.duration_ms,
                "cs_per_sec": result.cs_per_sec(),
                "final_values": result.final_values,
            },
            indent=2,
            sort_keys=True,
        )
    )
    for failure in failures:
        print(f"unhandled failure:\n{failure}", file=sys.stderr)
    return 0 if result.failed_cs == 0 and not failures else 1


def _cmd_localcluster(args: argparse.Namespace) -> int:
    total_rounds = max(1, args.ops // max(1, args.clients))
    summary = run_localcluster(
        n_nodes=args.nodes,
        n_clients=args.clients,
        rounds=total_rounds,
        seed=args.seed,
        base_port=args.base_port,
        run_dir=args.run_dir,
        timeout_s=args.timeout,
    )
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    verdict = "OK" if summary["ok"] else "FAILED"
    completed = summary["metrics"]["completed_cs"]
    print(
        f"live-localcluster {verdict}: {completed:.0f} critical sections, "
        f"{len(summary['violations'])} violations",
        file=sys.stderr,
    )
    return 0 if summary["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.live", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="emit a cluster-config skeleton")
    p_init.add_argument("--out", default="cluster.toml")
    p_init.add_argument("--nodes", type=int, default=3)
    p_init.add_argument("--base-port", type=int, default=7400)
    p_init.set_defaults(func=_cmd_init)

    p_node = sub.add_parser("node", help="run one cluster node")
    p_node.add_argument("--config", required=True)
    p_node.add_argument("--name", required=True)
    p_node.add_argument("--duration", type=float, default=None,
                        help="exit after this many seconds (default: until signal)")
    p_node.set_defaults(func=_cmd_node)

    p_client = sub.add_parser("client", help="run the CS workload as a client")
    p_client.add_argument("--config", required=True)
    p_client.add_argument("--ops", type=int, default=50,
                          help="critical sections per client")
    p_client.add_argument("--clients", type=int, default=2)
    p_client.add_argument("--keys", default=None, help="comma-separated key list")
    p_client.add_argument("--timeout", type=float, default=120.0)
    p_client.set_defaults(func=_cmd_client)

    p_local = sub.add_parser("localcluster",
                             help="boot cluster subprocesses + audited workload")
    p_local.add_argument("--nodes", type=int, default=3)
    p_local.add_argument("--clients", type=int, default=4)
    p_local.add_argument("--ops", type=int, default=200,
                         help="total critical sections across all clients")
    p_local.add_argument("--seed", type=int, default=0)
    p_local.add_argument("--base-port", type=int, default=None,
                         help="default: an OS-assigned free port block")
    p_local.add_argument("--run-dir", default="live-runs/latest")
    p_local.add_argument("--timeout", type=float, default=180.0)
    p_local.set_defaults(func=_cmd_localcluster)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

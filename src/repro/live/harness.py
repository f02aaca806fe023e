"""Boot live clusters, drive audited workloads, merge the evidence.

Two cluster shapes:

* :class:`LocalCluster` — every node in **this** process, all sharing
  one :class:`~repro.live.clock.LiveClock` but each with its own
  :class:`~repro.live.transport.TcpTransport` and real listening
  socket.  Inter-node traffic still crosses the loopback TCP stack, so
  framing/reconnect/reply-routing are exercised for real, without
  subprocess overhead.  This is the conformance-test vehicle.

* :class:`ProcessCluster` — one OS process per node, spawned as
  ``python -m repro.live node``, readiness via ready files, stopped
  with SIGTERM (exercising the graceful-shutdown path).  This is what
  the CLI ``localcluster`` command and the CI live-smoke job run.

Either way the evidence pipeline is the same: every process records
its audit slice, the harness merges slices on the shared wall clock
(:func:`repro.obs.merge_audit_events`) and replays the merged history
through a stream with the :class:`~repro.obs.ecf.ECFChecker` subscribed —
Exclusivity, Latest-State and FIFO verified on a *real* execution.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs import AuditStream, ECFAuditor, merge_audit_events, replay_audit
from .client import WorkloadResult, build_remote_client, drive_workload, workload_metrics
from .clock import LiveClock
from .config import ClusterSpec, localhost_spec
from .node import LiveProcess
from .transport import TcpTransport

__all__ = [
    "LocalCluster",
    "ProcessCluster",
    "free_port_block",
    "replay_merged",
    "run_clients",
    "run_localcluster",
]


def replay_merged(histories: List[List[Any]], period_ms: float) -> AuditStream:
    """Merge per-process audit slices and re-run every ECF checker."""
    merged = merge_audit_events(histories)
    return ECFAuditor.replay(merged, period_ms=period_ms)


class LocalCluster:
    """All nodes in-process on one shared LiveClock, real sockets between."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.clock = LiveClock(epoch=spec.epoch)
        self.processes: List[LiveProcess] = [
            LiveProcess(spec, node.name, clock=self.clock) for node in spec.nodes
        ]
        # The client side: its own transport (no listening socket), so
        # client->replica RPC crosses real TCP exactly as a separate
        # process's would.
        self.client_transport = TcpTransport(self.clock, spec, listen=None)
        self._clients_built = 0
        self._stopped = False

    async def start(self) -> "LocalCluster":
        for process in self.processes:
            await process.start()
        return self

    def build_client(self, site: Optional[str] = None) -> Any:
        self._clients_built += 1
        return build_remote_client(
            self.spec, self.clock, self.client_transport,
            site=site, seed_salt=self._clients_built,
        )

    async def run_workload(
        self,
        keys: List[str],
        rounds: int,
        n_clients: int,
        timeout_s: float = 120.0,
    ) -> WorkloadResult:
        return await drive_workload(
            self.clock, self.build_client, self.spec.site_names,
            keys, rounds, n_clients, timeout_s,
        )

    def drain_failures(self) -> List[str]:
        # One shared clock, so one drain covers every node in-process.
        return list(self.clock.drain_failures())

    def audit(self) -> AuditStream:
        """Merge every node's recorded slice and replay the checkers."""
        histories = [list(process.recorder.events) for process in self.processes]
        period_ms = self.spec.music_config().period_ms
        return replay_merged(histories, period_ms)

    async def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for process in self.processes:
            await process.shutdown(drain_s=0.05)
        await self.client_transport.close()
        self.clock.close()

    async def __aenter__(self) -> "LocalCluster":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()


class ProcessCluster:
    """One subprocess per node; readiness files in, SIGTERM out."""

    def __init__(self, spec: ClusterSpec, python: Optional[str] = None) -> None:
        self.spec = spec
        self.python = python or sys.executable
        self.run_dir = Path(spec.run_dir)
        self.procs: List[subprocess.Popen] = []
        self.config_path = self.run_dir / "cluster.json"

    def start(self, ready_timeout_s: float = 20.0) -> "ProcessCluster":
        self.run_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.run_dir.glob("ready-*"):
            stale.unlink()
        self.spec.write_json(self.config_path)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing else f"{src_root}{os.pathsep}{existing}"
        for node in self.spec.nodes:
            log = open(self.run_dir / f"node-{node.name}.log", "w")
            self.procs.append(
                subprocess.Popen(
                    [
                        self.python, "-m", "repro.live", "node",
                        "--config", str(self.config_path),
                        "--name", node.name,
                    ],
                    stdout=log, stderr=subprocess.STDOUT, env=env,
                )
            )
        deadline = time.time() + ready_timeout_s
        pending = {node.name for node in self.spec.nodes}
        while pending:
            pending = {
                name for name in pending
                if not (self.run_dir / f"ready-{name}").exists()
            }
            if not pending:
                break
            if time.time() > deadline:
                self.stop()
                raise TimeoutError(f"nodes never became ready: {sorted(pending)}")
            for proc, node in zip(self.procs, self.spec.nodes):
                if proc.poll() is not None and node.name in pending:
                    self.stop()
                    raise RuntimeError(
                        f"node {node.name} exited early with {proc.returncode}; "
                        f"see {self.run_dir / f'node-{node.name}.log'}"
                    )
            time.sleep(0.05)
        return self

    def stop(self, grace_s: float = 10.0) -> List[int]:
        """SIGTERM every node (graceful drain) and collect exit codes."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        codes: List[int] = []
        for proc in self.procs:
            try:
                codes.append(proc.wait(timeout=grace_s))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
        return codes

    def audit(self) -> AuditStream:
        """Replay the ``audit-*.jsonl`` slices the nodes left behind — the
        command ``python -m repro.obs audit <run_dir>/audit-*.jsonl`` runs."""
        slices = sorted(self.run_dir.glob("audit-*.jsonl"))
        return replay_audit(*(str(path) for path in slices))

    def __enter__(self) -> "ProcessCluster":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


async def run_clients(
    spec: ClusterSpec,
    keys: List[str],
    rounds: int,
    n_clients: int,
    timeout_s: float,
) -> Tuple[WorkloadResult, List[str]]:
    """The client side of a subprocess-cluster run, in this process on
    a clock and transport of its own: the workload's result and that
    clock's unhandled failures."""
    clock = LiveClock(epoch=spec.epoch)
    transport = TcpTransport(clock, spec, listen=None)
    salts = itertools.count(1)

    def new_client(site: str) -> Any:
        return build_remote_client(spec, clock, transport, site=site, seed_salt=next(salts))

    try:
        result = await drive_workload(
            clock, new_client, spec.site_names, keys, rounds, n_clients, timeout_s
        )
        return result, clock.drain_failures()
    finally:
        await transport.close()
        clock.close()


def free_port_block(count: int, attempts: int = 20) -> int:
    """A base port with ``count`` consecutive currently-free TCP ports."""
    import socket

    for _ in range(attempts):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        base = probe.getsockname()[1]
        probe.close()
        holds: List[Any] = []
        try:
            for offset in range(count):
                sock = socket.socket()
                sock.bind(("127.0.0.1", base + offset))
                holds.append(sock)
            return base
        except OSError:
            continue
        finally:
            for sock in holds:
                sock.close()
    raise RuntimeError(f"no block of {count} free ports found")


def run_localcluster(
    n_nodes: int = 3,
    n_clients: int = 4,
    keys: Optional[List[str]] = None,
    rounds: int = 25,
    seed: int = 0,
    base_port: Optional[int] = None,
    run_dir: str = "live-runs/latest",
    timeout_s: float = 120.0,
    music: Optional[Dict[str, Any]] = None,
    store: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Boot a subprocess cluster, run the audited CS workload, verify.

    Returns a summary dict with workload metrics, the merged-audit
    verdict and the final per-key values.  This is the engine behind
    ``python -m repro.live localcluster`` and the live bench axis.
    ``base_port=None`` picks a free port block from the OS.
    """
    keys = keys or [f"live-key-{i}" for i in range(max(1, n_clients // 2))]
    if base_port is None:
        base_port = free_port_block(n_nodes)
    spec = localhost_spec(
        n_nodes=n_nodes, base_port=base_port, seed=seed,
        run_dir=run_dir, music=music, store=store,
    )
    cluster = ProcessCluster(spec)
    cluster.start()
    try:
        result, client_failures = asyncio.run(
            run_clients(spec, keys, rounds, n_clients, timeout_s)
        )
    finally:
        exit_codes = cluster.stop()
    auditor = cluster.audit()
    expected = {
        key: sum(1 for i in range(n_clients) if keys[i % len(keys)] == key) * rounds
        for key in keys
    }
    summary = {
        "spec": spec.to_dict(),
        "keys": keys,
        "rounds": rounds,
        "n_clients": n_clients,
        "exit_codes": exit_codes,
        "client_failures": client_failures,
        "metrics": workload_metrics(result),
        "final_values": result.final_values,
        "expected_values": expected,
        "violations": [str(v) for v in auditor.violations],
        "audited_events": len(auditor.events),
    }
    summary["ok"] = (
        not auditor.violations
        and result.final_values == expected
        and all(code == 0 for code in exit_codes)
        and not client_failures
    )
    return summary

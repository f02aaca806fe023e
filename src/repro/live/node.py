"""One OS process of a live MUSIC cluster.

``LiveProcess`` builds, from one :class:`~repro.live.config.ClusterSpec`
entry, what :func:`repro.core.build_music` builds for the whole
simulated world — through the same two assembly functions
(:func:`repro.store.build_cluster`, :func:`repro.core.build_replicas`),
handed a :class:`~repro.live.clock.LiveClock` and a
:class:`~repro.live.transport.TcpTransport` instead of the DES pair,
the spec's full node -> site layout, and the ids this process hosts.
The protocol classes themselves (``StorageReplica``, ``MusicReplica``,
``LockStore``, ``StoreCoordinator``) are the identical, unmodified
code — that is the whole point.

Audit events go to the same :class:`~repro.obs.AuditStream` a simulated
deployment attaches, with no checker subscribed: a single process sees
only its slice of the global history, so it records, and checking
happens after the harness merges every process's slice.  The slice is
flushed to ``<run_dir>/audit-<name>.jsonl`` on shutdown, alongside span
JSONL.

Shutdown is graceful: SIGTERM/SIGINT stops accepting connections,
leaves a drain window for in-flight RPC handlers to finish and reply,
flushes the obs/audit buffers, then tears down sockets and timers — no
leaked file descriptors, no orphan asyncio tasks.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from pathlib import Path
from typing import Any, List, Optional

from ..core import build_replicas
from ..obs import AuditStream, Observability, write_audit_jsonl, write_jsonl
from ..sim import RandomStreams
from ..store import build_cluster
from .clock import LiveClock
from .config import ClusterSpec
from .transport import TcpTransport

__all__ = ["LiveProcess", "run_node"]

# Trace/span id spacing between processes, so merged traces never alias.
_ID_STRIDE = 10**12

# How long shutdown waits for in-flight RPC handlers to finish.
DEFAULT_DRAIN_S = 0.5


class LiveProcess:
    """The protocol nodes hosted by one process, over sockets."""

    def __init__(
        self,
        spec: ClusterSpec,
        node_name: str,
        clock: Optional[LiveClock] = None,
    ) -> None:
        self.spec = spec
        self.node_spec = spec.node_named(node_name)
        self.name = node_name
        self._own_clock = clock is None
        self.clock = clock or LiveClock(epoch=spec.epoch)
        node_index = spec.nodes.index(self.node_spec)
        self.obs = Observability(
            self.clock, span_id_base=(node_index + 1) * _ID_STRIDE
        )
        music_config = spec.music_config()
        self.recorder = self.obs.attach_audit(
            AuditStream(period_ms=music_config.period_ms)
        )
        self.transport = TcpTransport(
            self.clock, spec, obs=self.obs, listen=self.node_spec.address
        )
        # The layouts span the *whole* cluster (deterministic: every
        # process derives them identically from the spec); only the
        # locally-hosted nodes are instantiated here.
        self.store = build_cluster(
            self.clock, self.transport, self.transport.profile,
            config=spec.store_config(), streams=RandomStreams(spec.seed),
            layout=spec.sites_of(spec.store_ids),
            local=self.node_spec.store,
        )
        self.store.start()
        # Every replica serves its operations over RPC (the service
        # deployment of Fig. 1), which is how live clients reach us.
        self.replicas, self.detectors = build_replicas(
            self.clock, self.transport, self.store,
            spec.sites_of(spec.music_ids), music_config,
            local=self.node_spec.music,
        )

        self._shutdown_done = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Open the listening socket; after this, peers can reach us."""
        await self.transport.start()

    @property
    def run_dir(self) -> Path:
        return Path(self.spec.run_dir)

    def mark_ready(self) -> Path:
        """Drop the ready file the cluster harness polls for."""
        path = self.run_dir / f"ready-{self.name}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"{self.node_spec.host}:{self.node_spec.port}\n")
        return path

    def flush(self) -> None:
        """Write this process's audit and span slices as JSONL."""
        run_dir = self.run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        write_audit_jsonl(self.recorder, str(run_dir / f"audit-{self.name}.jsonl"))
        write_jsonl(self.obs.tracer.spans, str(run_dir / f"spans-{self.name}.jsonl"))

    async def shutdown(self, drain_s: float = DEFAULT_DRAIN_S) -> None:
        """Drain in-flight RPCs, flush obs/audit, close sockets/timers."""
        if self._shutdown_done:
            return
        self._shutdown_done = True
        # Step 1: stop accepting new connections; existing links stay up
        # so handlers mid-critical-section can still reply.
        await self.transport.stop_listening()
        # Step 2: drain window for in-flight handler processes.
        if drain_s > 0:
            await asyncio.sleep(drain_s)
        # Step 3: durable observability before the sockets go away.
        self.flush()
        # Step 4: tear down links, then the timer wheel.
        await self.transport.close()
        if self._own_clock:
            self.clock.close()

    def report_failures(self, stream=sys.stderr) -> int:
        """Print (and count) failures nobody handled; returns the count."""
        failures = self.clock.drain_failures()
        for failure in failures:
            print(f"[{self.name}] unhandled failure:\n{failure}", file=stream)
        return len(failures)


async def run_node(
    spec: ClusterSpec,
    node_name: str,
    duration_s: Optional[float] = None,
) -> int:
    """Entry point for ``python -m repro.live node``: serve until
    SIGTERM/SIGINT (or ``duration_s``), then shut down gracefully."""
    process = LiveProcess(spec, node_name)
    await process.start()
    process.mark_ready()
    print(f"READY {node_name} {process.node_spec.host}:{process.node_spec.port}", flush=True)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: List[Any] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        deadline = (
            asyncio.create_task(asyncio.sleep(duration_s))
            if duration_s is not None
            else None
        )
        stopper = asyncio.create_task(stop.wait())
        waiters = {stopper} | ({deadline} if deadline is not None else set())
        while True:
            done, _ = await asyncio.wait(waiters, timeout=1.0)
            process.report_failures()
            if done:
                break
        for task in waiters:
            task.cancel()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await process.shutdown()
        process.report_failures()
    print(f"STOPPED {node_name}", flush=True)
    # Nothing fails silently: an exception that escaped a handler or a
    # scheduled action fails the process, not just its log.
    return 1 if process.clock.fatal_failures else 0

"""Graceful shutdown: drain, flush, close — no leaks, no orphans.

SIGTERM/ctrl-C on a node (or ``LiveProcess.shutdown``) must stop
accepting connections, let in-flight RPCs drain, flush the obs/audit
JSONL, and tear down every socket and timer.  Afterwards the asyncio
loop must hold no orphan tasks and the process no leaked FDs.
"""

import asyncio
import os

from repro.live import LocalCluster

from .conftest import make_spec


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else -1


def test_local_cluster_shutdown_leaves_no_orphans(tmp_path):
    fds_before = open_fd_count()

    async def main():
        spec = make_spec(n_nodes=3, tmp_path=tmp_path)
        cluster = LocalCluster(spec)
        await cluster.start()
        await cluster.run_workload(keys=["sd-key"], rounds=2, n_clients=2, timeout_s=60.0)
        await cluster.stop()

        # Every listening server gone, every pooled link torn down.
        for process in cluster.processes:
            assert not process.transport.listening
            assert not process.transport._outbound
            assert not process.transport._inbound
        assert not cluster.client_transport.listening
        assert not cluster.client_transport._outbound
        # The shared clock holds no live timers.
        assert not cluster.clock._handles

        # No asyncio task other than the current one survives shutdown.
        await asyncio.sleep(0.05)
        leftovers = [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
        assert leftovers == []
        return cluster

    cluster = asyncio.run(main())

    # Audit and span slices were flushed for every node before teardown.
    run_dir = cluster.processes[0].run_dir
    for node in cluster.spec.nodes:
        assert (run_dir / f"audit-{node.name}.jsonl").exists()
        assert (run_dir / f"spans-{node.name}.jsonl").exists()

    if fds_before >= 0:
        fds_after = open_fd_count()
        assert fds_after <= fds_before + 1  # allow test-runner noise


def test_shutdown_is_idempotent(tmp_path):
    async def main():
        spec = make_spec(n_nodes=2, tmp_path=tmp_path)
        cluster = LocalCluster(spec)
        await cluster.start()
        await cluster.stop()
        await cluster.stop()  # second stop is a no-op, not an error
        for process in cluster.processes:
            await process.shutdown()  # already shut down: no-op

    asyncio.run(main())


def test_an_escaped_handler_exception_fails_the_node_exit_code(tmp_path, monkeypatch):
    """Nothing fails silently in a live process (ROADMAP 4e): a node
    whose handler raised exits non-zero — it used to ``return 0``
    whatever its clock had recorded — while a node that merely served
    and drained exits 0."""
    from repro.live import LiveClock, TcpTransport
    from repro.live import node as node_module
    from repro.net import Node

    class FaultyProcess(node_module.LiveProcess):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)

            def boom(message):
                raise RuntimeError("injected handler bug")

            self.replicas[0].on("test.boom", boom)

    monkeypatch.setattr(node_module, "LiveProcess", FaultyProcess)
    spec = make_spec(n_nodes=1, tmp_path=tmp_path)

    async def serve(poke: bool) -> int:
        serving = asyncio.create_task(node_module.run_node(spec, "n0", duration_s=0.5))
        if poke:
            await asyncio.sleep(0.2)
            clock = LiveClock(epoch=spec.epoch)
            transport = TcpTransport(clock, spec, listen=None)
            Node(clock, transport, "poker", "site-0").send("music-0-0", "test.boom", {})
            await asyncio.sleep(0.2)
            await transport.close()
            clock.close()
        return await serving

    assert asyncio.run(serve(poke=False)) == 0
    assert asyncio.run(serve(poke=True)) == 1

"""Layer drives: loops that call one layer's public functions in isolation.

Each drive has two halves.  The *timed* run has observability off and wraps
every call into the layer in a bench-side span (name, start, end,
parent, op id); the per-call cost is the mean span duration.  The
*counted* run repeats a few calls with ``obs=True`` / ``SimProfiler`` /
a network tap attached and records what one call is made of: kernel
events, RPCs, messages, bytes, simulated ms, and how many calls into
the layers beneath it (by span name).  ``layers.self_costs`` subtracts
the layers beneath from each drive to get a layer's self cost.

No tracing code lives in ``src/``; spans are kept in memory here and
written to ``out/trace-*.jsonl`` when the traced pass ends.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core import build_music
from repro.live import LiveClock, TcpTransport, localhost_spec
from repro.live.codec import FrameReader, encode_frame
from repro.live.harness import free_port_block
from repro.net import PAPER_PROFILES, Network, Node
from repro.obs import SimProfiler
from repro.sim import Mailbox, Simulator
from repro.storage import StorageEngine
from repro.store.types import Condition, Consistency, Update

from .workloads import SIM_LIMIT_MS, MessageTap

DRIVE_SEED = 4242
_COUNTED_CALLS = 8
_SLICE_S = 0.025
# Drives rotate over this many keys: a lock partition keeps a tombstone
# per released lockRef and every queue read scans them, so hammering
# one key would time the partition's growth rather than the call.
_KEYS = 1024
# Every protocol-level drive call ends, still inside its timed region,
# with a sleep longer than one WAN round trip: replies that a quorum
# did not wait for arrive (and are paid for) in the call that caused
# them rather than in the next one.
DRAIN_MS = 60.0

# Span names (as repro.obs records them) that mark a call into a layer;
# the counted run tallies these per drive call.
_UNIT_SPANS = {
    "paxos.prepare": "store.cas",  # one per CAS *attempt*
    "lockstore.enqueue": "lockstore.enqueue",
    "lockstore.peek": "lockstore.peek",
    "lockstore.dequeue": "lockstore.dequeue",
    # Every MusicReplica operation a client can call is one "core.op".
    "music.createLockRef": "core.op",
    "music.acquireLock": "core.op",
    "music.criticalGet": "core.op",
    "music.criticalPut": "core.op",
    "music.releaseLock": "core.op",
}


def unit_of(span: Any) -> Optional[str]:
    """The reconstruction unit a recorded span is one call of, if any.

    Store reads and writes split by consistency: a ONE operation waits
    on (and, for reads, contacts) a single replica, so it costs the host
    far less than its QUORUM twin.
    """
    name = span.name
    if name in ("store.get", "store.put"):
        return name if span.attrs.get("consistency") in ("QUORUM", "ALL") else name + "_one"
    return _UNIT_SPANS.get(name)


class SpanLog:
    """Bench-side spans, kept in memory until the traced pass ends.

    ``calls`` > 1 marks a span that covers a batch of sub-50µs calls (a
    span per call would cost as much as the call it measures).
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, Optional[str], int, int]] = []

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[str] = None, op: int = 0, calls: int = 1,
    ) -> None:
        self.rows.append((name, start, end, parent, op, calls))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, op, calls in self.rows:
                out.write(json.dumps({
                    "name": name, "start_s": start, "end_s": end,
                    "parent": parent, "op": op, "calls": calls,
                }) + "\n")


@dataclass
class DriveResult:
    """What one call into a layer costs and what it is made of."""

    us_per_call: float = 0.0
    calls: int = 0
    # Per call, from the counted run.
    events: float = 0.0
    rpcs: float = 0.0
    msgs: float = 0.0
    bytes: float = 0.0
    sim_ms: float = 0.0
    units: Dict[str, float] = field(default_factory=dict)


class _Region:
    """Marks the part of a drive step that calls the layer under test.

    Timed mode records a bench-side span per region; counted mode diffs
    the profiler / tap / tracer around it.
    """

    def __init__(
        self, name: str, sim: Any, spans: Optional[SpanLog] = None,
        tap: Optional[MessageTap] = None, tracer: Any = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.spans = spans
        self.tap = tap
        self.tracer = tracer
        self.durations: List[float] = []
        self.op = 0
        self.calls = 0
        self.totals = {"events": 0.0, "rpcs": 0.0, "msgs": 0.0, "bytes": 0.0, "sim_ms": 0.0}
        self.units: Dict[str, float] = {}
        self._batch = 1

    def __call__(self, calls: int = 1) -> "_Region":
        self._batch = calls
        return self

    def __enter__(self) -> "_Region":
        profiler = self.sim.profiler
        if profiler is not None:
            self._at = (
                profiler.events, profiler.rpc_envelopes,
                self.tap.count if self.tap else 0,
                self.tap.bytes if self.tap else 0,
                self.sim.now,
                len(self.tracer.spans) if self.tracer else 0,
            )
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        ended = time.perf_counter()
        batch = self._batch
        self._batch = 1
        self.calls += batch
        self.op += 1
        profiler = self.sim.profiler
        if profiler is None:
            self.durations.append((ended - self._began) / batch)
            if self.spans is not None:
                self.spans.add(
                    self.name, self._began, ended, parent="drives",
                    op=self.op, calls=batch,
                )
            return
        events, rpcs, msgs, size, now, span_count = self._at
        totals = self.totals
        totals["events"] += profiler.events - events
        totals["rpcs"] += profiler.rpc_envelopes - rpcs
        totals["sim_ms"] += self.sim.now - now
        if self.tap is not None:
            totals["msgs"] += self.tap.count - msgs
            totals["bytes"] += self.tap.bytes - size
        if self.tracer is not None:
            for span in self.tracer.spans[span_count:]:
                unit = unit_of(span)
                if unit is not None:
                    self.units[unit] = self.units.get(unit, 0.0) + 1.0

    def result(self, timed: "_Region") -> DriveResult:
        """Combine this (counted) region with its timed twin."""
        calls = max(self.calls, 1)
        return DriveResult(
            us_per_call=1e6 * statistics.mean(timed.durations),
            calls=timed.calls,
            units={name: count / calls for name, count in self.units.items()},
            **{name: total / calls for name, total in self.totals.items()},
        )


Step = Callable[[int, _Region], Generator[Any, Any, None]]


def _loop(
    sim: Any, step: Step, region: _Region, budget_s: float,
    start: int = 0, max_steps: int = 10**9,
) -> int:
    """Run ``step`` back-to-back in one process until the budget is
    spent; returns the index the next slice starts from."""
    stop = [start]

    def loop() -> Generator[Any, Any, None]:
        deadline = time.perf_counter() + budget_s
        while stop[0] < start + max_steps:
            yield from step(stop[0], region)
            stop[0] += 1
            if time.perf_counter() >= deadline:
                break

    sim.run_until_complete(
        sim.process(loop(), name=f"drive:{region.name}"), limit=SIM_LIMIT_MS
    )
    return stop[0]


class _Drive:
    """A timed loop (observability off) and its counted twin."""

    def __init__(
        self, timed: _Region, timed_step: Step, counted: _Region, counted_step: Step
    ) -> None:
        self.timed = timed
        self.timed_step = timed_step
        self.counted = counted
        self.counted_step = counted_step
        self._next = 0

    def run_slice(self) -> None:
        self._next = _loop(
            self.timed.sim, self.timed_step, self.timed, _SLICE_S, start=self._next
        )

    def finish(self) -> DriveResult:
        _loop(
            self.counted.sim, self.counted_step, self.counted, 1.0,
            max_steps=_COUNTED_CALLS,
        )
        return self.counted.result(self.timed)


def _music_drive(
    name: str, spans: SpanLog, prepare: Callable[[Any], Step], **build_kw: Any
) -> _Drive:
    """A drive against a full deployment: timed with obs off, counted on
    a twin built with obs, profiler and a tap attached."""
    timed = build_music(seed=DRIVE_SEED, **build_kw)
    counted = build_music(seed=DRIVE_SEED, obs=True, profile=True, **build_kw)
    tap = MessageTap()
    counted.network.add_tap(tap)
    return _Drive(
        _Region(name, timed.sim, spans=spans), prepare(timed),
        _Region(name, counted.sim, tap=tap, tracer=counted.obs.tracer),
        prepare(counted),
    )


def _kernel_drive(
    name: str, spans: SpanLog,
    prepare: Callable[[Simulator, Optional[MessageTap]], Step],
) -> _Drive:
    """A drive against a bare simulator (sim, net and storage layers)."""
    timed_sim, counted_sim = Simulator(), Simulator()
    SimProfiler().install(counted_sim)
    tap = MessageTap()
    return _Drive(
        _Region(name, timed_sim, spans=spans), prepare(timed_sim, None),
        _Region(name, counted_sim, tap=tap), prepare(counted_sim, tap),
    )


# -- sim ---------------------------------------------------------------------------


def _prepare_timeouts(sim: Simulator, _tap: Optional[MessageTap]) -> Step:
    processes_n, timeouts_n = 64, 16

    def sleeper() -> Generator[Any, Any, None]:
        for _ in range(timeouts_n):
            yield sim.timeout(1.0)

    def step(_index: int, region: _Region) -> Generator[Any, Any, None]:
        with region(calls=processes_n * timeouts_n):
            yield sim.all_of([sim.process(sleeper()) for _ in range(processes_n)])

    return step


def _prepare_mailboxes(sim: Simulator, _tap: Optional[MessageTap]) -> Step:
    round_trips = 256

    def step(index: int, region: _Region) -> Generator[Any, Any, None]:
        ping, pong = Mailbox(sim, name="ping"), Mailbox(sim, name="pong")

        def echo() -> Generator[Any, Any, None]:
            for _ in range(round_trips):
                item = yield ping.get()
                pong.put(item)

        def caller() -> Generator[Any, Any, None]:
            for item in range(round_trips):
                ping.put(item)
                yield pong.get()

        with region(calls=2 * round_trips):
            yield sim.all_of([sim.process(echo()), sim.process(caller())])

    return step


# -- net ---------------------------------------------------------------------------


def _prepare_rpc(sim: Simulator, tap: Optional[MessageTap]) -> Step:
    profile = PAPER_PROFILES["lUs"]
    network = Network(sim, profile)
    if tap is not None:
        network.add_tap(tap)
    server = Node(sim, network, "echo-server", profile.site_names[1])
    client = Node(sim, network, "echo-client", profile.site_names[0])
    server.on("echo", lambda request: server.reply(request, Node.payload(request)))
    server.start()
    client.start()

    def step(index: int, region: _Region) -> Generator[Any, Any, None]:
        with region:
            yield from client.call("echo-server", "echo", index)

    return step


# -- store ---------------------------------------------------------------------------

_TABLE = "e2e_drive"


def _prepare_store(op: str, consistency: str = Consistency.QUORUM) -> Callable[[Any], Step]:
    def prepare(deployment: Any) -> Step:
        coordinator = deployment.replicas[0].coordinator
        writer = coordinator.node.node_id

        def step(index: int, region: _Region) -> Generator[Any, Any, None]:
            key = f"row-{index % _KEYS}"
            stamp = (float(index + 1), writer)
            with region:
                if op == "get":
                    yield from coordinator.get(_TABLE, key, consistency=consistency)
                elif op == "put":
                    yield from coordinator.put(
                        _TABLE, key, None, {"v": index}, stamp, consistency=consistency
                    )
                else:
                    update = Update(_TABLE, key, None, {"v": index}, stamp)
                    yield from coordinator.cas(
                        _TABLE, key, Condition("always"), [update],
                        stamp_with_ballot=True,
                    )
                yield coordinator.sim.timeout(DRAIN_MS)

        return step

    return prepare


# -- storage -------------------------------------------------------------------------


def _prepare_storage(op: str) -> Callable[[Simulator, Optional[MessageTap]], Step]:
    rows_per_flush = 64

    def prepare(sim: Simulator, _tap: Optional[MessageTap]) -> Step:
        engine = StorageEngine(sim, node_id="e2e-drive")

        def updates(index: int) -> List[Update]:
            return [
                Update(
                    _TABLE, f"p-{row % 8}", row, {"v": index},
                    (float(index * rows_per_flush + row + 1), "e2e-drive"),
                )
                for row in range(rows_per_flush)
            ]

        def step(index: int, region: _Region) -> Generator[Any, Any, None]:
            if op == "commit":
                for update in updates(index):
                    with region:
                        yield from engine.commit([update])
                engine.flush()
            else:
                for update in updates(index):
                    yield from engine.commit([update])
                with region:
                    engine.flush()

        return step

    return prepare


# -- lockstore ------------------------------------------------------------------------


def _prepare_lockstore(op: str) -> Callable[[Any], Step]:
    def prepare(deployment: Any) -> Step:
        lock_store = deployment.replicas[0].lock_store

        def drained() -> Any:
            return lock_store.sim.timeout(DRAIN_MS)

        def step(index: int, region: _Region) -> Generator[Any, Any, None]:
            key = f"e2e-drive-lock-{index % _KEYS}"
            if op == "enqueue":
                with region:
                    lock_ref = yield from lock_store.generate_and_enqueue(key)
                    yield drained()
                yield from lock_store.dequeue(key, lock_ref)
                yield drained()
                return
            lock_ref = yield from lock_store.generate_and_enqueue(key)
            yield drained()
            if op == "peek":
                for _ in range(8):
                    with region:
                        yield from lock_store.peek(key)
                        yield drained()
                yield from lock_store.dequeue(key, lock_ref)
                yield drained()
            else:
                with region:
                    yield from lock_store.dequeue(key, lock_ref)
                    yield drained()

        return step

    return prepare


# -- core -----------------------------------------------------------------------------


def _prepare_core(deployment: Any) -> Step:
    client = deployment.client(deployment.profile.site_names[0])

    def step(index: int, region: _Region) -> Generator[Any, Any, None]:
        key = f"e2e-drive-{index % _KEYS}"
        with region:
            section = yield from client.critical_section(key, timeout_ms=1e9)
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            yield deployment.sim.timeout(DRAIN_MS)

    return step


# -- leases ---------------------------------------------------------------------------


def _prepare_leases(deployment: Any) -> Step:
    sim = deployment.sim
    client = deployment.client(deployment.profile.site_names[0])
    holder: List[Any] = []

    def step(index: int, region: _Region) -> Generator[Any, Any, None]:
        if not holder:
            section = yield from client.critical_section("e2e-drive-lease", timeout_ms=1e9)
            yield from section.put({"seq": 0})
            holder.append(section)
        # Stay inside one lease window (read_lease_ms = 400): re-anchor
        # with a quorum write well before it closes.
        if index % 64 == 63:
            yield from holder[0].put({"seq": index})
        with region:
            yield from holder[0].get()
            yield sim.timeout(2.0)

    return step


# -- obs ------------------------------------------------------------------------------


def _drive_obs(spans: SpanLog, budget_s: float) -> Dict[str, float]:
    """The same short contended run with obs/audit off, obs on, audit on."""

    def run(**build_kw: Any) -> float:
        deployment = build_music(seed=DRIVE_SEED, **build_kw)
        sim = deployment.sim
        sites = deployment.profile.site_names

        def worker(client: Any) -> Generator[Any, Any, None]:
            for _ in range(3):
                section = yield from client.critical_section("hot", timeout_ms=1e9)
                value = yield from section.get()
                yield from section.put((value or 0) + 1)
                yield from section.exit()

        processes = [
            sim.process(worker(deployment.client(sites[i % len(sites)])))
            for i in range(8)
        ]
        began = time.perf_counter()
        for process in processes:
            sim.run_until_complete(process, limit=SIM_LIMIT_MS)
        ended = time.perf_counter()
        label = "+".join(sorted(build_kw)) or "off"
        spans.add(f"obs.run[{label}]", began, ended, parent="drives")
        return ended - began

    walls: Dict[str, List[float]] = {"off": [], "obs": [], "audit": []}
    deadline = time.perf_counter() + budget_s
    while True:
        walls["off"].append(run())
        walls["obs"].append(run(obs=True))
        walls["audit"].append(run(audit=True))
        if len(walls["off"]) >= 2 and time.perf_counter() >= deadline:
            break
    base = statistics.median(walls["off"])
    return {
        "obs.trace_overhead_frac": statistics.median(walls["obs"]) / base - 1.0,
        "obs.audit_overhead_frac": statistics.median(walls["audit"]) / base - 1.0,
    }


# -- live -----------------------------------------------------------------------------


def wire_frames(tap: MessageTap, spec: Any) -> List[Dict[str, Any]]:
    """The frames TcpTransport put on a socket: every tapped message
    whose two ends live in different processes of ``spec``."""

    def process_of(node_id: str) -> str:
        try:
            return spec.owner_of(node_id).name
        except KeyError:
            return node_id  # a client: its own process

    frames = []
    for message in tap.messages or []:
        if process_of(message.src) != process_of(message.dst):
            frames.append({
                "src": message.src, "src_site": "", "dst": message.dst,
                "kind": message.kind, "body": message.body,
                "size_bytes": message.size_bytes, "sent_at": message.sent_at,
            })
    return frames


def _drive_codec(
    spans: SpanLog, budget_s: float, frames: List[Dict[str, Any]]
) -> Dict[str, float]:
    encoded = [encode_frame(frame) for frame in frames]
    stream = b"".join(encoded)
    encode_s: List[float] = []
    decode_s: List[float] = []
    deadline = time.perf_counter() + budget_s
    while True:
        began = time.perf_counter()
        for frame in frames:
            encode_frame(frame)
        middle = time.perf_counter()
        decoded = FrameReader().feed(stream)
        ended = time.perf_counter()
        if len(decoded) != len(frames):
            raise RuntimeError("codec drive: frames did not round-trip")
        spans.add("live.codec.encode", began, middle, "drives", calls=len(frames))
        spans.add("live.codec.decode", middle, ended, "drives", calls=len(frames))
        encode_s.append((middle - began) / len(frames))
        decode_s.append((ended - middle) / len(frames))
        if ended >= deadline:
            break
    return {
        "live.codec_encode_us": 1e6 * statistics.median(encode_s),
        "live.codec_decode_us": 1e6 * statistics.median(decode_s),
        "live.codec_frame_bytes": len(stream) / len(frames),
    }


def _drive_live_runtime(spans: SpanLog, budget_s: float) -> Dict[str, float]:
    """Loopback echo over two TcpTransports, and LiveClock timer lag."""

    async def main() -> Dict[str, float]:
        spec = localhost_spec(n_nodes=2, base_port=free_port_block(2), seed=DRIVE_SEED)
        clock = LiveClock(epoch=spec.epoch)
        transports = [
            TcpTransport(clock, spec, listen=node.address) for node in spec.nodes
        ]
        # Plain Nodes under the spec's own ids, so frames route by address.
        server = Node(clock, transports[0], "store-0-0", "site-0")
        client = Node(clock, transports[1], "store-1-0", "site-1")
        server.on("echo", lambda request: server.reply(request, Node.payload(request)))
        rtts: List[float] = []
        lags: List[float] = []

        def echo_loop() -> Generator[Any, Any, None]:
            deadline = time.perf_counter() + budget_s / 2
            index = 0
            while time.perf_counter() < deadline:
                began = time.perf_counter()
                yield from client.call("store-0-0", "echo", index)
                ended = time.perf_counter()
                spans.add("live.transport.rtt", began, ended, "drives", op=index)
                rtts.append(ended - began)
                index += 1

        def timer_loop() -> Generator[Any, Any, None]:
            deadline = time.perf_counter() + budget_s / 2
            index = 0
            while time.perf_counter() < deadline:
                began = time.perf_counter()
                yield clock.timeout(1.0)
                ended = time.perf_counter()
                spans.add("live.clock.timer", began, ended, "drives", op=index)
                lags.append(ended - began - 0.001)
                index += 1

        try:
            for transport in transports:
                await transport.start()
            server.start()
            client.start()
            await clock.run_process(echo_loop(), name="drive:echo")
            await clock.run_process(timer_loop(), name="drive:timer")
            failures = clock.drain_failures()
            if failures:
                raise RuntimeError(f"live drive failed: {failures[0]}")
        finally:
            for transport in transports:
                await transport.close()
            clock.close()
        # A frame's own cost on the wire path: half an echo round trip
        # minus encoding and decoding the (minimal) echo frame itself.
        echo_frame = {
            "src": "store-1-0", "src_site": "site-1", "dst": "store-0-0",
            "kind": "echo", "size_bytes": 64, "sent_at": 0.0,
            "body": {"request_id": 0, "reply_to": "store-1-0", "payload": 0},
        }
        echo_codec = _drive_codec(SpanLog(), 0.01, [echo_frame])
        rtt_us = 1e6 * statistics.median(rtts[1:] or rtts)
        return {
            "live.transport_rtt_us": rtt_us,
            "live.transport_frame_us": rtt_us / 2.0
            - echo_codec["live.codec_encode_us"] - echo_codec["live.codec_decode_us"],
            "live.clock_timer_lag_us": 1e6 * statistics.median(lags),
        }

    return asyncio.run(main())


# -- all of them ----------------------------------------------------------------------


@dataclass
class Drives:
    """Every drive's result: per-call costs, compositions, and the flat
    drive-level metrics that need no further arithmetic."""

    calls: Dict[str, DriveResult]
    flat: Dict[str, float]


def run_drives(spans: SpanLog, budget_s: float, frames: List[Dict[str, Any]]) -> Drives:
    """Run every layer drive, ``budget_s`` seconds each.

    The drives that feed the self-cost subtraction take turns in short
    slices: host speed drifts by several percent from second to second
    here, and a drive and the drives beneath it must see the same drift
    for their difference to mean anything.  (Slices much shorter than
    this time cold caches instead: a lone RPC after sixteen other
    drives costs five times its hot-loop price.)
    """
    loops: Dict[str, _Drive] = {
        "sim.timeout": _kernel_drive("sim.timeout", spans, _prepare_timeouts),
        "sim.mailbox": _kernel_drive("sim.mailbox", spans, _prepare_mailboxes),
        "net.rpc": _kernel_drive("net.rpc", spans, _prepare_rpc),
        "storage.commit": _kernel_drive("storage.commit", spans, _prepare_storage("commit")),
        "storage.flush": _kernel_drive("storage.flush", spans, _prepare_storage("flush")),
    }
    for op in ("get", "put", "cas"):
        loops[f"store.{op}"] = _music_drive(f"store.{op}", spans, _prepare_store(op))
    for op in ("get", "put"):
        loops[f"store.{op}_one"] = _music_drive(
            f"store.{op}_one", spans, _prepare_store(op, Consistency.ONE)
        )
    for op in ("enqueue", "peek", "dequeue"):
        loops[f"lockstore.{op}"] = _music_drive(
            f"lockstore.{op}", spans, _prepare_lockstore(op)
        )
    loops["core.cs"] = _music_drive("core.cs", spans, _prepare_core)
    loops["leases.local_get"] = _music_drive(
        "leases.local_get", spans, _prepare_leases, read_leases=True
    )
    deadline = time.perf_counter() + budget_s * len(loops)
    while time.perf_counter() < deadline:
        for drive in loops.values():
            drive.run_slice()
    calls = {name: drive.finish() for name, drive in loops.items()}
    flat = _drive_obs(spans, budget_s)
    flat.update(_drive_codec(spans, budget_s, frames))
    flat.update(_drive_live_runtime(spans, budget_s))
    return Drives(calls, flat)

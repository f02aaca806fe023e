"""Asyncio TCP implementation of :class:`repro.runtime.Transport`.

Mirrors the public surface of the simulated :class:`repro.net.Network`
so that :class:`repro.net.Node` (and everything above it) runs
unmodified: ``register``/``send``/``site_of``/``is_failed``/``obs``/
``profile``/``stats``/``add_tap`` all exist with the same meanings.
What changes underneath:

- **Latency is real.**  ``send`` frames the message (tagged JSON behind
  a 4-byte length prefix, :mod:`repro.live.codec`; the frame carries
  every :class:`~repro.net.Message` field the receiver needs, RPC
  ``request_id`` and ``trace`` included) and hands it to a per-peer
  connection; the DES's modelled WAN latency, NIC egress
  queue and seeded loss are gone, because the operating system provides
  the genuine articles.
- **Connections are pooled and self-healing.**  One outbound connection
  per peer *process* (several protocol nodes share a process, hence a
  socket), lazily established, re-established with exponential backoff
  after failures.  Queued frames are dropped once the queue cap is hit
  — the same fair-loss contract the simulated network offers, which the
  protocol already tolerates by construction (RPC timeouts + retries).
- **Replies can ride inbound sockets.**  Client processes do not
  listen; a server process routes frames addressed to a node id it has
  no configured address for over the socket that node's traffic
  arrived on.

``fail_node``/``partition_sites`` keep their meanings for *local*
endpoints (drop at send/delivery), which is enough for in-process fault
tests; cross-process fault injection is a matter of killing processes.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..net.network import Message, NetworkStats
from ..obs import NULL_OBS
from .clock import LiveClock
from .codec import FrameReader, encode_frame
from .config import ClusterSpec

__all__ = ["TcpTransport"]

# Outbound per-peer queue cap: beyond this, frames are dropped
# (fair loss) rather than buffered without bound.
MAX_QUEUED_FRAMES = 8192

RECONNECT_INITIAL_S = 0.05
RECONNECT_MAX_S = 2.0


class _LocalEndpoint:
    __slots__ = ("node_id", "site", "inbox", "failed")

    def __init__(self, node_id: str, site: str, inbox: Any) -> None:
        self.node_id = node_id
        self.site = site
        self.inbox = inbox
        self.failed = False


class _Link:
    """One live socket (either direction) with an outbound frame queue."""

    def __init__(self, transport: "TcpTransport", label: str) -> None:
        self.transport = transport
        self.label = label
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=MAX_QUEUED_FRAMES)
        self.tasks: List[asyncio.Task] = []
        self.writer: Optional[asyncio.StreamWriter] = None
        self.closed = False

    def enqueue(self, data: bytes) -> bool:
        if self.closed:
            return False
        try:
            self.queue.put_nowait(data)
            return True
        except asyncio.QueueFull:
            return False

    async def _drain_queue(self) -> None:
        while True:
            data = await self.queue.get()
            writer = self.writer
            if writer is None:
                continue
            writer.write(data)
            await writer.drain()

    async def close(self) -> None:
        self.closed = True
        for task in self.tasks:
            task.cancel()
        for task in self.tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.tasks.clear()
        if self.writer is not None:
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except Exception:
                pass
            self.writer = None


class _InboundLink(_Link):
    """A socket accepted by our server; dies with the connection."""

    def start(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        loop = self.transport.sim.loop
        self.tasks = [
            loop.create_task(self.transport._read_loop(reader, self)),
            loop.create_task(self._drain_queue()),
        ]


class _OutboundLink(_Link):
    """The pooled, reconnecting connection to one peer process."""

    def __init__(self, transport: "TcpTransport", address: Tuple[str, int]) -> None:
        super().__init__(transport, label=f"{address[0]}:{address[1]}")
        self.address = address
        self.tasks = [transport.sim.loop.create_task(self._run())]

    async def _run(self) -> None:
        backoff = RECONNECT_INITIAL_S
        while not self.closed:
            try:
                reader, writer = await asyncio.open_connection(*self.address)
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, RECONNECT_MAX_S)
                continue
            backoff = RECONNECT_INITIAL_S
            self.writer = writer
            read_task = self.transport.sim.loop.create_task(
                self.transport._read_loop(reader, self)
            )
            try:
                await self._drain_queue_until_error()
            finally:
                read_task.cancel()
                self.writer = None
                try:
                    writer.close()
                    await writer.wait_closed()
                except Exception:
                    pass

    async def _drain_queue_until_error(self) -> None:
        while True:
            data = await self.queue.get()
            writer = self.writer
            if writer is None:
                return
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                # The frame in flight is lost (fair loss); reconnect.
                return


class TcpTransport:
    """Real sockets behind the simulated Network's interface."""

    def __init__(
        self,
        clock: LiveClock,
        spec: ClusterSpec,
        obs: Any = None,
        listen: Optional[Tuple[str, int]] = None,
    ) -> None:
        self.sim = clock
        self.spec = spec
        self.profile = spec.latency_profile()
        self.stats = NetworkStats()
        self._endpoints: Dict[str, _LocalEndpoint] = {}
        self._addresses: Dict[str, Tuple[str, int]] = spec.addresses()
        self._remote_sites: Dict[str, str] = {
            node_id: spec.site_of(node_id) for node_id in self._addresses
        }
        self._outbound: Dict[Tuple[str, int], _OutboundLink] = {}
        self._inbound: List[_InboundLink] = []
        # Return routes for peers without configured addresses (clients):
        # node id -> the link its traffic last arrived on.
        self._return_links: Dict[str, _Link] = {}
        self._taps: List[Callable[[Message], None]] = []
        self._partitions: Set[frozenset] = set()
        self._listen = listen
        self._server: Optional[asyncio.AbstractServer] = None
        self.obs = obs or NULL_OBS

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Begin accepting inbound connections (if this process listens)."""
        if self._listen is None or self._server is not None:
            return
        host, port = self._listen
        self._server = await asyncio.start_server(self._on_connection, host, port)

    @property
    def listening(self) -> bool:
        return self._server is not None

    async def stop_listening(self) -> None:
        """Stop accepting connections; established links stay up."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def close(self) -> None:
        """Close the server and every link; in-queue frames are dropped."""
        await self.stop_listening()
        links: List[_Link] = list(self._outbound.values()) + list(self._inbound)
        self._outbound.clear()
        self._inbound.clear()
        self._return_links.clear()
        for link in links:
            await link.close()

    # -- membership (Network-compatible) -----------------------------------

    def register(self, node_id: str, site: str, inbox: Any) -> None:
        if node_id in self._endpoints:
            raise ValueError(f"node id {node_id!r} already registered")
        if site not in self.profile.site_names:
            raise ValueError(f"site {site!r} not in profile {self.profile.name!r}")
        self._endpoints[node_id] = _LocalEndpoint(node_id, site, inbox)

    def site_of(self, node_id: str) -> str:
        endpoint = self._endpoints.get(node_id)
        if endpoint is not None:
            return endpoint.site
        return self._remote_sites[node_id]

    def node_ids(self) -> List[str]:
        ids = list(self._endpoints)
        ids.extend(n for n in self._addresses if n not in self._endpoints)
        return ids

    # -- failures and partitions (local semantics) -------------------------

    def fail_node(self, node_id: str) -> None:
        self._endpoints[node_id].failed = True

    def recover_node(self, node_id: str) -> None:
        self._endpoints[node_id].failed = False

    def is_failed(self, node_id: str) -> bool:
        endpoint = self._endpoints.get(node_id)
        return endpoint.failed if endpoint is not None else False

    def partition_sites(self, site_a: str, site_b: str) -> None:
        self._partitions.add(frozenset((site_a, site_b)))

    def heal_sites(self, site_a: str, site_b: str) -> None:
        self._partitions.discard(frozenset((site_a, site_b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def partitioned(self, site_a: str, site_b: str) -> bool:
        return frozenset((site_a, site_b)) in self._partitions

    # -- observation -------------------------------------------------------

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        self._taps.append(tap)

    # -- transport ---------------------------------------------------------

    def send(
        self, src: str, dst: str, kind: str, body: Any, size_bytes: int = 64,
        request_id: int = -1, trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Fire-and-forget, exactly like the simulated fair-loss link."""
        message = Message(src, dst, kind, body, size_bytes, self.sim.now, request_id, trace)
        self.stats.sent += 1
        self.stats.bytes_sent += size_bytes
        self.stats.per_kind[kind] = self.stats.per_kind.get(kind, 0) + 1
        for tap in self._taps:
            tap(message)

        source = self._endpoints.get(src)
        if source is not None and source.failed:
            self.stats.dropped_failed += 1
            return

        target = self._endpoints.get(dst)
        if target is not None:
            # Same-process delivery: next loop iteration, like a
            # same-time DES heap entry.
            self.sim.schedule(0.0, self._deliver_local, message)
            return

        src_site = source.site if source is not None else self._remote_sites.get(src, "")
        frame = {
            "src": src,
            "src_site": src_site,
            "dst": dst,
            "kind": kind,
            "body": body,
            "size_bytes": size_bytes,
            "sent_at": message.sent_at,
            "request_id": request_id,
            "trace": trace,
        }
        try:
            data = encode_frame(frame)
        except Exception:
            self.stats.dropped_loss += 1
            raise
        if not self._route(dst, data):
            self.stats.dropped_loss += 1

    def _route(self, dst: str, data: bytes) -> bool:
        address = self._addresses.get(dst)
        if address is not None:
            link = self._outbound.get(address)
            if link is None:
                link = _OutboundLink(self, address)
                self._outbound[address] = link
            return link.enqueue(data)
        link = self._return_links.get(dst)
        if link is not None and not link.closed:
            return link.enqueue(data)
        return False

    def _deliver_local(self, message: Message) -> None:
        target = self._endpoints.get(message.dst)
        source = self._endpoints.get(message.src)
        if target is None or target.failed or (source is not None and source.failed):
            self.stats.dropped_failed += 1
            return
        src_site = source.site if source is not None else self._remote_sites.get(message.src)
        if src_site is not None and self.partitioned(src_site, target.site):
            self.stats.dropped_partition += 1
            return
        self.stats.delivered += 1
        # Runs the node's handler; this is a scheduled action, so the
        # clock isolates whatever the handler raises.
        target.inbox.put(message)

    # -- socket plumbing ---------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        link = _InboundLink(self, label=f"in:{peer}")
        self._inbound.append(link)
        link.start(reader, writer)

    async def _read_loop(self, reader: asyncio.StreamReader, link: _Link) -> None:
        frames = FrameReader()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for frame in frames.feed(data):
                    self._on_frame(frame, link)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            return
        finally:
            if isinstance(link, _InboundLink):
                # The connection is gone: tear the link down here (its
                # drain task would otherwise idle forever) — but never
                # cancel ourselves; we are already returning.
                link.closed = True
                if link in self._inbound:
                    self._inbound.remove(link)
                current = asyncio.current_task()
                for task in link.tasks:
                    if task is not current:
                        task.cancel()
                if link.writer is not None:
                    try:
                        link.writer.close()
                    except Exception:
                        pass
                    link.writer = None

    def _on_frame(self, frame: Dict[str, Any], link: _Link) -> None:
        src = frame.get("src", "")
        if src and src not in self._addresses:
            # A peer we cannot dial back (a client): replies retrace
            # the socket its request arrived on.
            self._return_links[src] = link
        src_site = frame.get("src_site")
        if src and src_site:
            self._remote_sites.setdefault(src, src_site)
        message = Message(
            src=src,
            dst=frame.get("dst", ""),
            kind=frame.get("kind", ""),
            body=frame.get("body"),
            size_bytes=int(frame.get("size_bytes", 0)),
            sent_at=float(frame.get("sent_at", self.sim.now)),
            request_id=int(frame.get("request_id", -1)),
            trace=frame.get("trace"),
        )
        target = self._endpoints.get(message.dst)
        if target is None or target.failed:
            self.stats.dropped_failed += 1
            return
        if src_site and self.partitioned(src_site, target.site):
            self.stats.dropped_partition += 1
            return
        self.stats.delivered += 1
        # Through the clock, not inline: delivery runs the node's
        # handler, and a handler bug must land in LiveClock.errors (and
        # the exit code) instead of killing this socket's read task.
        self.sim.schedule(0.0, target.inbox.put, message)

"""The observability facade: three recorders bundled per deployment.

Every :class:`~repro.net.Node` reads ``network.obs`` at construction, so
installing an :class:`Observability` on a network before building nodes
lights up the whole stack — MUSIC replicas, store replicas, baselines.
Its tracer, metrics registry and audit stream are independent, each the
shared inert null object unless asked for: the disabled hot path is a
couple of attribute lookups and no allocation, so an audited run pays
for the audit and nothing else and the default :data:`NULL_OBS` keeps
benchmark numbers undisturbed (asserted by ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # the scheduler seam; see repro.runtime
    from ..runtime import Clock
from .audit import NULL_AUDIT, AuditStream
from .metrics import MetricsRegistry
from .trace import NULL_TRACER, Tracer

__all__ = ["Observability", "NULL_OBS"]


class Observability:
    """Metrics registry + tracer + audit stream for one simulation."""

    def __init__(
        self,
        sim: "Clock",
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        span_limit: int = 500_000,
        span_id_base: int = 0,
    ) -> None:
        # ``sim`` is any repro.runtime.Clock: the DES simulator or a
        # live wall clock — spans and audit events stamp time from it.
        self.sim = sim
        # Pass ``NULL_OBS.metrics`` / ``NULL_OBS.tracer`` to leave a
        # recorder off; the default builds a live one.
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or Tracer(sim, limit=span_limit, id_base=span_id_base)
        # What nodes gate per-message and per-operation instrumentation
        # on: false when neither spans nor instruments are recorded.
        self.enabled = self.tracer.enabled or not isinstance(self.metrics, _NullMetrics)
        # The audit stream; NULL_AUDIT until one is attached, so
        # emission sites stay on the null-object fast path.
        self.audit = NULL_AUDIT

    def attach_audit(self, stream: AuditStream) -> AuditStream:
        """Make ``stream`` the one this recorder's emission sites feed,
        stamping its events from this recorder's clock and, when spans
        are being recorded, the open span."""
        if self is NULL_OBS:
            raise ValueError("NULL_OBS is shared: attach to a recorder of your own")
        stream.sim = self.sim
        stream.tracer = self.tracer if self.tracer.enabled else None
        self.audit = stream
        return stream

    def observe_network(self, network) -> None:
        """Count ``network``'s sends into ``net.messages`` / ``net.bytes``
        (one tap on the network or transport, called per accepted send);
        a recorder that records nothing adds no tap."""
        if not self.enabled:
            return
        registry = self.metrics
        by_kind = {}

        def count(message) -> None:
            pair = by_kind.get(message.kind)
            if pair is None:
                pair = by_kind[message.kind] = (
                    registry.counter("net.messages", kind=message.kind),
                    registry.counter("net.bytes", kind=message.kind),
                )
            pair[0].inc()
            pair[1].inc(message.size_bytes)

        network.add_tap(count)


class _NullMetrics:
    """A registry whose instruments are shared and write nowhere."""

    class _Inert:
        __slots__ = ()

        def inc(self, amount: int = 1) -> None:
            pass

        def set(self, value: float) -> None:
            pass

        def add(self, delta: float) -> None:
            pass

        def observe(self, value: float) -> None:
            pass

    _INERT = _Inert()

    def counter(self, name: str, **labels):
        return self._INERT

    def gauge(self, name: str, **labels):
        return self._INERT

    def histogram(self, name: str, buckets=None, **labels):
        return self._INERT

    def render(self) -> str:
        return ""

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


# The inert default: every recorder off, shared by all un-observed runs.
NULL_OBS = Observability(None, metrics=_NullMetrics(), tracer=NULL_TRACER)

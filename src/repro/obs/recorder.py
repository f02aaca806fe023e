"""The observability facade: a tracer and an audit stream per deployment,
and the metrics folded from what the run already counts.

Every :class:`~repro.net.Node` reads ``network.obs`` at construction, so
installing an :class:`Observability` on a network before building nodes
lights up the whole stack — MUSIC replicas, store replicas, baselines.
Tracer and audit stream are independent, each the shared inert null
object unless asked for: the disabled hot path is a couple of attribute
lookups and no allocation, so an audited run pays for the audit and
nothing else and the default :data:`NULL_OBS` keeps benchmark numbers
undisturbed (asserted by ``tests/obs/test_overhead.py``).  Counts cost
a dict increment either way: each layer keeps its own tally, registers
it here once, and :attr:`Observability.metrics` folds the tallies when
read (:func:`~repro.obs.metrics.fold`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # the scheduler seam
    from ..sim.core import Clock
from .audit import NULL_AUDIT, AuditStream
from .metrics import MetricsRegistry, fold
from .trace import NULL_TRACER, Tracer

__all__ = ["Observability", "NULL_OBS"]


class Observability:
    """Tracer + audit stream for one simulation, and its metrics."""

    def __init__(
        self,
        sim: "Clock",
        tracer: Optional[Tracer] = None,
        span_limit: int = 500_000,
        span_id_base: int = 0,
    ) -> None:
        # ``sim`` is any repro.sim.Clock: the DES simulator or a
        # live wall clock — spans and audit events stamp time from it.
        self.sim = sim
        # Pass ``NULL_TRACER`` to leave tracing (and so metrics) off;
        # the default builds a live one.
        self.tracer = tracer or Tracer(sim, limit=span_limit, id_base=span_id_base)
        # The audit stream; NULL_AUDIT until one is attached, so
        # emission sites stay on the null-object fast path.
        self.audit = NULL_AUDIT
        # (kind, owner, labels) of every tally registered here.
        self._tallies: List[Tuple[str, Any, Dict[str, str]]] = []

    def tally(self, kind: str, owner: Any, **labels: str) -> None:
        """Register ``owner``'s own counts as metrics of ``kind`` (a key
        of :data:`~repro.obs.metrics.TALLY_NAMES`, or ``"net"`` for a
        network), labelled ``labels``.  Called once per owner, at its
        construction; a recorder without a tracer keeps nothing, so it
        folds to an empty registry."""
        if self.tracer.enabled:
            self._tallies.append((kind, owner, labels))

    @property
    def metrics(self) -> MetricsRegistry:
        """Every count of the run so far, folded now from the registered
        tallies, the recorded spans and the current state."""
        return fold(self._tallies, self.tracer.spans)

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


# The inert default: every recorder off, shared by all un-observed runs.
NULL_OBS = Observability(None, tracer=NULL_TRACER)

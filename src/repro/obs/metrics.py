"""Metrics: named counters, gauges and fixed-bucket histograms.

The registry is the first leg of :mod:`repro.obs` (the second is
tracing): scalar instruments that reports and benchmarks read.  No
protocol code touches one.  Each layer counts its own events in a plain
dict it keeps anyway, and :func:`fold` builds a registry from those
tallies, the recorded spans and the current state when it is read —
so each thing is counted once.  Design constraints:

- **Label-scoped**: every instrument carries a small label set (``node``,
  ``site``, ``op``, ...) so one registry serves a whole deployment and
  reports can aggregate across nodes or break down per node.
- **Fixed-bucket histograms**: latencies are recorded into a fixed
  bucket layout (defaulting to a WAN-latency-shaped exponential grid),
  giving O(1) observation cost and O(buckets) percentile queries — the
  same trade Prometheus makes.  Percentiles interpolate linearly inside
  the winning bucket and are clamped to the observed min/max, so small
  samples stay sane.
- **Counters never come from spans**: a span limit bounds the
  histograms folded from span attributes, never a count.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TALLY_NAMES",
    "fold",
    "render_derived_ratios",
]

# Bucket upper bounds (ms) spanning local service times (sub-ms) through
# multi-RTT WAN critical sections (seconds).  An implicit +inf bucket
# catches the tail.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 15.0, 25.0, 40.0, 60.0,
    80.0, 100.0, 150.0, 200.0, 300.0, 450.0, 700.0, 1_000.0, 1_500.0,
    2_500.0, 5_000.0, 10_000.0,
)


class Counter:
    """A monotonically increasing count (events, bytes, retries...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value read off the current state (segments, phi...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile queries."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(buckets)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        # One count per finite bucket plus the +inf overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]), interpolated within its bucket.

        Exact to within one bucket width; clamped to the observed
        min/max so estimates never leave the sampled range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        # The rank we want, 1-based, using the nearest-rank definition.
        rank = max(1, int(round(q * self.count + 0.5)))
        rank = min(rank, self.count)
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index] if index < len(self.bounds) else self.max
                if upper < lower:  # +inf bucket with max below last bound
                    upper = lower
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - unreachable when count > 0


_Key = Tuple[str, str, Tuple[Tuple[str, str], ...]]


class MetricsRegistry:
    """Get-or-create home for every instrument of one deployment."""

    def __init__(self) -> None:
        self._instruments: Dict[_Key, Any] = {}

    def _get(self, kind: type, name: str, labels: Dict[str, str]) -> Any:
        key = (kind.__name__.lower(), name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = kind(name, labels)
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- inspection --------------------------------------------------------

    def instruments(self, kind: Optional[str] = None) -> Iterable[Any]:
        for (instrument_kind, _name, _labels), instrument in sorted(self._instruments.items()):
            if kind is None or instrument_kind == kind:
                yield instrument

    def find(self, name: str, **labels: str) -> List[Any]:
        """All instruments with ``name`` whose labels include ``labels``."""
        return [
            instrument for instrument in self.instruments()
            if instrument.name == name and labels.items() <= instrument.labels.items()
        ]

    def total(self, name: str, **labels: str) -> float:
        """Sum of matching counter/gauge values (cross-node aggregation)."""
        return sum(
            instrument.value for instrument in self.find(name, **labels)
            if isinstance(instrument, (Counter, Gauge))
        )

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """A JSON-friendly dump of every instrument."""

        def scalar(instrument: Any) -> Dict[str, Any]:
            return {"name": instrument.name, "labels": instrument.labels, "value": instrument.value}

        return {
            "counters": [scalar(counter) for counter in self.instruments("counter")],
            "gauges": [scalar(gauge) for gauge in self.instruments("gauge")],
            "histograms": [
                {
                    "name": histogram.name,
                    "labels": histogram.labels,
                    "count": histogram.count,
                    "mean": histogram.mean,
                    "p50": histogram.quantile(0.50),
                    "p95": histogram.quantile(0.95),
                    "p99": histogram.quantile(0.99),
                    "min": histogram.min if histogram.count else None,
                    "max": histogram.max if histogram.count else None,
                }
                for histogram in self.instruments("histogram")
            ],
        }

    def render(self) -> str:
        """An ASCII report of all instruments (counters, gauges, histograms)."""
        lines: List[str] = []

        def label_text(labels: Dict[str, str]) -> str:
            return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"

        scalars = [*self.instruments("counter"), *self.instruments("gauge")]
        if scalars:
            lines.append(f"{'metric':<34} {'labels':<38} {'value':>12}")
            lines.append("-" * 86)
            for instrument in scalars:
                lines.append(
                    f"{instrument.name:<34} {label_text(instrument.labels):<38} "
                    f"{instrument.value:>12g}"
                )
        histograms = list(self.instruments("histogram"))
        if histograms:
            if lines:
                lines.append("")
            lines.append(
                f"{'histogram':<28} {'labels':<32} {'count':>7} {'mean':>9} "
                f"{'p50':>9} {'p95':>9} {'p99':>9}"
            )
            lines.append("-" * 108)
            for histogram in histograms:
                p50, p95, p99 = (histogram.quantile(q) for q in (0.50, 0.95, 0.99))
                lines.append(
                    f"{histogram.name:<28} {label_text(histogram.labels):<32} "
                    f"{histogram.count:>7} {histogram.mean:>9.3f} "
                    f"{p50:>9.3f} {p95:>9.3f} {p99:>9.3f}"
                )
        return "\n".join(lines)


# -- the fold ---------------------------------------------------------------

# The name table: for each kind of tally owner, the metric each key of
# its count dict is reported as.  A ``(name, label)`` entry's count is
# itself a dict, one counter per ``label`` value.  A key absent here is
# no metric.  An owner's counts are its ``counters``; a storage
# engine's are its ``stats``, and a network's (kind ``net``) its
# ``NetworkStats``, folded into ``net.messages{kind}`` and ``net.bytes``.
TALLY_NAMES: Dict[str, Dict[str, Any]] = {
    "music": {  # MusicReplica; its release push counts here too
        "syncs": "music.syncs", "forced_releases": "music.forced_releases",
        "fastpath_hits": "music.fastpath.hits", "fastpath_misses": "music.fastpath.misses",
        "lease_hits": "music.lease.hits", "lease_misses": "music.lease.misses",
        "cache_hits": "music.cache.hits", "cache_misses": "music.cache.misses",
        "cache_invalidations": "music.cache.invalidations",
        "push_notifies": "music.push.notifies",
        "handoff_hits": ("music.handoff.hits", "source"),
        "handoff_misses": "music.handoff.misses",
    },
    "lockstore": {  # registered unlabelled: each entry names its label
        "enqueue_conflicts": ("lockstore.enqueue.conflicts", "key"),
        "batch_flushes": ("lockstore.batch.flushes", "node"),
    },
    "store": {  # StoreCoordinator
        "read_repairs": "store.read_repairs", "hints_queued": "store.hints_queued",
        "hints_replayed": "store.hints_replayed",
        "hints_dropped": ("store.hints_dropped", "reason"),
        "ballot_losses": "store.cas.ballot_losses",
        "commit_repairs": "store.cas.commit_repairs",
        "tombstone_repairs": "store.tombstone_repairs",
        "unacked_returns": "store.unacked_returns",
    },
    "store.replica": {
        name: f"store.replica.{name}"
        for name in (
            "reads", "writes", "paxos_prepares", "paxos_proposes", "paxos_commits",
            "ae_rounds", "ae_leaves",
        )
    },
    "storage": {
        "fsyncs": "storage.wal.fsyncs", "flushes": "storage.flushes",
        "compactions": "storage.compactions", "replays": "storage.recover.replays",
        "replayed_bytes": "storage.recover.replayed_bytes",
    },
    "gossip": {"rounds": "topo.gossip.rounds"},
    "topo": {  # TopologyManager
        "streams": "topo.streams", "stream_bytes": "topo.stream.bytes",
        "stream_retries": "topo.stream.retries", "cleanups": "topo.cleanups",
    },
    "crdb": {"proposals": "crdb.proposals"},
    "zk": {"proposals": "zk.proposals"},
}

# Span name -> (attribute, histogram): each recorded span of that name
# that carries the attribute and did not fail is one observation,
# labelled by the span's node.
SPAN_HISTOGRAMS = {
    "storage.recover": ("replay_ms", "storage.recover.replay_ms"),
    "lockstore.batchFlush": ("size", "lockstore.batch.size"),
}


def fold(
    tallies: Iterable[Tuple[str, Any, Dict[str, str]]], spans: Iterable[Any]
) -> MetricsRegistry:
    """A registry of the run so far: a counter per non-zero tally key,
    the gauges read off the owners' current state, and the histograms
    of :data:`SPAN_HISTOGRAMS`."""
    registry = MetricsRegistry()
    networks = {}
    for kind, owner, labels in tallies:
        if kind == "net":  # every node registers its network
            networks[id(owner)] = owner.stats
            continue
        counts = owner.stats if kind == "storage" else owner.counters
        for key, name in TALLY_NAMES[kind].items():
            if isinstance(name, tuple):
                name, label = name
                for value, count in counts[key].items():
                    registry.counter(name, **labels, **{label: value}).inc(count)
            elif counts[key]:
                registry.counter(name, **labels).inc(counts[key])
        if kind == "storage" and owner.segments:
            registry.gauge("storage.segments", **labels).set(len(owner.segments))
        elif kind == "gossip":
            for peer in owner.targets():
                registry.gauge("topo.gossip.phi", peer=peer, **labels).set(owner.phi(peer))
            registry.gauge("topo.gossip.suspects", **labels).set(len(owner.suspects))
    for stats in networks.values():
        for message_kind, count in stats.per_kind.items():
            registry.counter("net.messages", kind=message_kind).inc(count)
        if stats.sent:
            registry.counter("net.bytes").inc(stats.bytes_sent)
    for span in spans:
        observed = SPAN_HISTOGRAMS.get(span.name)
        if observed is not None and observed[0] in span.attrs and "error" not in span.attrs:
            registry.histogram(observed[1], node=span.node).observe(span.attrs[observed[0]])
    return registry


# -- derived ratios ---------------------------------------------------------


def render_derived_ratios(registry: MetricsRegistry) -> str:
    """The report section of hit-rates: one per ``*.hits`` / ``*.misses``
    counter pair, summed across labels — ``music.fastpath`` (grants that
    skipped the synchFlag read on the hand-off row), ``music.handoff``
    (gets served by a hand-off), ``music.lease`` (leaseholder local reads),
    ``music.cache`` (bounded-staleness cache) and any later pair named
    so.  "" when no pair has a count."""
    bases = sorted({
        counter.name.rsplit(".", 1)[0] for counter in registry.instruments("counter")
        if counter.name.endswith((".hits", ".misses"))
    })
    lines = []
    for base in bases:
        hits, misses = int(registry.total(f"{base}.hits")), int(registry.total(f"{base}.misses"))
        if hits + misses:
            rate = 100.0 * hits / (hits + misses)
            lines.append(f"{base + '.hit_rate':<34} {hits:>9} {misses:>9} {rate:>7.1f}%")
    if not lines:
        return ""
    header = [f"{'derived ratio':<34} {'hits':>9} {'misses':>9} {'hit %':>8}", "-" * 64]
    return "\n".join(header + lines)

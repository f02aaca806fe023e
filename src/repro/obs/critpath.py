"""Per-critical-section critical-path attribution.

The paper's Fig. 5(b) averages phase costs across operations; this module
answers the per-operation question — *why was this CS slow?* — by
reconstructing each critical section's blocking chain from recorded spans
and bucketing every millisecond of its wall time into a named cause.

The algorithm is an interval sweep over one root span's subtree.  The
client process driving a critical section is sequential, so at any
instant inside the root span exactly one thing is "blocking" it: the
deepest recorded descendant span active at that instant, or — where no
descendant is active — a *gap* owned by the innermost enclosing span.
Gaps are where the interesting waits live (poll backoff between acquire
attempts, a mint queued behind its key's LWT in flight, ballot-loss
backoff sleeps inside a CAS), because waits deliberately open no spans
of their own.
Each slice of the timeline is classified by the chain of span names from
the root down to its owner (plus the neighbouring siblings for gaps),
yielding a partition of the root's wall time — phase times sum to the
measured CS latency *by construction*, so the explainer's books always
balance.

Phase taxonomy (DESIGN.md §12 documents the blocking model):

========================  ====================================================
phase                     what the time is
========================  ====================================================
``mint.lwt``              enqueue-LWT consensus rounds (Paxos prepare/read/
                          propose/commit and replica work under
                          ``lockstore.enqueue`` / ``lockstore.batchFlush``)
``mint.ballot_backoff``   ballot-loss retry sleeps inside the mint CAS
``mint.batch_wait``       LWT group-commit waits: a mint queued behind its
                          key's LWT in flight at this coordinator, then the
                          flush executing in a sibling trace (self-gap of
                          ``music.createLockRef``)
``acquire.peek``          local queue peeks (``lockstore.peek``, its read
                          included)
``acquire.queue_wait``    waiting for the queue head: poll backoff sleeps
                          between acquire attempts — with push grants this is
                          the push-vs-poll grant delivery gap
``acquire.flag_read``     the grant-time synchFlag quorum read (none when
                          the mint's accept round carried it)
``acquire.sync``          ``music.synchronize`` (flag was set: quorum
                          read-back + rewrite + flag reset)
``acquire.grant``         remaining grant bookkeeping: the startTime write
``op.quorum_fastest``     criticalGet/Put quorum wait until the *first*
                          replica reply
``op.quorum_straggler``   additional wait for the quorum-completing replies
``op.local_read``         lease- or hand-off-served criticalGets, guard
                          peek included
``op.lwt``                guard/LWT work under a critical op
``release.lwt``           the dequeue: LWT consensus rounds, or the hot
                          path's quorum row delete
``release.ballot_backoff``  ballot-loss retry sleeps inside the dequeue CAS
``lease.revoke_wait``     forcedRelease's ECF-window wait-out sleep
``client.backoff``        client-side failover/retry sleeps (root self-gaps
                          not attributable to acquire polling)
``other``                 anything the rules above do not recognise
========================  ====================================================

Transaction roots (``--root txn.cs``; the repro.txn executor) use a
coarser four-phase taxonomy — every slice under a ``txn.*`` marker span
buckets to that marker, whatever protocol work runs beneath it:

========================  ====================================================
``txn.execute``           begin (lock acquisition) + body reads
``txn.validate``          commit-time validation (OCC/SSI)
``txn.commit_cs``         write installation / the group-commit wait
``txn.abort_backoff``     the jittered retry sleep after an abort
========================  ====================================================

``extract_critpaths`` returns one :class:`CritPath` per root span;
``explain_table`` renders the tail-latency explainer
(``python -m repro.obs explain``); ``observe_phases`` feeds per-phase
histograms into a :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import SpanRecord

__all__ = [
    "PhaseSlice",
    "CritPath",
    "TXN_ROOT_SPAN",
    "extract_critpaths",
    "observe_phases",
    "phase_summary",
    "render_phase_summary",
    "explain_table",
]

ROOT_SPAN = "music.cs"
TXN_ROOT_SPAN = "txn.cs"

# The transaction-layer phase markers (repro.txn's executor/engines).
# Under a txn.cs root every interval buckets to its innermost marker.
_TXN_PHASES = frozenset(
    {"txn.execute", "txn.validate", "txn.commit_cs", "txn.abort_backoff"}
)

# Span-name groups used by the classifier.
_MINT_NAMES = frozenset(
    {"music.createLockRef", "lockstore.enqueue", "lockstore.batchFlush"}
)
_RELEASE_NAMES = frozenset(
    {"music.releaseLock", "music.forcedRelease", "lockstore.dequeue"}
)
_ACQUIRE_NAMES = frozenset({"music.acquireLock", "music.grant"})
_OP_NAMES = frozenset(
    {"music.criticalPut", "music.criticalGet", "music.criticalDelete"}
)
_QUORUM_OPS = frozenset({"store.get", "store.put"})


@dataclass(slots=True)
class PhaseSlice:
    """One contiguous interval of a CS's wall time, attributed to a phase."""

    phase: str
    start_ms: float
    end_ms: float
    span_id: int          # the span that "owns" the interval
    span_name: str
    node: Optional[str]
    site: Optional[str]

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class CritPath:
    """The attributed blocking chain of one critical section."""

    trace_id: int
    root_span_id: int
    root_name: str
    start_ms: float
    end_ms: float
    node: Optional[str]
    site: Optional[str]
    key: Optional[str]
    slices: List[PhaseSlice] = field(default_factory=list)
    # Off-critical-path straggler time: replica replies that landed after
    # their quorum op already returned (never extends the CS, but shows
    # how close the tail replica is to mattering).
    straggler_offpath_ms: float = 0.0

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def phase_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for piece in self.slices:
            totals[piece.phase] = totals.get(piece.phase, 0.0) + piece.duration_ms
        return totals

    @property
    def attributed_ms(self) -> float:
        return sum(piece.duration_ms for piece in self.slices)

    def dominant_phase(self) -> Tuple[str, float]:
        """``(phase, total_ms)`` of the largest bucket ("" if empty)."""
        totals = self.phase_totals()
        if not totals:
            return ("", 0.0)
        phase = max(totals, key=lambda name: (totals[name], name))
        return (phase, totals[phase])

    def guilty_spans(
        self, phase: Optional[str] = None, limit: int = 3
    ) -> List[Tuple[PhaseSlice, float]]:
        """The spans that held ``phase`` (default: the dominant phase)
        longest, as ``(first slice, summed ms)``, longest first.

        A span a child cuts in two owns two slices: they are summed, so
        the span is listed once and the runner-up keeps its place.
        """
        if phase is None:
            phase, _total = self.dominant_phase()
        first: Dict[int, PhaseSlice] = {}
        held: Dict[int, float] = {}
        for piece in self.slices:
            if piece.phase == phase:
                first.setdefault(piece.span_id, piece)
                held[piece.span_id] = held.get(piece.span_id, 0.0) + piece.duration_ms
        ranked = sorted(held, key=lambda span_id: -held[span_id])
        return [(first[span_id], held[span_id]) for span_id in ranked[:limit]]


# -- classification ----------------------------------------------------------


def _region(names: frozenset) -> str:
    """The protocol region a span chain sits in, from its ancestry."""
    if names & _OP_NAMES:
        return "op"
    if names & _RELEASE_NAMES:
        return "release"
    if names & _MINT_NAMES:
        return "mint"
    if names & _ACQUIRE_NAMES:
        return "acquire"
    return "client"


def _served_locally(chain: Sequence[SpanRecord]) -> bool:
    """Whether the critical op in ``chain`` is a get served locally (by a
    lease or a hand-off): all of it, its guard's peek included, is one
    local read."""
    op = next(span for span in reversed(chain) if span.name in _OP_NAMES)
    return bool(op.attrs.get("lease") or op.attrs.get("handoff"))


def _classify_leaf(chain: Sequence[SpanRecord]) -> str:
    """Phase of an interval whose deepest active span is ``chain[-1]``."""
    owner = chain[-1]
    if chain[0].name == TXN_ROOT_SPAN:
        for span in reversed(chain):
            if span.name in _TXN_PHASES:
                return span.name
        return "client.backoff"  # sliver directly under the txn root
    names = frozenset(span.name for span in chain)
    region = _region(names)
    name = owner.name
    if region == "op" and _served_locally(chain):
        return "op.local_read"
    if region == "acquire":
        # An acquire's store work is billed by what it runs under: the
        # sync, the local peek, or the grant's startTime write.
        if "music.synchronize" in names:
            return "acquire.sync"
        if "lockstore.peek" in names:
            return "acquire.peek"
        if "store.put" in names:
            return "acquire.grant"

    if name == "lockstore.peek":
        return "acquire.peek" if region in ("acquire", "client") else f"{region}.peek"
    if name == "store.cas":
        # Self time of the CAS span between Paxos rounds: with a retried
        # ballot that is the exponential backoff sleep; a single-attempt
        # CAS only has scheduling epsilon here.  A CAS that ended by
        # raising (QuorumUnavailable under a partition) never set
        # ``attempts``; it counts as a single attempt.
        if (owner.attrs.get("attempts") or 1) > 1:
            return f"{region}.ballot_backoff"
        return f"{region}.lwt"
    if name in ("replica.read", "replica.write", "cpu.use"):
        if region == "op":
            return "op.quorum_fastest"
        if region == "acquire":
            return "acquire.flag_read"
        return f"{region}.lwt"
    if name.startswith(("paxos.", "replica.", "storage.")):
        return f"{region}.lwt"
    if name in _QUORUM_OPS:
        if region == "op":
            return "op.quorum_fastest"
        if region == "acquire":
            return "acquire.flag_read"
        return f"{region}.lwt"
    if name == "music.grant":
        return "acquire.grant"
    if name == "music.acquireLock":
        return "acquire.queue_wait"
    if name == "music.forcedRelease":
        return "lease.revoke_wait"
    if name in ("music.releaseLock", "lockstore.dequeue"):
        return "release.lwt"
    if name in ("music.createLockRef", "lockstore.enqueue", "lockstore.batchFlush"):
        return "mint.batch_wait"
    if name in _OP_NAMES:
        return "op.lwt"
    return "other"


def _classify_gap(
    parent: SpanRecord,
    prev_child: Optional[SpanRecord],
    next_child: Optional[SpanRecord],
    chain: Sequence[SpanRecord],
) -> str:
    """Phase of a gap inside ``parent`` where no child span is active."""
    if chain[0].name == TXN_ROOT_SPAN:
        return _classify_leaf(chain)
    if parent.name == ROOT_SPAN or parent.parent_id is None:
        # Between the root's direct children.  Acquire polling (backoff
        # sleeps, push waits) shows up as gaps around acquireLock
        # attempts; anything else is client-side retry backoff.
        prev_name = prev_child.name if prev_child is not None else ""
        next_name = next_child.name if next_child is not None else ""
        if next_name == "music.acquireLock" and prev_name in (
            "music.acquireLock", "music.createLockRef"
        ):
            return "acquire.queue_wait"
        return "client.backoff"
    return _classify_leaf(chain)


# -- extraction --------------------------------------------------------------


def _index_children(spans: Sequence[SpanRecord]) -> Dict[int, List[SpanRecord]]:
    children: Dict[int, List[SpanRecord]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: (span.start_ms, span.span_id))
    return children


def extract_critpaths(
    spans: Sequence[SpanRecord],
    root_name: str = ROOT_SPAN,
    min_slice_ms: float = 0.0,
) -> List[CritPath]:
    """One :class:`CritPath` per span named ``root_name``.

    The returned slices partition each root's ``[start_ms, end_ms]``
    exactly (attributed time equals the measured latency up to float
    rounding).  ``min_slice_ms`` drops slices shorter than the cutoff
    *after* attribution — totals then under-count by at most the sum of
    dropped slivers, which the explainer reports as coverage.
    """
    children = _index_children(spans)
    paths: List[CritPath] = []
    for root in spans:
        if root.name != root_name:
            continue
        path = CritPath(
            trace_id=root.trace_id,
            root_span_id=root.span_id,
            root_name=root.name,
            start_ms=root.start_ms,
            end_ms=root.end_ms,
            node=root.node,
            site=root.site,
            key=root.attrs.get("key"),
        )
        _sweep(root, root.start_ms, root.end_ms, [root], children, path)
        if min_slice_ms > 0.0:
            path.slices = [
                piece for piece in path.slices if piece.duration_ms >= min_slice_ms
            ]
        else:
            path.slices = [piece for piece in path.slices if piece.duration_ms > 0.0]
        paths.append(path)
    return paths


def _sweep(
    span: SpanRecord,
    lo: float,
    hi: float,
    chain: List[SpanRecord],
    children: Dict[int, List[SpanRecord]],
    path: CritPath,
) -> None:
    """Partition ``[lo, hi]`` of ``span`` into slices on ``path``."""
    kids = [
        child
        for child in children.get(span.span_id, ())
        if child.trace_id == span.trace_id
    ]
    if span.name in _QUORUM_OPS and _region(
        frozenset(s.name for s in chain)
    ) == "op" and kids and not _served_locally(chain):
        # The fastest-vs-straggler split of a criticalGet/Put quorum op:
        # replica-side spans are the per-replica work; the first one to
        # finish is the fastest reply, the span's own end is the quorum
        # point.  Time past the first finisher is what the quorum's
        # straggler (the K-th fastest replica + its WAN hop) cost.
        first_done = min(child.end_ms for child in kids)
        split = min(max(first_done, lo), hi)
        _emit(path, "op.quorum_fastest", lo, split, span)
        _emit(path, "op.quorum_straggler", split, hi, span)
        last_done = max(child.end_ms for child in kids)
        if last_done > hi:
            path.straggler_offpath_ms += last_done - hi
        return
    cursor = lo
    prev_child: Optional[SpanRecord] = None
    for child in kids:
        child_lo = max(child.start_ms, cursor)
        if child_lo >= hi:
            # Off-path child: a straggler reply whose handler span starts
            # after the parent already returned (e.g. the late replicas
            # of a ONE-consistency write).  Never part of the blocking
            # chain — children are start-sorted, so stop here.
            break
        child_hi = min(child.end_ms, hi)
        if child_hi <= cursor:
            prev_child = child
            continue
        if child_lo > cursor:
            phase = _classify_gap(span, prev_child, child, chain)
            _emit(path, phase, cursor, child_lo, span)
        chain.append(child)
        _sweep(child, child_lo, child_hi, chain, children, path)
        chain.pop()
        cursor = child_hi
        prev_child = child
    if cursor < hi:
        if kids:
            phase = _classify_gap(span, prev_child, None, chain)
        else:
            phase = _classify_leaf(chain)
        _emit(path, phase, cursor, hi, span)


def _emit(
    path: CritPath, phase: str, lo: float, hi: float, owner: SpanRecord
) -> None:
    if hi <= lo:
        return
    path.slices.append(
        PhaseSlice(
            phase=phase,
            start_ms=lo,
            end_ms=hi,
            span_id=owner.span_id,
            span_name=owner.name,
            node=owner.node,
            site=owner.site,
        )
    )


# -- aggregation -------------------------------------------------------------


def observe_phases(paths: Iterable[CritPath], metrics: Any) -> None:
    """Feed per-phase and end-to-end histograms into a metrics registry.

    Records ``crit.phase_ms{phase=...}`` per phase per CS, ``crit.cs_ms``
    end-to-end, and ``crit.straggler_offpath_ms`` for the off-path tail.
    """
    for path in paths:
        metrics.histogram("crit.cs_ms").observe(path.duration_ms)
        for phase, total in path.phase_totals().items():
            metrics.histogram("crit.phase_ms", phase=phase).observe(total)
        if path.straggler_offpath_ms > 0.0:
            metrics.histogram("crit.straggler_offpath_ms").observe(
                path.straggler_offpath_ms
            )


def phase_summary(paths: Sequence[CritPath]) -> List[Tuple[str, int, float]]:
    """``[(phase, cs_count, total_ms)]`` across paths, largest first."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for path in paths:
        for phase, total in path.phase_totals().items():
            totals[phase] = totals.get(phase, 0.0) + total
            counts[phase] = counts.get(phase, 0) + 1
    return sorted(
        ((phase, counts[phase], totals[phase]) for phase in totals),
        key=lambda row: -row[2],
    )


def render_phase_summary(paths: Sequence[CritPath]) -> str:
    """An aggregate where-does-the-time-go table across all paths."""
    wall = sum(path.duration_ms for path in paths)
    lines = [
        f"critical-path phase totals ({len(paths)} critical sections, "
        f"{wall:.1f} ms total)",
        f"{'phase':<26} {'CSs':>5} {'total ms':>11} {'share':>7}",
        "-" * 52,
    ]
    for phase, count, total in phase_summary(paths):
        lines.append(
            f"{phase:<26} {count:>5} {total:>11.1f} {100.0 * total / (wall or 1.0):>6.1f}%"
        )
    return "\n".join(lines)


def explain_table(
    paths: Sequence[CritPath],
    slowest: int = 5,
    phase: Optional[str] = None,
) -> str:
    """The tail-latency explainer: one row per slow CS.

    Ranks by end-to-end latency; ``phase`` restricts to CSs whose
    dominant phase matches.  Each row names the dominant phase, its share
    of the CS, and the guilty span IDs with their replica/site.
    """
    ranked = sorted(paths, key=lambda path: -path.duration_ms)
    if phase is not None:
        ranked = [path for path in ranked if path.dominant_phase()[0] == phase]
    ranked = ranked[: max(slowest, 0)]
    header = (
        f"slowest {len(ranked)} critical sections"
        + (f" dominated by {phase!r}" if phase else "")
    )
    lines = [
        header,
        f"{'#':>2} {'trace':>6} {'key':<10} {'latency ms':>11} "
        f"{'dominant phase':<24} {'share':>6}  guilty spans (node@site)",
        "-" * 110,
    ]
    for rank, path in enumerate(ranked, start=1):
        dom_phase, dom_ms = path.dominant_phase()
        share = 100.0 * dom_ms / path.duration_ms if path.duration_ms else 0.0
        guilty = path.guilty_spans(dom_phase, limit=2)
        where = ", ".join(
            f"#{piece.span_id} {piece.span_name}"
            f" ({piece.node or '?'}@{piece.site or '?'}, {held_ms:.1f}ms)"
            for piece, held_ms in guilty
        )
        lines.append(
            f"{rank:>2} {path.trace_id:>6} {str(path.key or '-'):<10} "
            f"{path.duration_ms:>11.2f} {dom_phase:<24} {share:>5.1f}%  {where}"
        )
    if not ranked:
        lines.append("(no critical sections matched)")
    return "\n".join(lines)

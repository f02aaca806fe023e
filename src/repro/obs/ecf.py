"""The ECF checker: the paper's invariants, checked over the audit stream.

:class:`ECFChecker` subscribes to an :class:`~repro.obs.audit.AuditStream`
and maintains per-key history variables (the "true pair" of
``verification/model.py``, transplanted to the implementation).  One
handler per event kind checks, online or on replay:

- **Exclusivity** — a write from a preempted/never-granted lockRef must
  never override the synchronized state of a later lockholder;
- **LatestState** — every criticalGet by the current lockholder
  observes the true pair (the greatest-stamp acknowledged write);
- **LockQueueFIFO** — lockRefs are minted strictly increasing and head
  grants never go backwards or skip a queued predecessor;
- **SynchFlag** — a quorum flag read started after a quorum flag write
  acknowledged must observe it (R+W > N intersection);
- **SynchFlagMonotonicity** — a forcedRelease flag write must not lose
  the stamp race to the very lockholder it preempts (the δ > 0 rule's
  purpose);
- **ForcedReleaseDelta** — forcedRelease stamps the flag with
  ``lockRef + δ`` for 0 < δ < 1 (δ = 0 reproduces the Section IV-B
  race, δ ≥ 1 would beat the next holder's reset);
- **ForcedReleaseOrder** — the flag quorum write completes *before*
  the dequeue, so the next holder's flag read cannot miss it;
- **SyncRequired** — a grant that saw the synchFlag set must run the
  data-store synchronization before entering the critical section;
- **LeaseBound** — critical writes carry stamps inside their lockRef's
  lease window ``[lockRef·T, (lockRef+1)·T)``;
- **LeaseSafety** — a leaseholder *local* read (``read_leases`` tier,
  DESIGN.md §8) must be served under a granted lockRef whose
  forcedRelease has not completed — the lease never outlives the ECF
  window — and, while that ref is the live holder, must observe the
  true pair;
- **MonotonicReads** — a bounded-staleness cached read never serves an
  entry older than its staleness bound, never serves an entry fetched
  before the node's last delivered push-grant invalidation of the key,
  and never goes backwards within one client session (monotonic
  prefix).

The read-lease checkers live here rather than in a subscriber of their
own: LeaseSafety reads this checker's ``granted_refs`` / ``forced_refs``
/ true pair, and one subscriber reaching into another's per-key state
is not simpler than one subscriber.

Violations are :class:`~repro.verification.invariants.ViolationRecord`
instances — the same dataclass the model checker produces — carrying
the offending key's recent event trace plus the ``(trace_id, span_id)``
pairs of the implicated obs spans, so ``python -m repro.obs audit`` can
render the guilty span trees.  Histories replay offline
(:func:`replay_audit` / ``python -m repro.obs audit events.jsonl``), so
a red CI run's uploaded artifacts re-check bit-identically.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..verification.invariants import ViolationRecord
from .audit import (
    DEFAULT_PERIOD_MS,
    AuditEvent,
    AuditStream,
    Stamp,
    load_audit_jsonl,
    merge_audit_events,
)
from .export import PathOrFile

__all__ = ["ECFAuditor", "ECFChecker", "replay_audit"]


class _FlagRegister:
    """The checker's view of one key's synchFlag: a stamp-ordered
    register fed by the acknowledged quorum writes."""

    __slots__ = ("stamp", "value", "acked_ms")

    def __init__(self) -> None:
        self.stamp: Optional[Stamp] = None
        self.value = False
        self.acked_ms: Optional[float] = None

    def apply(self, stamp: Stamp, value: bool, now: float) -> bool:
        if self.stamp is None or stamp > self.stamp:
            self.stamp, self.value, self.acked_ms = stamp, value, now
            return True
        return False


class _KeyState:
    """Per-key history variables (the model's state, observed live)."""

    __slots__ = (
        "queue", "last_enqueued", "head_granted", "granted_active",
        "granted_refs", "synced_refs", "forced_flags", "flag",
        "true_stamp", "true_value", "true_span", "recent",
        "invalidated_at", "session_stamps", "forced_refs",
    )

    def __init__(self) -> None:
        self.queue: Set[int] = set()          # enqueued, not yet dequeued
        self.last_enqueued = 0
        self.head_granted = 0                 # highest head-granted lockRef
        self.granted_active: Optional[int] = None
        self.granted_refs: Set[int] = set()   # every ref that ever saw a grant
        self.synced_refs: Set[int] = set()    # refs that ran the acquire sync
        self.forced_flags: Dict[int, Stamp] = {}
        # Read-lease history: per-node time of the last delivered cache
        # invalidation, per-client session read stamps, and every ref
        # whose forcedRelease dequeue has completed.
        self.invalidated_at: Dict[str, float] = {}
        self.session_stamps: Dict[str, Stamp] = {}
        self.forced_refs: Set[int] = set()
        self.flag = _FlagRegister()
        # The "true pair": greatest-stamp acknowledged critical write.
        self.true_stamp: Optional[Stamp] = None
        self.true_value: Any = None
        self.true_span: Optional[Tuple[int, int]] = None
        self.recent: "deque[AuditEvent]" = deque(maxlen=16)


class ECFChecker:
    """Every ECF and read-lease invariant, as one stream subscriber.

    ``stream.subscribe(ECFChecker(stream).on_event)`` — or build both
    with :class:`ECFAuditor`.
    """

    def __init__(self, stream: AuditStream) -> None:
        self.stream = stream
        self.period_ms = stream.period_ms
        self.counters = stream.counters
        for name in (
            "zombie_grants", "zombie_puts", "zombie_gets", "zombie_lease_reads",
            "recovered_mints", "faults", "lwts",
        ):
            self.counters.setdefault(name, 0)
        self._keys: Dict[str, _KeyState] = {}
        self._fault_recent: "deque[AuditEvent]" = deque(maxlen=4)
        self._handlers: Dict[str, Callable[[AuditEvent, _KeyState], None]] = {
            "enqueue": self._on_enqueue,
            "flag_read": self._on_flag_read,
            "sync": self._on_sync,
            "flag_write": self._on_flag_write,
            "grant": self._on_grant,
            "critical_put": self._on_critical_put,
            "critical_get": self._on_critical_get,
            "release": self._on_release,
            "forced_release": self._on_forced_release,
            "lease_read": self._on_lease_read,
            "lease_invalidate": self._on_lease_invalidate,
            "cached_read": self._on_cached_read,
        }

    def on_event(self, event: AuditEvent) -> None:
        kind = event.kind
        if kind == "fault":
            self.counters["faults"] += 1
            self._fault_recent.append(event)
            return
        if kind == "lwt":
            self.counters["lwts"] += 1
            return
        if event.key is None:
            return
        state = self._keys.get(event.key)
        if state is None:
            state = self._keys[event.key] = _KeyState()
        state.recent.append(event)
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(event, state)

    def queued(self, key: str) -> Set[int]:
        """The lockRefs the history so far leaves queued on ``key``."""
        state = self._keys.get(key)
        return set() if state is None else set(state.queue)

    # -- checkers ---------------------------------------------------------

    def _on_enqueue(self, event: AuditEvent, state: _KeyState) -> None:
        ref = event.lock_ref
        if ref <= state.last_enqueued:
            if event.fields.get("recovered"):
                # The mint was completed by a rival coordinator's LWT
                # recovery: it linearized before the rival's own mint
                # but the loser only learned (and emitted) afterwards.
                # Emission order is not mint order here, by construction.
                self.counters["recovered_mints"] += 1
            else:
                self._violate(
                    "LockQueueFIFO", event, state,
                    f"lockRef {ref} minted after {state.last_enqueued}: the "
                    "LWT guard must yield strictly increasing references",
                )
        state.last_enqueued = max(state.last_enqueued, ref)
        state.queue.add(ref)

    def _on_flag_read(self, event: AuditEvent, state: _KeyState) -> None:
        observed = bool(event.fields.get("flag", False))
        started = event.fields.get("started_ms", event.t_ms)
        register = state.flag
        if (
            not observed
            and register.value
            and register.acked_ms is not None
            and register.acked_ms < started
        ):
            self._violate(
                "SynchFlag", event, state,
                "a quorum flag read started after a forcedRelease flag write "
                "acknowledged, yet observed flag=False (quorum intersection "
                "broken)",
            )

    def _on_sync(self, event: AuditEvent, state: _KeyState) -> None:
        ref = event.lock_ref
        state.synced_refs.add(ref)
        self._check_lease_bound(event, state)
        if state.true_stamp is None or event.stamp > state.true_stamp:
            state.true_stamp = event.stamp
            state.true_value = event.fields.get("value")
            state.true_span = self._span_of(event)

    def _on_flag_write(self, event: AuditEvent, state: _KeyState) -> None:
        ref = event.lock_ref
        reason = event.fields.get("reason")
        value = bool(event.fields.get("flag", False))
        register = state.flag
        if reason == "forced":
            offset = event.stamp[0] - ref * self.period_ms
            if not 0.0 < offset < self.period_ms:
                delta = offset / self.period_ms
                self._violate(
                    "ForcedReleaseDelta", event, state,
                    f"forcedRelease stamped the synchFlag with δ={delta:g} "
                    "lockRef units; the Section IV-B rule needs 0 < δ < 1 "
                    "(δ=0 ties with the released holder's own flag reset, "
                    "δ≥1 would beat the next holder's)",
                )
            state.forced_flags[ref] = event.stamp
            # The forced write must beat the flag *reset* of the very
            # lockRef it preempts, or the next holder skips the
            # synchronization.  Losing to a later lockRef's reset is the
            # intended resolution of a detector race, and losing a
            # node-id tiebreak to another forced write is harmless (the
            # flag is set either way) — only a losing write that leaves
            # the flag cleared is a hazard.
            if (
                register.stamp is not None
                and event.stamp <= register.stamp
                and not register.value
            ):
                register_ref = int(register.stamp[0] // self.period_ms)
                if ref >= register_ref:
                    self._violate(
                        "SynchFlagMonotonicity", event, state,
                        f"forcedRelease({ref})'s flag write (stamp "
                        f"{event.stamp[0]:.6f}) lost to the flag reset "
                        f"(stamp {register.stamp[0]:.6f}) of lockRef "
                        f"{register_ref}: the next holder will skip the "
                        "synchronization",
                    )
        register.apply(event.stamp, value, event.t_ms)

    def _on_grant(self, event: AuditEvent, state: _KeyState) -> None:
        ref = event.lock_ref
        state.granted_refs.add(ref)
        if ref not in state.queue:
            # A stale local peek granted a dequeued lockRef: the paper's
            # zombie-holder scenario.  Allowed — its writes are bounded
            # by the Exclusivity/LeaseBound checks below.
            self.counters["zombie_grants"] += 1
            return
        head = min(state.queue)
        if ref != head:
            self._violate(
                "LockQueueFIFO", event, state,
                f"lockRef {ref} granted while lockRef {head} heads the "
                "queue (grant order must follow the consensus queue)",
            )
        elif ref < state.head_granted:
            self._violate(
                "LockQueueFIFO", event, state,
                f"head grant went backwards: {ref} after {state.head_granted}",
            )
        if (
            state.granted_active is not None
            and state.granted_active != ref
            and state.granted_active in state.queue
        ):
            self._violate(
                "Exclusivity", event, state,
                f"lockRef {ref} granted while lockRef "
                f"{state.granted_active} is still granted and queued "
                "(two concurrent lockholders)",
            )
        if bool(event.fields.get("flag", False)) and ref not in state.synced_refs:
            self._violate(
                "SyncRequired", event, state,
                f"lockRef {ref}'s grant observed synchFlag=True but entered "
                "the critical section without synchronizing the data store "
                "(the store may be undefined after a forcedRelease)",
            )
        state.granted_active = ref
        state.head_granted = max(state.head_granted, ref)

    def _on_critical_put(self, event: AuditEvent, state: _KeyState) -> None:
        ref = event.lock_ref
        self._check_lease_bound(event, state)
        if ref not in state.granted_refs:
            self._violate(
                "Exclusivity", event, state,
                f"criticalPut by lockRef {ref}, which was never granted "
                "the lock (guard bypassed?)",
            )
        elif ref < state.head_granted:
            # A preempted holder still writing: legal, *iff* its stamp
            # cannot override the synchronized state of its successor.
            self.counters["zombie_puts"] += 1
            if state.true_stamp is not None and event.stamp > state.true_stamp:
                self._violate(
                    "Exclusivity", event, state,
                    f"a write from preempted lockRef {ref} (stamp "
                    f"{event.stamp[0]:.6f}) overrides the synchronized "
                    f"state (stamp {state.true_stamp[0]:.6f}) of lockRef "
                    f"{state.head_granted}",
                )
        if state.true_stamp is None or event.stamp > state.true_stamp:
            state.true_stamp = event.stamp
            state.true_value = event.fields.get("value")
            state.true_span = self._span_of(event)

    def _on_critical_get(self, event: AuditEvent, state: _KeyState) -> None:
        ref = event.lock_ref
        if ref not in state.granted_refs:
            self._violate(
                "Exclusivity", event, state,
                f"criticalGet by lockRef {ref}, which was never granted "
                "the lock (guard bypassed?)",
            )
            return
        if ref != state.head_granted or ref not in state.queue:
            self.counters["zombie_gets"] += 1
            return
        if state.true_stamp is None:
            return  # no critical write yet: nothing to compare against
        observed = event.fields.get("value")
        if observed != state.true_value:
            self._violate(
                "LatestState", event, state,
                f"criticalGet by the current lockholder observed "
                f"{observed!r} but the true pair (stamp "
                f"{state.true_stamp[0]:.6f}) is {state.true_value!r}",
                extra_span=state.true_span,
            )

    def _on_release(self, event: AuditEvent, state: _KeyState) -> None:
        self._dequeue(event.lock_ref, state)

    def _on_forced_release(self, event: AuditEvent, state: _KeyState) -> None:
        ref = event.lock_ref
        if ref not in state.forced_flags:
            self._violate(
                "ForcedReleaseOrder", event, state,
                f"forcedRelease dequeued lockRef {ref} without first "
                "completing the synchFlag quorum write: the next holder's "
                "flag read can miss the preemption",
            )
        state.forced_refs.add(ref)
        self._dequeue(ref, state)

    # -- read-lease checkers (DESIGN.md §8) ------------------------------

    def _on_lease_read(self, event: AuditEvent, state: _KeyState) -> None:
        ref = event.lock_ref
        if ref not in state.granted_refs:
            self._violate(
                "LeaseSafety", event, state,
                f"leaseholder local read under lockRef {ref}, which was "
                "never granted the lock (lease anchored without a grant?)",
            )
            return
        if ref in state.forced_refs:
            self._violate(
                "LeaseSafety", event, state,
                f"lockRef {ref} served a local lease read after its "
                "forcedRelease completed: the lease outlived the ECF "
                "window (wait-out or revocation check broken)",
            )
            return
        if ref != state.head_granted or ref not in state.queue:
            # A cleanly-released holder's stale local peek: same benign
            # zombie race criticalGet tolerates, same bound (its lease
            # died with the release; the serve is read-only).
            self.counters["zombie_lease_reads"] += 1
            return
        if state.true_stamp is None:
            return
        observed = event.fields.get("value")
        if observed != state.true_value:
            self._violate(
                "LeaseSafety", event, state,
                f"leaseholder local read observed {observed!r} but the "
                f"true pair (stamp {state.true_stamp[0]:.6f}) is "
                f"{state.true_value!r} (write-through mirror stale inside "
                "an open window)",
                extra_span=state.true_span,
            )

    def _on_lease_invalidate(self, event: AuditEvent, state: _KeyState) -> None:
        if event.node is not None:
            state.invalidated_at[event.node] = event.t_ms

    def _on_cached_read(self, event: AuditEvent, state: _KeyState) -> None:
        fetched = event.fields.get("fetched_ms")
        bound = event.fields.get("bound_ms")
        if fetched is not None:
            node = event.node
            invalidated = state.invalidated_at.get(node) if node else None
            if invalidated is not None and fetched < invalidated:
                self._violate(
                    "MonotonicReads", event, state,
                    f"node {node} served a cached read fetched at "
                    f"{fetched:.1f}ms, before the key's last delivered "
                    f"invalidation at {invalidated:.1f}ms (push-grant "
                    "cache invalidation dropped)",
                )
            if bound is not None and event.t_ms - fetched > bound + 1e-9:
                self._violate(
                    "MonotonicReads", event, state,
                    f"cached read served an entry {event.t_ms - fetched:.1f}ms "
                    f"old against a staleness bound of {bound:g}ms",
                )
        client = event.fields.get("client")
        if client is not None and event.stamp is not None:
            previous = state.session_stamps.get(client)
            if previous is not None and event.stamp < previous:
                self._violate(
                    "MonotonicReads", event, state,
                    f"client {client}'s session went backwards on this key: "
                    f"read stamp {event.stamp[0]:.6f} after having observed "
                    f"{previous[0]:.6f} (monotonic prefix broken)",
                )
            elif previous is None or event.stamp > previous:
                state.session_stamps[client] = event.stamp

    def _dequeue(self, ref: int, state: _KeyState) -> None:
        state.queue.discard(ref)
        state.synced_refs.discard(ref)
        if state.granted_active == ref:
            state.granted_active = None

    def _check_lease_bound(self, event: AuditEvent, state: _KeyState) -> None:
        offset = event.stamp[0] - event.lock_ref * self.period_ms
        if not 0.0 <= offset < self.period_ms:
            self._violate(
                "LeaseBound", event, state,
                f"{event.kind} stamped {offset:.3f}ms past lockRef "
                f"{event.lock_ref}'s lease start; v2s ordering needs the "
                f"offset inside [0, T={self.period_ms:g}ms)",
            )

    # -- violation plumbing -----------------------------------------------

    def _span_of(self, event: AuditEvent) -> Optional[Tuple[int, int]]:
        if event.trace_id is None or event.span_id is None:
            return None
        return (event.trace_id, event.span_id)

    def _violate(
        self,
        invariant: str,
        event: AuditEvent,
        state: _KeyState,
        detail: str,
        extra_span: Optional[Tuple[int, int]] = None,
    ) -> None:
        spans: List[Tuple[int, int]] = []
        own = self._span_of(event)
        if own is not None:
            spans.append(own)
        if extra_span is not None and extra_span not in spans:
            spans.append(extra_span)
        # The rings hold events; their labels are rendered only here.
        trace = [
            f"{fault.label()}[{fault.fields.get('label', '')}]"
            for fault in self._fault_recent
        ] + [f"t={past.t_ms:.1f} {past.label()}" for past in state.recent]
        self.stream.file(
            ViolationRecord(
                invariant=invariant,
                source="runtime",
                detail=detail,
                key=event.key,
                lock_ref=event.lock_ref,
                time_ms=event.t_ms,
                trace=trace,
                trace_spans=spans,
            )
        )


class ECFAuditor:
    """An :class:`AuditStream` with the :class:`ECFChecker` subscribed.

    Not a type of its own: ``ECFAuditor(...)`` *returns the stream* —
    what ``build_music(audit=True)`` attaches and what every offline
    replay builds — so a checked stream and a live process's
    record-only one are instances of the same class.
    """

    def __new__(  # type: ignore[misc]
        cls,
        period_ms: float = DEFAULT_PERIOD_MS,
        event_limit: int = 500_000,
        violation_limit: int = 1_000,
    ) -> AuditStream:
        stream = AuditStream(period_ms, event_limit, violation_limit)
        stream.subscribe(ECFChecker(stream).on_event)
        return stream

    @staticmethod
    def replay(
        events: Iterable[AuditEvent], period_ms: float = DEFAULT_PERIOD_MS
    ) -> AuditStream:
        """Re-check a recorded history; returns the replayed stream."""
        stream = ECFAuditor(period_ms=period_ms)
        for event in sorted(events, key=lambda e: e.seq):
            stream.ingest(event)
        return stream


def replay_audit(*sources: PathOrFile) -> AuditStream:
    """Load a JSONL history — or the per-process slices of one live run,
    merged on their shared clock — and re-run every checker over it."""
    histories = []
    period_ms = DEFAULT_PERIOD_MS
    for source in sources:
        events, period_ms = load_audit_jsonl(source)
        histories.append(events)
    # One slice replays in its recorded order, exactly as dumped.
    events = histories[0] if len(histories) == 1 else merge_audit_events(histories)
    return ECFAuditor.replay(events, period_ms=period_ms)

"""An opt-in self-profiler for the DES kernel itself.

Everything in ROADMAP item 1 ("make the simulator fast") needs a way to
answer *where does the wall-clock go* — not simulated time, but real CPU
time spent popping the event heap and running handlers.  This module
profiles the simulator with zero cost when off:

- ``Simulator.profiler`` is a **class attribute** defaulting to ``None``;
  :meth:`SimProfiler.install` sets the instance attribute and nothing
  else.  The kernel has one dispatch loop; it reads the slot once per
  ``run`` and, when set, hands each popped ``(fn, arg)`` and the queue
  depth to :meth:`SimProfiler.dispatch`, which times the call.  The
  profiler never pops a queue itself, so it cannot reorder anything.
- Allocation counters piggyback the same guard: ``Node.call_async`` and
  ``Tracer.span`` bump ``profiler.rpc_envelopes`` (RPC requests sent) /
  ``profiler.obs_spans`` only after a ``sim.profiler is not None`` test
  (one class-attribute load on the off path).

What it measures (all wall-clock via ``time.perf_counter``; simulated
timings are untouched, so profiled runs stay bit-identical in sim time):

- total events executed, total wall seconds, events/sec;
- scheduler depth high-water mark (heap + same-time ready queue);
- per-event-type handler time, keyed by the scheduled function's
  ``__qualname__``: ``Network._deliver`` (a delivery, *including* the
  handler's first step or the reply's waiters, which run inside it),
  ``_end_hold`` (the end of a CPU hold and the continuation it runs,
  see ``Node.serve``), ``Process._wake`` (the end of a bare-delay
  sleep, e.g. a poll), ``_fire_event`` (a ``Timeout`` fire and the waiters it
  wakes in place), ``Process.start`` (a ``sim.process`` bootstrap),
  ``Process._resume`` (a wakeup a running process raised, deferred),
  ``Process._deliver_interrupt``, ``_ExpiryQueue._fire`` (a node's RPC
  expiry timer) and the ``__qualname__`` of each ``call_at`` action;
- per-subsystem handler time, attributed by sampling the scheduled
  ``(fn, arg)`` pair every ``sample_every`` events and mapping the
  owning process/event name onto a subsystem (music / store / net /
  client / topo / timer); a delivery is billed to its destination's
  handler, ``"<dst>:<kind>"``, since that is whose work it carries,
  and a hold's end to whoever its continuation runs as (the handler's
  ``"<node>:<kind>"`` or the calling process), a fired event (a
  ``Timeout``) to the process it resumes;
- RPC request, obs-span and heap-push allocation counts (heap pushes
  read the kernel's ``heap_pushes`` counter, so the ready queue's heap
  bypass is directly visible as fewer pushes per event).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim import Simulator
from ..sim.core import _fire_event, call_action

__all__ = ["SimProfiler", "subsystem_of"]


_SUBSYSTEM_RULES: Tuple[Tuple[str, str], ...] = (
    # Substring of a process/event name -> subsystem.  First match wins;
    # ordering puts the more specific names ahead of the generic ones
    # (topology streams run *on* music/store nodes — "gossip:music-B-0"
    # — so their prefixes must be tried before the node-role names).
    ("gossip", "topo"),
    ("topo", "topo"),
    ("bootstrap-stream", "topo"),
    ("hint", "topo"),
    ("detector", "topo"),
    ("rpc:", "net"),
    ("inbox", "net"),
    ("nic", "net"),
    ("cpu:", "net"),
    ("lockstore", "store"),
    ("storage", "store"),
    ("store", "store"),
    ("paxos", "store"),
    ("wal", "store"),
    ("compact", "store"),
    ("music", "music"),
    ("grant", "music"),
    ("lock", "music"),
    ("lease", "music"),
    ("client", "client"),
    ("worker", "client"),
    ("bench", "client"),
    ("Timeout", "timer"),
)


def subsystem_of(name: Optional[str]) -> str:
    """Map a process/event name onto a coarse subsystem bucket."""
    if not name:
        return "other"
    for needle, subsystem in _SUBSYSTEM_RULES:
        if needle in name:
            return subsystem
    return "other"


def _entry_owner_name(fn: Callable[..., None], arg: Any) -> str:
    """Best-effort name of whatever a scheduled ``(fn, arg)`` pair runs.

    Scheduled entries are one of: an unbound ``Process.start`` /
    ``Process._deliver_interrupt`` with the process as ``arg``, a bound
    ``Process._resume`` callback with the triggering event as ``arg``, a
    bound ``Process._wake`` with a sleep token as ``arg``, a
    module-level ``_fire_event`` with the event (usually a Timeout) as
    ``arg``, a bound ``Network._deliver`` with the message as ``arg``,
    a bound ``_ExpiryQueue._fire``, or a ``call_at`` action (``arg`` is
    None; see :meth:`SimProfiler.dispatch`).  A message is billed to
    the handler it is delivered to, an event (a fired ``Timeout``) to
    the process its first waiter is — the entry runs that process's next
    step — so this is asked before the entry runs; otherwise we look at
    the bound object first, then the argument.
    """
    dst = getattr(arg, "dst", None)
    if dst is not None:
        # A delivery runs the destination's handler (or, for a reply,
        # the caller waiting on that node) inside itself.
        return f"{dst}:{arg.kind}"
    if fn is _fire_event and arg._callbacks:
        name = getattr(getattr(arg._callbacks[0], "__self__", None), "name", None)
        if isinstance(name, str) and name:
            return name
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None)
        if name:
            return str(name)
    if arg is not None:
        name = getattr(arg, "name", None)
        if isinstance(name, str) and name:
            return name
        if type(arg) is tuple:
            for value in arg:
                name = getattr(value, "name", None)
                if isinstance(name, str) and name:
                    return name
    if owner is not None:
        return type(owner).__name__
    return getattr(fn, "__qualname__", type(fn).__name__)


class SimProfiler:
    """Wall-clock profile of one :class:`~repro.sim.Simulator`.

    Use :meth:`install` / :meth:`uninstall`, or let
    ``build_music(profile=True)`` wire it up.  All counters are plain
    attributes so the hot path is attribute bumps, not method calls.
    """

    def __init__(self, sample_every: int = 8) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.events = 0
        self.wall_s = 0.0
        self.heap_high_water = 0
        self.rpc_envelopes = 0
        self.obs_spans = 0
        # name -> [events, wall_s]; event types count every event, the
        # subsystem attribution is sampled (see sample_every).
        self.by_event_type: Dict[str, List[float]] = {}
        self.by_subsystem: Dict[str, List[float]] = {}
        self.sampled_events = 0
        self.sampled_wall_s = 0.0
        self._sim: Optional[Simulator] = None
        self._tick = 0
        self._pushes_at_install = 0
        self._pushes_final = 0

    @property
    def heap_pushes(self) -> int:
        """Heap pushes since install (same-time ready-queue work excluded).

        Read from the kernel's ``heap_pushes`` counter, which only
        advances on real ``heapq`` pushes — the denominator for "what
        fraction of scheduling bypassed the heap".
        """
        sim = self._sim
        if sim is not None:
            return sim.heap_pushes - self._pushes_at_install
        return self._pushes_final

    # -- installation -------------------------------------------------------

    def install(self, sim: Simulator) -> "SimProfiler":
        """Attach to ``sim``: its next ``run`` hands every dispatch here."""
        if self._sim is not None:
            raise RuntimeError("profiler is already installed")
        if sim.profiler is not None:
            raise RuntimeError("simulator already has a profiler installed")
        self._sim = sim
        sim.profiler = self
        self._pushes_at_install = sim.heap_pushes
        return self

    def uninstall(self) -> None:
        """Detach; a ``run`` already in progress keeps reporting until it returns."""
        sim = self._sim
        if sim is None:
            return
        self._pushes_final = sim.heap_pushes - self._pushes_at_install
        if sim.profiler is self:
            sim.profiler = None
        self._sim = None

    # -- the kernel's callback ----------------------------------------------

    def dispatch(self, fn: Callable[[Any], None], arg: Any, depth: int) -> None:
        """Run one scheduled ``fn(arg)`` for the kernel, timing it.

        ``depth`` is the scheduler depth (heap + ready queue) before the
        entry was popped.  The call itself is all that touches simulated
        state, so behaviour is bit-identical with profiling on.
        """
        if depth > self.heap_high_water:
            self.heap_high_water = depth
        # A call_at action arrives as the thunk's arg: key and attribute
        # it by the action, not the thunk.
        action, action_arg = (arg, None) if fn is call_action else (fn, arg)
        self._tick += 1
        owner = None
        if self._tick >= self.sample_every:
            # Named before the entry runs: a fired event drops its waiters.
            self._tick = 0
            owner = _entry_owner_name(action, action_arg)
        began = perf_counter()
        fn(arg)
        elapsed = perf_counter() - began
        self.events += 1
        self.wall_s += elapsed
        kind = getattr(action, "__qualname__", None) or type(action).__name__
        bucket = self.by_event_type.get(kind)
        if bucket is None:
            bucket = self.by_event_type[kind] = [0, 0.0]
        bucket[0] += 1
        bucket[1] += elapsed
        if owner is not None:
            subsystem = subsystem_of(owner)
            sub = self.by_subsystem.get(subsystem)
            if sub is None:
                sub = self.by_subsystem[subsystem] = [0, 0.0]
            sub[0] += 1
            sub[1] += elapsed
            self.sampled_events += 1
            self.sampled_wall_s += elapsed

    # -- results ------------------------------------------------------------

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def subsystem_shares(self) -> Dict[str, float]:
        """Estimated share of handler wall time per subsystem, in [0, 1].

        Based on the sampled subset; with ``sample_every=1`` it is exact.
        """
        total = self.sampled_wall_s
        if total <= 0:
            return {}
        return {
            subsystem: wall / total
            for subsystem, (_count, wall) in sorted(self.by_subsystem.items())
        }

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly dump of every counter."""
        return {
            "events": self.events,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "heap_high_water": self.heap_high_water,
            "heap_pushes": self.heap_pushes,
            "rpc_envelopes": self.rpc_envelopes,
            "obs_spans": self.obs_spans,
            "sample_every": self.sample_every,
            "by_event_type": {
                kind: {"events": count, "wall_s": wall}
                for kind, (count, wall) in sorted(self.by_event_type.items())
            },
            "subsystem_shares": self.subsystem_shares(),
        }

"""WaitsForGraph unit tests over synthetic audit events: the deadlock
invariant fires on a cycle and stays quiet on ordered acquisition."""

from repro.obs import AuditEvent, ECFAuditor
from repro.txn import WaitsForGraph
from repro.txn.oracle import find_cycle
from tests.helpers import assert_replay_equivalent


def event(kind, key, ref, seq=[0]):
    seq[0] += 1
    return AuditEvent(
        seq=seq[0], t_ms=float(seq[0]), kind=kind, key=key, node="music-0-0",
        lock_ref=ref, stamp=None, trace_id=None, span_id=None,
    )


def test_opposite_order_waiting_is_a_cycle():
    graph = WaitsForGraph()
    # T1 holds a, T2 holds b ...
    graph.bind("a", 1, "T1")
    graph.bind("b", 1, "T2")
    graph.on_event(event("enqueue", "a", 1))
    graph.on_event(event("grant", "a", 1))
    graph.on_event(event("enqueue", "b", 1))
    graph.on_event(event("grant", "b", 1))
    assert find_cycle(graph.edges()) is None
    # ... then T1 queues on b and T2 queues on a: classic deadlock.
    graph.bind("b", 2, "T1")
    graph.bind("a", 2, "T2")
    graph.on_event(event("enqueue", "b", 2))
    # One edge is not a cycle, and its holder T2 has no out-edges.
    assert graph.edges() == {"T1": {"T2"}}
    assert find_cycle(graph.edges()) is None
    graph.on_event(event("enqueue", "a", 2))
    assert len(graph.violations) == 1
    cycle = graph.violations[0].detail
    assert "T1" in cycle and "T2" in cycle
    assert graph.violations[0].invariant == "Deadlock"


def test_lexicographic_order_never_cycles():
    graph = WaitsForGraph()
    # Both transactions acquire a then b (the MUSIC rule): T2 only ever
    # waits on T1, never the reverse.
    graph.bind("a", 1, "T1")
    graph.bind("a", 2, "T2")
    graph.bind("b", 1, "T1")
    graph.bind("b", 2, "T2")
    graph.on_event(event("enqueue", "a", 1))
    graph.on_event(event("grant", "a", 1))
    graph.on_event(event("enqueue", "a", 2))     # T2 waits on T1 @ a
    graph.on_event(event("enqueue", "b", 1))
    graph.on_event(event("grant", "b", 1))
    graph.on_event(event("enqueue", "b", 2))     # T2 waits on T1 @ b
    assert graph.violations == []
    assert graph.edges() == {"T2": {"T1"}}
    # T1 finishes; T2 is granted everywhere; the graph drains.
    graph.on_event(event("release", "a", 1))
    graph.on_event(event("release", "b", 1))
    graph.on_event(event("grant", "a", 2))
    graph.on_event(event("grant", "b", 2))
    assert graph.edges() == {}
    assert graph.violations == []


def test_forced_release_clears_the_waiter():
    graph = WaitsForGraph()
    graph.bind("k", 1, "T1")
    graph.bind("k", 2, "T2")
    graph.on_event(event("enqueue", "k", 1))
    graph.on_event(event("grant", "k", 1))
    graph.on_event(event("enqueue", "k", 2))
    assert graph.edges() == {"T2": {"T1"}}
    graph.on_event(event("forced_release", "k", 1))
    assert graph.edges() == {}


def test_cycle_recorded_on_the_auditor():
    def subscribe_bound_graph(stream):
        graph = WaitsForGraph(stream)
        graph.bind("a", 1, "T1")
        graph.bind("b", 1, "T2")
        graph.bind("b", 2, "T1")
        graph.bind("a", 2, "T2")
        stream.subscribe(graph.on_event)

    auditor = ECFAuditor()
    subscribe_bound_graph(auditor)
    for kind, key, ref in [
        ("enqueue", "a", 1), ("grant", "a", 1),
        ("enqueue", "b", 1), ("grant", "b", 1),
        ("enqueue", "b", 2), ("enqueue", "a", 2),
    ]:
        auditor.ingest(event(kind, key, ref))
    assert auditor.violation_counts.get("Deadlock") == 1
    assert not auditor.clean
    assert_replay_equivalent(auditor, subscribe=subscribe_bound_graph)


def test_unbound_refs_are_ignored():
    """Lock traffic not bound to any transaction (leases, the OCC epoch
    key, plain clients) never appears in the graph."""
    graph = WaitsForGraph()
    graph.on_event(event("enqueue", "x", 1))
    graph.on_event(event("grant", "x", 1))
    graph.on_event(event("enqueue", "x", 2))
    assert graph.edges() == {}
    assert graph.violations == []

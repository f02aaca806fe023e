"""Tracing: local nesting, RPC-hop propagation, bounded recording."""

from repro.core import build_music
from repro.net import PAPER_PROFILES, Network, Node
from repro.obs import Observability
from repro.sim import RandomStreams, Simulator


def _build(profile_name="lUs"):
    sim = Simulator()
    obs = Observability(sim)
    network = Network(
        sim, PAPER_PROFILES[profile_name], streams=RandomStreams(3), obs=obs
    )
    return sim, obs, network


def test_local_spans_nest_via_process_context():
    sim, obs, _network = _build()

    def work():
        with obs.tracer.span("outer", node="n") as outer:
            yield sim.timeout(5.0)
            with obs.tracer.span("inner", node="n") as inner:
                yield sim.timeout(3.0)
            assert inner.trace_id == outer.trace_id
        yield sim.timeout(1.0)

    sim.run_until_complete(sim.process(work()))
    spans = {span.name: span for span in obs.tracer.spans}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["outer"].parent_id is None
    assert spans["inner"].duration_ms == 3.0
    assert spans["outer"].duration_ms == 8.0


def test_sibling_spans_share_parent_after_restore():
    sim, obs, _network = _build()

    def work():
        with obs.tracer.span("root"):
            with obs.tracer.span("first"):
                yield sim.timeout(1.0)
            with obs.tracer.span("second"):
                yield sim.timeout(1.0)

    sim.run_until_complete(sim.process(work()))
    spans = {span.name: span for span in obs.tracer.spans}
    assert spans["first"].parent_id == spans["root"].span_id
    assert spans["second"].parent_id == spans["root"].span_id


def test_span_crosses_simulated_rpc_hop():
    """A handler-side span on another node joins the caller's trace."""
    sim, obs, network = _build()
    caller = Node(sim, network, "caller", "Ohio")
    server = Node(sim, network, "server", "Oregon")

    def handle(message):
        with obs.tracer.span("server.work", node="server", site="Oregon"):
            yield from server.compute(2.0)
            server.reply(message, {"ok": True})

    server.on("work", handle)
    caller.start()
    server.start()

    def client():
        with obs.tracer.span("client.op", node="caller", site="Ohio"):
            reply = yield from caller.call("server", "work", {})
            assert reply["ok"]

    sim.run_until_complete(sim.process(client()))
    spans = {span.name: span for span in obs.tracer.spans}
    client_span = spans["client.op"]
    server_span = spans["server.work"]
    # Same trace, parented across the hop, and strictly nested in time.
    assert server_span.trace_id == client_span.trace_id
    assert server_span.parent_id == client_span.span_id
    assert client_span.start_ms < server_span.start_ms
    assert server_span.end_ms < client_span.end_ms
    # The server-side span sits on the remote node, one WAN hop away.
    assert server_span.node == "server"
    assert server_span.duration_ms >= 2.0


def test_error_annotation_and_idempotent_finish():
    sim, obs, _network = _build()

    def work():
        try:
            with obs.tracer.span("fails"):
                yield sim.timeout(1.0)
                raise RuntimeError("boom")
        except RuntimeError:
            pass

    sim.run_until_complete(sim.process(work()))
    (span,) = obs.tracer.spans
    assert span.attrs["error"] == "RuntimeError"


def test_span_limit_drops_not_grows():
    sim = Simulator()
    obs = Observability(sim, span_limit=2)

    def work():
        for _ in range(5):
            with obs.tracer.span("s"):
                yield sim.timeout(1.0)

    sim.run_until_complete(sim.process(work()))
    assert len(obs.tracer.spans) == 2
    assert obs.tracer.dropped == 3


def _contended_counters(span_limit):
    """Counters of one seeded run: eight critical sections on one key
    from every site at once, recorded under ``span_limit``."""
    sim = Simulator()
    music = build_music(seed=7, sim=sim, obs=Observability(sim, span_limit=span_limit))
    sites = music.profile.site_names

    def section(client):
        handle = yield from client.critical_section("hot")
        yield from handle.put(1)
        yield from handle.exit()

    for index in range(8):
        sim.process(section(music.client(sites[index % len(sites)])))
    sim.run()
    return music.obs.tracer.dropped, music.obs.metrics.snapshot()["counters"]


def test_span_limit_does_not_undercount_a_counter():
    """Counters are folded from the layers' tallies, never from spans:
    a run that drops most of its spans counts exactly what an
    unlimited one does."""
    dropped, limited = _contended_counters(span_limit=50)
    none_dropped, unlimited = _contended_counters(span_limit=500_000)
    assert dropped > 0 and none_dropped == 0
    assert limited == unlimited
    names = {counter["name"] for counter in unlimited}
    assert {"lockstore.enqueue.conflicts", "store.cas.ballot_losses", "net.messages"} <= names


def test_tracer_queries():
    sim, obs, _network = _build()

    def work():
        with obs.tracer.span("root"):
            with obs.tracer.span("child"):
                yield sim.timeout(1.0)

    sim.run_until_complete(sim.process(work()))
    (root,) = obs.tracer.roots("root")
    (child,) = obs.tracer.children_of(root)
    assert child.name == "child"
    trace = obs.tracer.trace(root.trace_id)
    assert [span.name for span in trace] == ["root", "child"]


def test_every_replica_span_is_a_child_of_its_rpcs_caller_span():
    """A served handler has no process to adopt the envelope's trace
    context into; its ``replica.*`` span names that context as its
    parent explicitly — the coordinator span current when the RPC was
    sent — and is finished by the continuation, after its service."""
    from repro.core import build_music
    from tests.obs.test_overhead import _workload

    deployment = build_music(seed=5, obs=True)
    _workload(deployment)
    spans = deployment.obs.tracer.spans
    by_id = {span.span_id: span for span in spans}
    callers = {
        "replica.read": {"store.get", "paxos.read"},
        "replica.write": {"store.put"},
        "replica.paxos_prepare": {"paxos.prepare"},
        "replica.paxos_propose": {"paxos.propose"},
        "replica.paxos_commit": {"paxos.commit", "paxos.repair"},
    }
    served = [span for span in spans if span.name.startswith("replica.")]
    assert {span.name for span in served} == set(callers)
    for span in served:
        parent = by_id[span.parent_id]
        assert parent.name in callers[span.name]
        assert parent.trace_id == span.trace_id and parent.node != span.node
        assert parent.start_ms < span.start_ms < span.end_ms

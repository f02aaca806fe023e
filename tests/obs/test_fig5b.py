"""Acceptance: the traced phase decomposition reproduces Fig. 5(b).

The paper decomposes a critical section into createLockRef /
acquireLock / criticalPut / criticalGet / releaseLock and shows the
LWT-backed operations dominating.  Here the same split is the
critical-path partition of the recorded spans, and the phases must
account for each critical section's latency to within 5%.
"""

from repro.core import MusicConfig, build_music
from repro.obs import extract_critpaths, phase_summary, render_phase_summary
from tests.helpers import run


def _traced_run(ops=6):
    # Fig. 5(b) is the paper's protocol: a synchFlag read on every grant.
    deployment = build_music(obs=True, music_config=MusicConfig(fast_locks=False))
    obs = deployment.obs
    client = deployment.client(deployment.profile.site_names[0])

    def body():
        for index in range(ops):
            with obs.tracer.span("music.cs", node=client.client_id, site=client.site):
                section = yield from client.critical_section(f"key-{index % 2}")
                yield from section.put({"v": index})
                yield from section.get()
                yield from section.exit()

    run(deployment.sim, body())
    return deployment, obs


def test_phases_sum_to_end_to_end_within_5_percent():
    _deployment, obs = _traced_run()
    paths = extract_critpaths(obs.tracer.spans)
    assert len(paths) == 6
    for path in paths:
        assert path.duration_ms > 0
        assert abs(path.attributed_ms - path.duration_ms) <= 0.05 * path.duration_ms


def test_breakdown_shows_the_papers_phases():
    _deployment, obs = _traced_run()
    paths = extract_critpaths(obs.tracer.spans)
    totals = {phase: total for phase, _count, total in phase_summary(paths)}
    assert {
        "mint.lwt",
        "acquire.flag_read",
        "op.quorum_fastest",
        "op.quorum_straggler",
        "release.lwt",
    } <= set(totals)
    # The LWT-backed operations (enqueue/dequeue) cost four quorum round
    # trips where the flag read and each critical op cost one — the
    # paper's headline observation in Fig. 5(b).  A CS here is one put
    # and one get, so the op.quorum phases hold two quorum ops.
    quorum_op = (totals["op.quorum_fastest"] + totals["op.quorum_straggler"]) / 2
    for lwt in ("mint.lwt", "release.lwt"):
        assert 3.5 < totals[lwt] / totals["acquire.flag_read"] < 4.5
        assert 3.5 < totals[lwt] / quorum_op < 4.5
    table = render_phase_summary(paths)
    assert "mint.lwt" in table and "6 critical sections" in table


def test_replica_side_spans_join_coordinator_traces():
    _deployment, obs = _traced_run(ops=2)
    spans = obs.tracer.spans
    replica_spans = [span for span in spans if span.name.startswith("replica.")]
    assert replica_spans, "no replica-side spans recorded"
    by_id = {span.span_id: span for span in spans}
    for span in replica_spans:
        assert span.parent_id in by_id, "replica span lost its parent"
        assert by_id[span.parent_id].trace_id == span.trace_id


def test_network_counters_populated():
    _deployment, obs = _traced_run(ops=2)
    assert obs.metrics.total("net.messages") > 0
    assert obs.metrics.total("net.bytes") > 0
    assert obs.metrics.total("net.messages", kind="paxos_propose") > 0


def test_network_counters_agree_with_the_networks_own_tally():
    """One tap call per accepted send: the counters miss and double
    nothing the network itself counted."""
    deployment, obs = _traced_run(ops=2)
    stats = deployment.network.stats
    assert obs.metrics.total("net.messages") == stats.sent
    assert obs.metrics.total("net.bytes") == stats.bytes_sent
    for kind, count in stats.per_kind.items():
        assert obs.metrics.total("net.messages", kind=kind) == count

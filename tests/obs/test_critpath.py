"""Critical-path attribution: exact partition and phase naming.

The core invariant is structural: the sweep partitions every ``music.cs``
root span into named phase slices with **zero** unattributed or
double-counted time, so per-phase sums always equal the measured CS
latency.  The synthetic tests pin that arithmetic on a hand-built span
tree (including the off-path straggler shapes that used to break it);
the acceptance test runs the real 16-client contention workload and
checks the ISSUE criterion — a dominant phase for every CS with phase
sums within 5% of each CS's latency.
"""

from pytest import approx

from repro.core import build_music
from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    explain_table,
    extract_critpaths,
    observe_phases,
    phase_summary,
    render_phase_summary,
)
from repro.obs.critpath import ROOT_SPAN
from repro.obs.trace import SpanRecord
from repro.store import StoreConfig


def _span(span_id, parent_id, name, start, end, trace_id=1, attrs=None, **kw):
    return SpanRecord(
        trace_id=trace_id, span_id=span_id, parent_id=parent_id, name=name,
        node=kw.get("node", "client-0"), site=kw.get("site", "A"),
        start_ms=float(start), end_ms=float(end), attrs=attrs or {},
    )


def _synthetic_tree():
    """A hand-built CS covering mint, queue-wait, grant, quorum split."""
    return [
        _span(1, None, ROOT_SPAN, 0, 100, attrs={"key": "hot"}),
        _span(2, 1, "music.createLockRef", 0, 30),
        _span(3, 2, "store.cas", 5, 25, attrs={"attempts": 1}),
        # An off-path straggler parented under createLockRef but starting
        # after it returned (late replica of a ONE-consistency write):
        # must contribute nothing to the partition.
        _span(11, 2, "replica.write", 35, 45, node="store-A-0"),
        _span(4, 1, "music.acquireLock", 30, 50),
        _span(5, 1, "music.acquireLock", 60, 80),
        _span(6, 5, "music.grant", 75, 80, attrs={"fast": False}),
        _span(7, 1, "music.criticalGet", 80, 95),
        _span(8, 7, "store.get", 80, 95),
        _span(9, 8, "replica.read", 81, 88, node="store-A-0"),
        # Straggler quorum reply finishing after the parent op returned.
        _span(10, 8, "replica.read", 82, 99, node="store-B-0"),
    ]


def test_partition_is_exact_on_synthetic_tree():
    paths = extract_critpaths(_synthetic_tree())
    assert len(paths) == 1
    path = paths[0]
    assert path.end_ms - path.start_ms == 100.0
    assert abs(path.attributed_ms - 100.0) < 1e-9
    totals = path.phase_totals()
    # Every named phase lands where the tree says it should.
    assert totals["mint.lwt"] == 20.0            # store.cas body
    assert totals["mint.batch_wait"] == 10.0     # createLockRef self-gaps
    assert totals["acquire.queue_wait"] == 45.0  # polls + root-level gap
    assert totals["acquire.grant"] == 5.0
    assert totals["op.quorum_fastest"] == 8.0    # until first replica done
    assert totals["op.quorum_straggler"] == 7.0  # waiting out the quorum
    assert totals["client.backoff"] == 5.0       # trailing root gap
    assert "other" not in totals
    # The late reply past the parent's end is tracked off-path, not
    # folded into the partition.
    assert path.straggler_offpath_ms == 4.0


def test_dominant_phase_and_guilty_spans():
    path = extract_critpaths(_synthetic_tree())[0]
    phase, total = path.dominant_phase()
    assert phase == "acquire.queue_wait"
    assert abs(total - 45.0) < 1e-9
    guilty = path.guilty_spans("op.quorum_straggler")
    assert guilty  # names the span (and node) that held the CS up
    assert any(piece.span_id == 8 for piece, _held_ms in guilty)


def test_guilty_spans_sum_a_span_a_child_cut_in_two():
    """A span split by a child owns two slices of its phase: it is one
    guilty span, its slices summed, and the shorter runner-up still
    gets the second place."""
    path = extract_critpaths([
        _span(1, None, ROOT_SPAN, 0, 100),
        _span(2, 1, "music.acquireLock", 0, 50),
        _span(3, 2, "music.grant", 20, 25),   # cuts span 2: 20 + 25 ms
        _span(4, 1, "music.acquireLock", 55, 70),
    ])[0]
    guilty = path.guilty_spans("acquire.queue_wait", limit=2)
    assert [(piece.span_id, held_ms) for piece, held_ms in guilty] == [(2, 45.0), (4, 15.0)]
    assert "#2 music.acquireLock" in explain_table([path], slowest=1)


def test_min_slice_filter_preserves_exactness_reporting():
    # min_slice_ms drops sub-threshold slivers from the record but the
    # partition itself is computed over the full tree first.
    paths = extract_critpaths(_synthetic_tree(), min_slice_ms=6.0)
    path = paths[0]
    assert all(s.duration_ms >= 6.0 for s in path.slices)
    assert path.attributed_ms <= 100.0


def test_observe_phases_and_summary_render():
    paths = extract_critpaths(_synthetic_tree())
    metrics = MetricsRegistry()
    observe_phases(paths, metrics)
    names = {i.name for i in metrics.instruments("histogram")}
    assert "crit.cs_ms" in names
    assert "crit.phase_ms" in names
    summary = dict(
        (phase, total) for phase, _, total in phase_summary(paths)
    )
    assert summary["acquire.queue_wait"] == 45.0
    rendered = render_phase_summary(paths)
    assert "acquire.queue_wait" in rendered
    table = explain_table(paths, slowest=5)
    assert "acquire.queue_wait" in table


def _contention_paths(clients=16, rounds=2, seed=606):
    deployment = build_music(obs=True, seed=seed)
    sim = deployment.sim
    obs = deployment.obs
    sites = deployment.profile.site_names
    workers = [
        deployment.client(sites[index % len(sites)])
        for index in range(clients)
    ]

    def worker(client):
        for _ in range(rounds):
            with obs.tracer.span(
                ROOT_SPAN, node=client.client_id, site=client.site, key="hot"
            ):
                section = yield from client.critical_section("hot", timeout_ms=1e9)
                value = yield from section.get()
                yield from section.put((value or 0) + 1)
                yield from section.exit()

    processes = [sim.process(worker(client)) for client in workers]
    for process in processes:
        sim.run_until_complete(process, limit=1e10)
    return extract_critpaths(obs.tracer.spans)


def test_contention_acceptance_every_cs_explained():
    """The ISSUE acceptance bar: on the 16-client contention bench every
    CS gets a dominant phase and phase sums land within 5% of latency."""
    paths = _contention_paths()
    assert len(paths) == 32  # 16 clients x 2 rounds
    for path in paths:
        latency = path.end_ms - path.start_ms
        assert latency > 0
        phase, total = path.dominant_phase()
        assert phase and phase != "other"
        assert total > 0
        error = abs(path.attributed_ms - latency) / latency
        assert error <= 0.05, f"trace {path.trace_id}: {error:.2%} unattributed"
    # Contention must actually show up as lock-path time somewhere.
    totals = {}
    for path in paths:
        for phase, total in path.phase_totals().items():
            totals[phase] = totals.get(phase, 0.0) + total
    assert totals.get("acquire.queue_wait", 0.0) > 0.0
    assert totals.get("mint.lwt", 0.0) > 0.0


def test_a_cas_that_raised_under_a_partition_is_still_attributed(monkeypatch):
    """Regression: a ``store.cas`` span that ends by raising
    (QuorumUnavailable: no Paxos quorum across a partition) never sets
    ``attempts``; classifying its self time used to raise KeyError."""
    deployment = build_music(obs=True, seed=5)
    sim, obs = deployment.sim, deployment.obs
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 300.0)
    client = deployment.client("Ohio")
    deployment.network.isolate_site("Ohio")

    def stranded():
        with obs.tracer.span(
            ROOT_SPAN, node=client.client_id, site=client.site, key="k"
        ):
            try:
                yield from client.critical_section("k", timeout_ms=2_000.0)
            except ReproError:
                pass

    sim.run_until_complete(sim.process(stranded()), limit=1e10)
    failed = [
        span for span in obs.tracer.spans
        if span.name == "store.cas" and "attempts" not in span.attrs
    ]
    assert failed, "the partition should have failed a CAS mid-flight"
    (path,) = extract_critpaths(obs.tracer.spans)
    latency = path.end_ms - path.start_ms
    assert latency > 0 and abs(path.attributed_ms - latency) < 1e-6
    assert "mint.lwt" in path.phase_totals()
    assert "mint.ballot_backoff" not in path.phase_totals()


def test_an_uncontended_first_section_bills_its_acquire_by_what_it_runs():
    """A traced first section on a fresh key: the acquire's local peek
    is ``acquire.peek`` and the grant's startTime write ``acquire.grant``,
    each one single-replica round trip at our site; the mint's accept
    round carried the grant's flag read, so no ``acquire.flag_read``
    time remains on the path."""
    music = build_music(obs=True)
    client = music.client("Ohio")
    tracer = music.obs.tracer

    def section():
        with tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
            cs = yield from client.critical_section("fresh")
            yield from cs.get()
            yield from cs.put(1)
            yield from cs.exit()

    music.sim.run_until_complete(music.sim.process(section()))
    (path,) = extract_critpaths(tracer.spans)
    totals = path.phase_totals()
    assert "acquire.flag_read" not in totals
    local = music.profile.rtt("Ohio", "Ohio") + StoreConfig.coordinator_service_ms
    assert totals["acquire.peek"] == approx(local + StoreConfig.read_service_ms, abs=0.01)
    assert totals["acquire.grant"] == approx(local + StoreConfig.write_service_ms, abs=0.01)

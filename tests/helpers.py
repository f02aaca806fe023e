"""Shared builders for integration tests."""

from dataclasses import replace

from repro.net import PAPER_PROFILES, Network, Node
from repro.sim import RandomStreams, Simulator
from repro.store import StoreConfig, build_cluster


def make_store(
    profile_name="lUs",
    nodes_per_site=1,
    host_sites=("Ohio",),
    config=None,
    seed=11,
    anti_entropy=False,
    clock_skew_ms=0.0,
):
    """A started store cluster plus one host Node per requested site.

    Returns (sim, network, cluster, hosts) where hosts is a list of
    plain nodes (for binding coordinators / MUSIC replicas / clients).
    """
    profile = PAPER_PROFILES[profile_name]
    sim = Simulator()
    streams = RandomStreams(seed)
    network = Network(sim, profile, streams=streams)
    config = config or StoreConfig(
        replication_factor=len(profile.site_names),
        anti_entropy_enabled=anti_entropy,
    )
    config.anti_entropy_enabled = anti_entropy
    cluster = build_cluster(
        sim,
        network,
        profile,
        nodes_per_site=nodes_per_site,
        config=config,
        streams=streams,
        clock_skew_ms=clock_skew_ms,
    )
    cluster.start()
    hosts = []
    for index, site in enumerate(host_sites):
        host = Node(sim, network, f"host-{index}", site)
        host.start()
        hosts.append(host)
    return sim, network, cluster, hosts


def run(sim, generator, limit=1e9):
    """Run a client generator to completion and return its value."""
    return sim.run_until_complete(sim.process(generator), limit=limit)


def commit(sim, engine, updates, **kwargs):
    """``StorageEngine.commit`` a batch and run the clock until it is
    applied (at once, unless an fsync latency must be waited out)."""
    applied = sim.event()
    engine.commit(updates, then=applied.succeed, **kwargs)
    return sim.run_until_complete(applied)


def broken_rpc(*_args, **_kwargs):
    """A stand-in for ``Node.call`` that raises what no peer failure
    raises: a bug on the RPC path, not an ``RpcTimeout``."""
    raise TypeError("bug on the RPC path")
    yield  # pragma: no cover - keeps this a generator like Node.call


def assert_replay_equivalent(auditor, subscribe=None):
    """Online and offline checking are one oracle: replaying the
    recorded history through a fresh checker reaches the verdict the
    online checker reached, record for record.

    ``subscribe(stream)`` adds whatever the online stream carried beside
    the ECF checker (e.g. a bound ``WaitsForGraph``) to the fresh one.
    """
    from repro.obs import ECFAuditor

    assert auditor.dropped == 0, "a truncated history cannot replay to the same verdict"
    replayed = ECFAuditor(period_ms=auditor.period_ms)
    if subscribe is not None:
        subscribe(replayed)
    for event in auditor.events:
        replayed.ingest(event)
    assert replayed.violations == auditor.violations
    assert replayed.violation_counts == auditor.violation_counts
    assert replayed.counters == auditor.counters
    return replayed


def assert_queue_model_matches_store(music, keys):
    """The auditor's lock-queue model ends where the store ends: the
    run's history leaves queued on each of ``keys`` exactly the lockRefs
    a QUORUM read of its lock partition returns.  A hot-path release is
    reported as its delete is sent, so the model drops the lockRef even
    if the delete never takes effect; only this check would see that."""
    from repro.lockstore import LOCK_TABLE, LockStore
    from repro.obs import AuditStream
    from repro.obs.ecf import ECFChecker
    from repro.store import Consistency

    assert music.auditor.dropped == 0, "a truncated history has no end state"
    checker = ECFChecker(AuditStream(music.auditor.period_ms))
    for event in music.auditor.events:
        checker.on_event(event)
    replica = next(r for r in music.replicas if not music.network.is_failed(r.node_id))
    for key in keys:
        read = replica.lock_store.coordinator.get(LOCK_TABLE, key, consistency=Consistency.QUORUM)
        stored = sorted(LockStore._lock_refs(run(music.sim, read)))
        assert stored == sorted(checker.queued(key)), (key, stored)


def audit_history(auditor):
    """What the stream recorded, minus the span ids only a traced run has."""
    return [
        (e.seq, e.t_ms, e.kind, e.key, e.node, e.lock_ref, e.stamp, e.fields)
        for e in auditor.events
    ]


def in_both_audit_modes(scenario, **kwargs):
    """The audit is one oracle at two prices: run ``scenario(obs=…)``
    audit-only and with tracing + metrics beside it, and require the
    same history and the same verdict from both — only the traced run
    can name spans.  Returns the two results, audit-only first.

    A scenario returns its deployment, or a tuple that starts with it.
    """
    runs = [scenario(obs=obs, **kwargs) for obs in (None, True)]
    plain, traced = (
        (result[0] if isinstance(result, tuple) else result).auditor
        for result in runs
    )
    assert plain.tracer is None and traced.tracer is not None
    assert audit_history(plain) == audit_history(traced)
    assert all(e.span_id is None and e.trace_id is None for e in plain.events)
    assert plain.violation_counts == traced.violation_counts
    assert plain.counters == traced.counters
    assert not any(v.trace_spans for v in plain.violations)
    assert plain.violations == [replace(v, trace_spans=[]) for v in traced.violations]
    return runs

"""Sim-vs-live conformance: same protocol code, same workload, both
transports, auditor on, zero violations, identical client-visible state.

The workload is the shared counter-increment CS loop from
``repro.live.client.cs_workload``, run in **service mode** in both
worlds (the one ``MusicClient`` handed RPC stubs of the replicas):

* DES: ``build_music(audit=True)`` + ``deployment.service_client`` on
  the simulated Network — deterministic schedule, online auditing.
* live: a 3-node ``LocalCluster`` — real TCP sockets, wall-clock
  schedule, per-node audit slices merged and replayed offline.

The final per-key counters must be exactly ``increments(key)`` in both
modes — equality of client-visible state despite completely different
schedules — and neither mode may raise a single ECF violation.
"""

import asyncio

from repro.core import build_music
from repro.live import LocalCluster, cs_workload

from .conftest import make_spec

KEYS_SINGLE = ["conf-key"]
KEYS_MULTI = ["conf-a", "conf-b", "conf-c"]
ROUNDS = 3
N_CLIENTS = 3


def expected_counters(keys, n_clients, rounds):
    return {
        key: sum(1 for i in range(n_clients) if keys[i % len(keys)] == key) * rounds
        for key in keys
    }


def run_sim_workload(keys, n_clients=N_CLIENTS, rounds=ROUNDS, seed=11):
    deployment = build_music(seed=seed, audit=True)
    sim = deployment.sim
    sites = deployment.profile.site_names
    clients = [
        deployment.service_client(sites[index % len(sites)])
        for index in range(n_clients)
    ]
    result = sim.run_until_complete(
        sim.process(cs_workload(sim, clients, keys, rounds)), limit=1e9
    )
    return result, deployment.auditor


def run_live_workload(keys, tmp_path, n_clients=N_CLIENTS, rounds=ROUNDS, seed=11):
    async def main():
        spec = make_spec(n_nodes=3, seed=seed, tmp_path=tmp_path)
        async with LocalCluster(spec) as cluster:
            result = await cluster.run_workload(
                keys=keys, rounds=rounds, n_clients=n_clients, timeout_s=90.0
            )
            auditor = cluster.audit()
            failures = cluster.drain_failures()
        return result, auditor, failures

    return asyncio.run(main())


def test_workload_metrics_use_the_shared_percentile_rule():
    """p50/p99 come from ``bench.report.summarize`` (linear interpolation),
    like every simulated BENCH file; an empty sample reads 0."""
    from repro.bench.report import summarize
    from repro.live import WorkloadResult, workload_metrics

    samples = [10.0, 20.0, 30.0, 40.0]
    metrics = workload_metrics(WorkloadResult(completed_cs=4, cs_latencies_ms=samples))
    assert metrics["cs_p50_ms"] == summarize(samples).p50 == 25.0
    assert metrics["cs_p99_ms"] == summarize(samples).p99
    assert metrics["acquire_p50_ms"] == metrics["acquire_p99_ms"] == 0.0


def check_conformance(keys, tmp_path):
    expected = expected_counters(keys, N_CLIENTS, ROUNDS)

    sim_result, sim_auditor = run_sim_workload(keys)
    assert sim_result.failed_cs == 0
    assert sim_result.final_values == expected
    assert sim_auditor is not None and sim_auditor.violations == []

    live_result, live_auditor, failures = run_live_workload(keys, tmp_path)
    assert failures == []
    assert live_result.failed_cs == 0
    assert live_result.final_values == expected
    assert live_auditor.violations == []
    assert len(live_auditor.events) > 0

    # The paper's point, stated as an assert: different transports and
    # schedules, identical client-visible outcome.
    assert live_result.final_values == sim_result.final_values
    assert live_result.completed_cs == sim_result.completed_cs == N_CLIENTS * ROUNDS


def test_single_key_conformance(tmp_path):
    check_conformance(KEYS_SINGLE, tmp_path)


def test_multi_key_conformance(tmp_path):
    check_conformance(KEYS_MULTI, tmp_path)

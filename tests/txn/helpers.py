"""Shared driver for the transaction-layer tests: run a seeded Zipfian
transactional workload against one engine and return everything the
assertions need."""

from repro.core import build_music
from repro.workloads import txn_mix


def run_workload(
    engine,
    deployment,
    clients=6,
    txns_per_client=8,
    key_count=20,
    theta=0.9,
    read_fraction=0.4,
    keys_per_txn=(2, 3),
    stream="txn-test",
    make_client=None,
):
    """Drive ``clients`` workers through the retrying executor; returns
    the list of :class:`~repro.txn.api.TxnResult`.  ``make_client(site)``
    defaults to the deployment's library-mode clients."""
    sim = deployment.sim
    mix = txn_mix(keys_per_txn, read_fraction=read_fraction, zipf_theta=theta)
    rng = deployment.streams.stream(stream)
    sites = deployment.profile.site_names
    results = []

    def worker(client, specs):
        executor = deployment.txn.executor(engine, client=client)
        for spec in specs:
            result = yield from executor.run(spec)
            results.append(result)

    make_client = make_client or deployment.client
    procs = []
    for index in range(clients):
        client = make_client(sites[index % len(sites)])
        specs = list(mix.transactions(txns_per_client, key_count, rng))
        procs.append(sim.process(worker(client, specs)))
    for proc in procs:
        sim.run_until_complete(proc, limit=1e10)
    engine.stop()
    return results


def build_txn_music(**overrides):
    overrides.setdefault("seed", 7)
    return build_music(**overrides)

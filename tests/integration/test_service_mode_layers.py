"""The layers above the client are mode-blind.

Multi-key sections, the recipes and the transaction engines are written
against ``MusicClient`` alone; handed service-mode clients (RPC stubs
under the same client, each on its own host) they must behave as they
do in library mode — with the runtime ECF auditor attached and clean.

The one layer that reaches *through* the client to a replica-only hook
stays library-only and is not exercised here: ``PortalFrontend``
(``replica.push.add_listener``).
"""

import pytest

from repro.core import build_music, enter_multi
from repro.recipes import AtomicCounter, AtomicQueue
from repro.txn import SerializabilityChecker
from tests.helpers import run
from tests.txn.helpers import build_txn_music, run_workload


def test_multi_key_sections_over_service_clients():
    music = build_music(seed=31, audit=True)
    sites = music.profile.site_names
    clients = [music.service_client(site) for site in sites]

    def transfer(client):
        for _ in range(2):
            cs = yield from enter_multi(client, ["acct-a", "acct-b"], timeout_ms=60_000.0)
            values = yield from cs.get_all()
            a = 100 if values["acct-a"] is None else values["acct-a"]
            b = 100 if values["acct-b"] is None else values["acct-b"]
            yield from cs.put_all({"acct-a": a - 5, "acct-b": b + 5})
            yield from cs.exit()

    def scenario():
        yield music.sim.all_of(
            [music.sim.process(transfer(client)) for client in clients]
        )
        cs = yield from enter_multi(clients[0], ["acct-a", "acct-b"], read_only=True)
        values = yield from cs.get_all()
        yield from cs.exit()
        return values

    moved = 5 * 2 * len(clients)
    assert run(music.sim, scenario()) == {"acct-a": 100 - moved, "acct-b": 100 + moved}
    assert music.auditor.clean, music.auditor.render_report()


def test_recipes_over_service_clients():
    music = build_music(seed=32, audit=True)
    sites = music.profile.site_names
    counters = [AtomicCounter(music.service_client(site), "hits") for site in sites]
    producer = AtomicQueue(music.service_client(sites[0]), "work")
    consumer = AtomicQueue(music.service_client(sites[-1]), "work")

    def bump(counter):
        for _ in range(3):
            yield from counter.increment()

    def scenario():
        yield music.sim.all_of([music.sim.process(bump(c)) for c in counters])
        for item in ("a", "b", "c"):
            yield from producer.enqueue(item)
        drained = []
        for _ in range(3):
            ok, item = yield from consumer.dequeue()
            assert ok
            drained.append(item)
        total = yield from counters[0].get()
        return total, drained

    assert run(music.sim, scenario()) == (3 * len(sites), ["a", "b", "c"])
    assert music.auditor.clean, music.auditor.render_report()


@pytest.mark.parametrize("name", ["locking", "occ"])
def test_txn_engine_over_service_clients(name):
    """2PL goes through the lock operations, OCC through the stamped
    and unguarded quorum operations — both cross the wire here."""
    music = build_txn_music(audit=True)
    engine = music.txn.engine(name)
    results = run_workload(
        engine, music, clients=4, txns_per_client=5,
        make_client=music.service_client,
    )

    assert results and all(r.committed for r in results)
    violations = SerializabilityChecker().check(engine.committed)
    assert violations == [], "\n".join(v.render() for v in violations)
    assert music.auditor.clean, music.auditor.render_report()

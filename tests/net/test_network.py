"""Tests for the simulated WAN transport."""

import pytest

from repro.net import PROFILE_LUS, Network
from repro.net.network import MESSAGE_OVERHEAD_BYTES
from repro.sim import Mailbox, RandomStreams, Simulator


def make_network(**kwargs):
    sim = Simulator()
    net = Network(sim, PROFILE_LUS, streams=RandomStreams(7), **kwargs)
    inboxes = {}
    for node_id, site in [("a", "Ohio"), ("b", "N.California"), ("c", "Oregon"), ("a2", "Ohio")]:
        inboxes[node_id] = Mailbox(sim, name=node_id)
        net.register(node_id, site, inboxes[node_id])
    return sim, net, inboxes


def test_delivery_latency_is_half_rtt_plus_transmission():
    sim, net, inboxes = make_network()
    received = []

    def receiver():
        msg = yield inboxes["b"].get()
        received.append((msg.body, sim.now))

    sim.process(receiver())
    net.send("a", "b", "ping", "hello", size_bytes=64)
    sim.run()
    expected = (64 + MESSAGE_OVERHEAD_BYTES) / net.bandwidth + 53.79 / 2
    assert received[0][0] == "hello"
    assert received[0][1] == pytest.approx(expected)


def test_intra_site_delivery_is_fast():
    sim, net, inboxes = make_network()
    received = []

    def receiver():
        yield inboxes["a2"].get()
        received.append(sim.now)

    sim.process(receiver())
    net.send("a", "a2", "ping", None)
    sim.run()
    assert received[0] < 1.0  # well under a WAN RTT


def test_egress_serialization_queues_messages():
    """Two large back-to-back sends: the second waits for the first's tx."""
    sim, net, inboxes = make_network()
    times = []

    def receiver():
        for _ in range(2):
            yield inboxes["b"].get()
            times.append(sim.now)

    sim.process(receiver())
    size = 1_000_000  # 1 MB -> 8 ms transmission at 1 Gbps
    net.send("a", "b", "bulk", None, size_bytes=size)
    net.send("a", "b", "bulk", None, size_bytes=size)
    sim.run()
    tx = (size + MESSAGE_OVERHEAD_BYTES) / net.bandwidth
    assert times[1] - times[0] == pytest.approx(tx)


def test_partitioned_sites_drop_messages():
    sim, net, inboxes = make_network()
    net.partition_sites("Ohio", "N.California")
    net.send("a", "b", "ping", None)
    sim.run()
    assert len(inboxes["b"]) == 0
    assert net.stats.dropped_partition == 1

    net.heal_sites("Ohio", "N.California")
    net.send("a", "b", "ping", None)
    sim.run()
    assert len(inboxes["b"]) == 1


def test_partition_heals_midflight_lets_late_packets_through():
    """A message sent during a partition is delivered if healed before arrival."""
    sim, net, inboxes = make_network()
    net.partition_sites("Ohio", "N.California")
    net.send("a", "b", "ping", None)
    # Heal before the ~27ms propagation completes.
    sim.call_at(1.0, lambda: net.heal_sites("Ohio", "N.California"))
    sim.run()
    assert len(inboxes["b"]) == 1


def test_isolate_site_cuts_all_pairs():
    sim, net, inboxes = make_network()
    net.isolate_site("Ohio")
    assert net.partitioned("Ohio", "N.California")
    assert net.partitioned("Ohio", "Oregon")
    assert not net.partitioned("N.California", "Oregon")
    net.heal_all()
    assert not net.partitioned("Ohio", "Oregon")


def test_failed_node_drops_traffic_both_ways():
    sim, net, inboxes = make_network()
    net.fail_node("b")
    net.send("a", "b", "ping", None)
    net.send("b", "a", "ping", None)
    sim.run()
    assert len(inboxes["b"]) == 0
    assert len(inboxes["a"]) == 0
    assert net.stats.dropped_failed == 2

    net.recover_node("b")
    net.send("a", "b", "ping", None)
    sim.run()
    assert len(inboxes["b"]) == 1


def test_loss_probability_drops_some_messages():
    sim, net, inboxes = make_network(loss_probability=0.5)
    for _ in range(200):
        net.send("a", "b", "ping", None)
    sim.run()
    delivered = len(inboxes["b"])
    assert 60 < delivered < 140  # ~100 expected
    assert net.stats.dropped_loss == 200 - delivered


def test_jitter_inflates_latency_but_never_reduces_it():
    sim, net, inboxes = make_network(jitter_fraction=0.2)
    arrivals = []

    def receiver():
        while True:
            yield inboxes["b"].get()
            arrivals.append(sim.now)

    sim.process(receiver())
    net.send("a", "b", "ping", None, size_bytes=0)
    sim.run()
    base = 53.79 / 2
    assert arrivals[0] >= base
    assert arrivals[0] <= base * 1.2 + 1.0


def test_duplicate_registration_rejected():
    sim, net, _ = make_network()
    with pytest.raises(ValueError):
        net.register("a", "Ohio", Mailbox(sim))


def test_register_unknown_site_rejected():
    sim, net, _ = make_network()
    with pytest.raises(ValueError):
        net.register("x", "Atlantis", Mailbox(sim))


def test_stats_and_taps_observe_sends():
    sim, net, _ = make_network()
    seen = []
    net.add_tap(lambda msg: seen.append(msg.kind))
    net.send("a", "b", "ping", None)
    net.send("a", "c", "data", None, size_bytes=100)
    sim.run()
    assert net.stats.sent == 2
    assert net.stats.delivered == 2
    assert net.stats.per_kind == {"ping": 1, "data": 1}
    assert seen == ["ping", "data"]


def test_site_of_lookup():
    _, net, _ = make_network()
    assert net.site_of("a") == "Ohio"
    assert net.site_of("c") == "Oregon"

"""The two environment seams: both worlds satisfy the same Protocols.

These are the structural guarantees the whole PR rests on: the DES
pair (Simulator, Network) and the live pair (LiveClock, TcpTransport)
are interchangeable behind ``repro.runtime.Clock`` / ``Transport``, so
protocol code cannot tell which world it is running in.
"""

import asyncio

import pytest

from repro.live import LiveClock, TcpTransport, localhost_spec
from repro.net import PROFILE_LUS, Network
from repro.runtime import Clock, Transport, require_clock, require_transport
from repro.sim import RandomStreams, Simulator


def test_simulator_satisfies_clock():
    sim = Simulator()
    assert isinstance(sim, Clock)
    require_clock(sim)


def test_live_clock_satisfies_clock():
    async def main():
        clock = LiveClock()
        assert isinstance(clock, Clock)
        require_clock(clock)

    asyncio.run(main())


def test_network_satisfies_transport():
    sim = Simulator()
    network = Network(sim, PROFILE_LUS, streams=RandomStreams(1))
    assert isinstance(network, Transport)
    require_transport(network)


def test_tcp_transport_satisfies_transport():
    async def main():
        clock = LiveClock()
        transport = TcpTransport(clock, localhost_spec(n_nodes=2, base_port=0))
        assert isinstance(transport, Transport)
        require_transport(transport)

    asyncio.run(main())


def test_require_clock_names_missing_attributes():
    class NotAClock:
        now = 0.0

    with pytest.raises(TypeError) as exc:
        require_clock(NotAClock())
    message = str(exc.value)
    assert "timeout" in message
    assert "process" in message


def test_require_transport_names_missing_attributes():
    class NotATransport:
        pass

    with pytest.raises(TypeError) as exc:
        require_transport(NotATransport())
    assert "send" in str(exc.value)


def test_clock_contract_does_not_include_push():
    """``_push`` is a private method of each kernel (behind ``call_at``),
    not part of the seam: a clock without it is still a Clock."""

    class WithoutPush:
        def __init__(self, sim):
            self._sim = sim

        def __getattr__(self, name):
            if name == "_push":
                raise AttributeError(name)
            return getattr(self._sim, name)

    clock = WithoutPush(Simulator())
    assert not hasattr(clock, "_push")
    assert isinstance(clock, Clock)
    require_clock(clock)

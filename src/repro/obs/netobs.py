"""Network observation: a shared fan-out of message send events.

:class:`repro.net.Network` exposes a raw tap (``add_tap``) that fires
for every accepted send.  This module turns that into a single, shared
subscription point: one tap per network, fanning out typed
:class:`NetworkEvent` records to any number of subscribers (the metrics
sink, exporters, tests).  With no subscribers the cost is
the network's existing empty-tap-list check — nothing here runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

__all__ = ["NetworkEvent", "NetworkObserver", "network_events"]


@dataclass(slots=True)
class NetworkEvent:
    """One message accepted for sending."""

    at: float
    src: str
    dst: str
    kind: str
    size_bytes: int
    message_id: int


Subscriber = Callable[[NetworkEvent], None]


class NetworkObserver:
    """Fans one network tap out to typed-event subscribers."""

    def __init__(self, network) -> None:
        self.network = network
        self._subscribers: List[Subscriber] = []
        network.add_tap(self._on_message)

    def subscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    def _on_message(self, message) -> None:
        if not self._subscribers:
            return
        event = NetworkEvent(
            at=message.sent_at,
            src=message.src,
            dst=message.dst,
            kind=message.kind,
            size_bytes=message.size_bytes,
            message_id=message.message_id,
        )
        for subscriber in self._subscribers:
            subscriber(event)


def network_events(network) -> NetworkObserver:
    """The (single) observer for ``network``, created on first use."""
    observer = getattr(network, "_obs_network_observer", None)
    if observer is None:
        observer = NetworkObserver(network)
        network._obs_network_observer = observer
    return observer

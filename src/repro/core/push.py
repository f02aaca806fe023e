"""Push grants (DESIGN.md §9): a release wakes whoever waits on the key.

:class:`ReleasePush` owns a replica's channel: the per-key waiter events
a blocking acquire parks on, the release listeners of the layers above,
and the one-way ``music.grantPush`` fan-out to the other MUSIC replicas.
A push is advisory — a lost one only leaves a waiter to its poll timer.
:data:`NO_PUSH` is the channel switched off.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List

from ..net import Node

__all__ = ["NO_PUSH", "ReleasePush"]


class ReleasePush:
    """The release channel of ``node``, pushing to ``peer_ids``."""

    def __init__(self, node: Node, peer_ids: Iterable[str]) -> None:
        self.node = node
        self.peer_ids = list(peer_ids)
        self._waiters: Dict[str, list] = {}
        self._listeners: List[Callable[[str], None]] = []
        self._notifies: Any = None
        node.on("music.grantPush", lambda msg: self._notify(msg.body["key"]))

    def subscribe(self, key: str) -> Any:
        """An Event succeeding at the key's next (observed) dequeue."""
        event = self.node.sim.event(name=f"grantPush:{key}")
        self._waiters.setdefault(key, []).append(event)
        return event

    def unsubscribe(self, key: str, event: Any) -> None:
        waiters = self._waiters.get(key)
        if waiters and event in waiters:
            waiters.remove(event)
            if not waiters:
                del self._waiters[key]

    def add_listener(self, callback: Callable[[str], None]) -> None:
        """Call ``callback`` with the key of every release observed here."""
        self._listeners.append(callback)

    def push(self, key: str) -> None:
        """Wake this replica's waiters on ``key`` and nudge every peer."""
        if self._notifies is None:
            self._notifies = self.node.obs.metrics.counter(
                "music.push.notifies", node=self.node.node_id
            )
        self._notifies.inc()
        self._notify(key)
        for peer in self.peer_ids:
            self.node.send(peer, "music.grantPush", {"key": key})

    def _notify(self, key: str) -> None:
        for listener in self._listeners:
            listener(key)
        for event in self._waiters.pop(key, ()):
            if not event.triggered:
                event.succeed(True)


class _NoPush:
    """Push grants off: nobody is subscribed, nothing is sent."""

    def subscribe(self, key: str) -> None:
        return None

    def unsubscribe(self, key: str, event: Any) -> None:
        pass

    def add_listener(self, callback: Callable[[str], None]) -> None:
        pass

    def push(self, key: str) -> None:
        pass


NO_PUSH = _NoPush()

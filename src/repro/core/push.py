"""Push grants (DESIGN.md §9): a release wakes the next lockholder.

:class:`ReleasePush` owns a replica's channel: the waiter events a
blocking acquire parks on, one per (key, lockRef), the release listeners
of the layers above, and the one-way ``music.grantPush`` fan-out to the
other MUSIC replicas.  A push names the key and the successor the
release handed the lock to, and wakes that lockRef's waiter only;
listeners hear every release.  A push is advisory — a lost one only
leaves a waiter to its poll fuse (:meth:`distance`).  :data:`NO_PUSH` is
the channel off.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..net import Node

__all__ = ["NO_PUSH", "ReleasePush"]


class ReleasePush:
    """The release channel of ``node`` and its ``lock_store``, pushing to ``peer_ids``."""

    def __init__(self, node: Node, peer_ids: Iterable[str], lock_store: Any) -> None:
        self.node = node
        self.peer_ids = list(peer_ids)
        self.lock_store = lock_store
        self._waiters: Dict[Tuple[str, int], list] = {}
        self._listeners: List[Callable[[str], None]] = []
        node.on("music.grantPush", lambda msg: self._notify(msg.body["key"], msg.body["next"]))

    def subscribe(self, key: str, lock_ref: int) -> Any:
        """An Event succeeding when a release of ``key`` observed here
        names ``lock_ref`` its successor."""
        event = self.node.sim.event(name=f"grantPush:{key}")
        self._waiters.setdefault((key, lock_ref), []).append(event)
        return event

    def unsubscribe(self, key: str, lock_ref: int, event: Any) -> None:
        waiters = self._waiters.get((key, lock_ref))
        if waiters and event in waiters:
            waiters.remove(event)
            if not waiters:
                del self._waiters[(key, lock_ref)]

    def add_listener(self, callback: Callable[[str], None]) -> None:
        """Call ``callback`` with the key of every release observed here."""
        self._listeners.append(callback)

    def distance(self, key: str, lock_ref: int) -> int:
        """How far behind its queue head the last lock peek here found
        ``lock_ref``, at least 1: the waiter's poll fuse scales by it."""
        return self.lock_store.places_behind(key, lock_ref)

    def push(self, key: str, successor: Optional[int]) -> None:
        """Wake ``successor``'s waiter on ``key``, here and at every peer;
        with neither a successor nor a listener there is nothing to send."""
        if successor is None and not self._listeners:
            return
        self.node.counters["push_notifies"] += 1
        self._notify(key, successor)
        body = {"key": key, "next": successor}
        for peer in self.peer_ids:
            self.node.send(peer, "music.grantPush", body)

    def _notify(self, key: str, successor: Optional[int]) -> None:
        for listener in self._listeners:
            listener(key)
        for event in self._waiters.pop((key, successor), ()):
            if not event.triggered:
                event.succeed(True)


class _NoPush:
    """Push grants off: nobody is subscribed, nothing is sent."""

    def subscribe(self, key: str, lock_ref: int) -> None:
        return None

    def unsubscribe(self, key: str, lock_ref: int, event: Any) -> None:
        pass

    def add_listener(self, callback: Callable[[str], None]) -> None:
        pass

    def push(self, key: str, successor: Optional[int]) -> None:
        pass


NO_PUSH = _NoPush()

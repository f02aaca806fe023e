"""Atomic data structures over MUSIC critical sections."""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from ..core.client import MusicClient
from ..errors import ReproError

__all__ = ["AtomicCounter", "AtomicMap", "AtomicQueue", "LeaderElection"]


class AtomicCounter:
    """A geo-replicated counter with atomic read-modify-write ops."""

    def __init__(self, client: MusicClient, name: str) -> None:
        self.client = client
        self.key = f"recipes/counter/{name}"

    def add(self, delta: int) -> Generator[Any, Any, int]:
        """Atomically add ``delta``; returns the new value."""
        cs = yield from self.client.critical_section(self.key)
        value = yield from cs.get()
        new_value = (value or 0) + delta
        yield from cs.put(new_value)
        yield from cs.exit()
        return new_value

    def increment(self) -> Generator[Any, Any, int]:
        value = yield from self.add(1)
        return value

    def get(self) -> Generator[Any, Any, int]:
        """A latest-state read (under the lock)."""
        cs = yield from self.client.critical_section(self.key)
        value = yield from cs.get()
        yield from cs.exit()
        return value or 0

    def get_eventual(self) -> Generator[Any, Any, int]:
        """A cheap, possibly-stale read (no lock)."""
        value = yield from self.client.get(self.key)
        return value or 0


class AtomicMap:
    """A map whose compound updates are atomic per map (one key)."""

    def __init__(self, client: MusicClient, name: str) -> None:
        self.client = client
        self.key = f"recipes/map/{name}"

    def update(self, updater) -> Generator[Any, Any, Dict]:
        """Apply ``updater(dict) -> dict`` atomically; returns the result."""
        cs = yield from self.client.critical_section(self.key)
        current = yield from cs.get()
        new_value = updater(dict(current or {}))
        yield from cs.put(new_value)
        yield from cs.exit()
        return new_value

    def put_item(self, item_key: str, item_value: Any) -> Generator[Any, Any, None]:
        def setter(mapping: Dict) -> Dict:
            mapping[item_key] = item_value
            return mapping

        yield from self.update(setter)

    def remove_item(self, item_key: str) -> Generator[Any, Any, bool]:
        removed = {}

        def remover(mapping: Dict) -> Dict:
            removed["hit"] = item_key in mapping
            mapping.pop(item_key, None)
            return mapping

        yield from self.update(remover)
        return removed["hit"]

    def get_item(self, item_key: str) -> Generator[Any, Any, Any]:
        cs = yield from self.client.critical_section(self.key)
        mapping = yield from cs.get()
        yield from cs.exit()
        return (mapping or {}).get(item_key)

    def snapshot(self) -> Generator[Any, Any, Dict]:
        cs = yield from self.client.critical_section(self.key)
        mapping = yield from cs.get()
        yield from cs.exit()
        return dict(mapping or {})


class AtomicQueue:
    """A FIFO queue with atomic enqueue/dequeue (one key per queue)."""

    def __init__(self, client: MusicClient, name: str) -> None:
        self.client = client
        self.key = f"recipes/queue/{name}"

    def enqueue(self, item: Any) -> Generator[Any, Any, int]:
        """Append; returns the queue length after the append."""
        cs = yield from self.client.critical_section(self.key)
        items = yield from cs.get()
        items = list(items or [])
        items.append(item)
        yield from cs.put(items)
        yield from cs.exit()
        return len(items)

    def dequeue(self) -> Generator[Any, Any, Tuple[bool, Any]]:
        """Pop the head; returns (True, item) or (False, None) if empty."""
        cs = yield from self.client.critical_section(self.key)
        items = yield from cs.get()
        items = list(items or [])
        if not items:
            yield from cs.exit()
            return (False, None)
        head = items.pop(0)
        yield from cs.put(items)
        yield from cs.exit()
        return (True, head)


class LeaderElection:
    """Coarse-grained leader election — the classic locking-service use
    case (Section II's Chubby/Zookeeper comparison), expressed on MUSIC.

    The leader holds the election key's lock; its identity is published
    with an unlocked put so observers can read it cheaply.  If the
    leader dies, forcedRelease (the failure detector) reclaims the lock
    and the next candidate wins.  A deposed-but-alive leader's publishes
    are unlocked writes, so observers may transiently see stale identity
    — detectable by asking the current lockholder, which is exactly what
    ``assert_leadership`` does with a criticalGet.
    """

    def __init__(self, client: MusicClient, name: str, candidate_id: str) -> None:
        self.client = client
        self.key = f"recipes/election/{name}"
        self.candidate_id = candidate_id
        self._cs = None

    def campaign(self, timeout_ms: Optional[float] = None) -> Generator[Any, Any, bool]:
        """Block until elected (or the timeout passes)."""
        try:
            cs = yield from self.client.critical_section(self.key, timeout_ms)
        except ReproError:
            return False
        self._cs = cs
        yield from cs.put({"leader": self.candidate_id})
        return True

    @property
    def is_leader(self) -> bool:
        return self._cs is not None

    def assert_leadership(self) -> Generator[Any, Any, bool]:
        """Re-validate with a critical read; False once deposed."""
        if self._cs is None:
            return False
        try:
            value = yield from self._cs.get()
        except ReproError:
            self._cs = None
            return False
        return bool(value) and value.get("leader") == self.candidate_id

    def current_leader(self) -> Generator[Any, Any, Optional[str]]:
        """Cheap observer read (eventual; may lag a transition)."""
        value = yield from self.client.get(self.key)
        return value.get("leader") if value else None

    def resign(self) -> Generator[Any, Any, None]:
        if self._cs is None:
            return
        cs, self._cs = self._cs, None
        yield from cs.exit()

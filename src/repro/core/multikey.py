"""Multi-key critical sections (Section III-A's extension).

The paper: "The semantics can easily be extended by following the
deadlock-avoidance rule that locks are always acquired in lexicographic
order, and an acquireLock on multiple keys is successful only if it is
individually successful for all the keys in the key set."

``MultiKeyCriticalSection`` implements exactly that on top of the
single-key client operations: lockRefs are created and acquired in
lexicographic key order (so two clients contending on overlapping key
sets can never wait on each other in a cycle), critical operations are
per-key under the corresponding lockRef, and losing any one lock (a
forced release) aborts the whole section — partially-held locks are
released and the caller may retry with fresh lockRefs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from ..errors import NotLockHolder, ReproError
from .client import MusicClient

__all__ = ["MultiKeyCriticalSection", "ReadOnlyMultiKeySection", "enter_multi"]


class MultiKeyCriticalSection:
    """A held set of locks over several keys."""

    def __init__(self, client: MusicClient, lock_refs: Dict[str, int]) -> None:
        self.client = client
        self.lock_refs = dict(lock_refs)

    @property
    def keys(self) -> List[str]:
        return sorted(self.lock_refs)

    def get(self, key: str) -> Generator[Any, Any, Any]:
        value = yield from self.client.critical_get(key, self._ref(key))
        return value

    def put(self, key: str, value: Any) -> Generator[Any, Any, None]:
        yield from self.client.critical_put(key, self._ref(key), value)

    def get_all(self) -> Generator[Any, Any, Dict[str, Any]]:
        """Read every key of the section (a consistent multi-key view:
        no other client can be writing any of them while we hold all)."""
        values: Dict[str, Any] = {}
        for key in self.keys:
            values[key] = yield from self.get(key)
        return values

    def put_all(self, values: Dict[str, Any]) -> Generator[Any, Any, None]:
        for key in sorted(values):
            yield from self.put(key, values[key])

    def exit(self) -> Generator[Any, Any, None]:
        """Release every lock, all at once: nothing orders releases."""
        sim = self.client.sim
        yield sim.all_of([
            sim.process(self.client.release_lock(key, self.lock_refs[key]))
            for key in self.keys
        ])

    def _ref(self, key: str) -> int:
        if key not in self.lock_refs:
            raise KeyError(f"{key!r} is not part of this critical section")
        return self.lock_refs[key]


class ReadOnlyMultiKeySection(MultiKeyCriticalSection):
    """A read-only multi-key section (``enter_multi(..., read_only=True)``).

    Because it never writes, losing one lock to a preemption does not
    poison the section the way it poisons a writer: the whole point of
    holding the locks is to pin each key's value, and a lost key can be
    re-pinned by re-minting and re-acquiring *just that key* and
    re-reading — the other held keys stay locked throughout, so the
    combined view is still a moment-in-time snapshot (every value was
    read under a held lock, all locks overlapping).  With ``read_leases``
    on, the reads themselves are leaseholder local reads, so a wide
    read-only snapshot costs one lock round per key and near-zero per
    read — the read-scale-out fast path.
    """

    def __init__(
        self,
        client: MusicClient,
        lock_refs: Dict[str, int],
        reacquire_timeout_ms: float = 5_000.0,
    ) -> None:
        super().__init__(client, lock_refs)
        self.reacquire_timeout_ms = reacquire_timeout_ms
        self.counters = {"reacquires": 0}

    def get(self, key: str) -> Generator[Any, Any, Any]:
        ref = self._ref(key)
        try:
            value = yield from self.client.critical_get(key, ref)
            return value
        except NotLockHolder:
            # Preempted on this key only: re-pin it and retry the read.
            self.counters["reacquires"] += 1
            lock_ref = yield from self.client.create_lock_ref(key)
            granted = yield from self.client.acquire_lock_blocking(
                key, lock_ref, timeout_ms=self.reacquire_timeout_ms
            )
            if not granted:
                yield from self.client.release_lock(key, lock_ref)
                raise ReproError(
                    f"read-only section lost {key!r} and timed out "
                    "re-acquiring it"
                )
            self.lock_refs[key] = lock_ref
            value = yield from self.client.critical_get(key, lock_ref)
            return value

    def put(self, key: str, value: Any) -> Generator[Any, Any, None]:
        raise ReproError(
            "read-only multi-key section: puts are not allowed (its "
            "preemption recovery would not be safe for a writer)"
        )
        yield  # pragma: no cover - keeps this a generator like the base


def enter_multi(
    client: MusicClient,
    keys: Sequence[str],
    timeout_ms: Optional[float] = None,
    read_only: bool = False,
    retries: int = 9,
    on_ref: Optional[Callable[[str, int], None]] = None,
) -> Generator[Any, Any, MultiKeyCriticalSection]:
    """Acquire locks on all ``keys`` in lexicographic order.

    On a mid-acquisition preemption (some lock forcibly released while
    we wait for a later one), every held lock is released and the whole
    acquisition restarts with fresh lockRefs: up to ``retries``
    restarts (``retries + 1`` attempts in total) with *jittered
    exponential* backoff between them, so two clients repeatedly
    colliding on overlapping key sets desynchronise instead of
    re-colliding in lockstep.  Raises once the attempts are spent or
    when ``timeout_ms`` elapses.

    ``on_ref`` is called synchronously as ``on_ref(key, lock_ref)`` the
    moment each lockRef is minted (including re-mints on restart) — the
    hook the locking engine's waits-for graph uses to bind queue
    entries to transactions.

    ``read_only=True`` returns a :class:`ReadOnlyMultiKeySection`
    instead: puts are rejected and a key lost to preemption is re-pinned
    in place rather than aborting the section.
    """
    if not keys:
        raise ValueError("a multi-key critical section needs at least one key")
    ordered = sorted(set(keys))
    deadline = None if timeout_ms is None else client.sim.now + timeout_ms
    attempts = max(1, retries + 1)

    for attempt in range(attempts):
        held: Dict[str, int] = {}
        aborted = False
        for key in ordered:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - client.sim.now)
            try:
                lock_ref = yield from client.create_lock_ref(key)
                if on_ref is not None:
                    on_ref(key, lock_ref)
                granted = yield from client.acquire_lock_blocking(
                    key, lock_ref, timeout_ms=remaining
                )
            except NotLockHolder:
                aborted = True
                break
            if not granted:  # timed out waiting
                yield from client.release_lock(key, lock_ref)
                yield from _release_all(client, held)
                raise ReproError(
                    f"timed out acquiring {key!r} of multi-key set {ordered}"
                )
            held[key] = lock_ref
            # Verify earlier locks were not forcibly released while we
            # waited on this one ("successful only if individually
            # successful for all the keys").
            still_held = yield from _verify_held(client, held)
            if not still_held:
                aborted = True
                break
        if not aborted:
            if read_only:
                return ReadOnlyMultiKeySection(client, held)
            return MultiKeyCriticalSection(client, held)
        yield from _release_all(client, held)
        base = client.config.acquire_poll_interval_ms * (2 ** attempt)
        backoff = min(base, client.config.acquire_poll_max_ms)
        yield client.sim.timeout(backoff * (1.0 + client.rng.random()))

    raise ReproError(
        f"multi-key acquisition of {ordered} kept losing locks after "
        f"{attempts} attempts"
    )


def _verify_held(client: MusicClient, held: Dict[str, int]) -> Generator[Any, Any, bool]:
    for key, lock_ref in held.items():
        try:
            granted = yield from client.acquire_lock(key, lock_ref)
        except NotLockHolder:
            return False
        if not granted:
            return False
    return True


def _release_all(client: MusicClient, held: Dict[str, int]) -> Generator[Any, Any, None]:
    """Release every held lock at once, best effort: orphan cleanup
    reaps what a failed release leaves."""
    sim = client.sim
    yield sim.all_of([sim.process(_release_quietly(client, key, ref)) for key, ref in held.items()])


def _release_quietly(client: MusicClient, key: str, lock_ref: int) -> Generator[Any, Any, None]:
    try:
        yield from client.release_lock(key, lock_ref)
    except ReproError:
        pass

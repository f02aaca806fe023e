"""The release channel (``core/push.py``): a replica's ``push`` is the
one owner of push grants.  Off, it is ``NO_PUSH`` — no handler, and a
blocking acquire looks it up once however often it polls.  On, one
release wakes every kind of waiter exactly once: a library waiter at
another site's replica (over ``music.grantPush``), a service client's
long-poll (``music.waitRelease``) and a release listener."""

from repro import MusicConfig, build_music
from repro.core.push import NO_PUSH
from repro.core.replica import MusicReplica
from repro.core.service import PUSH_WAIT_MS
from tests.helpers import run


class CountingReplica(MusicReplica):
    """Counts reads of its release channel and its acquire polls."""

    lookups = polls = 0

    @property
    def push(self):
        self.lookups += 1
        return self._channel

    @push.setter
    def push(self, channel):
        self._channel = channel

    def acquire_lock(self, key, lock_ref):
        self.polls += 1
        return super().acquire_lock(key, lock_ref)


def test_push_off_is_no_push_looked_up_once_per_acquire():
    music = build_music(replica_class=CountingReplica)
    for replica in music.replicas:
        assert replica.push is NO_PUSH
        assert "music.grantPush" not in replica._handlers
    holder = music.client("Ohio")
    waiter = music.client("Oregon")
    oregon = music.replica_at("Oregon")

    def task():
        cs = yield from holder.critical_section("k")
        ref = yield from waiter.create_lock_ref("k")
        oregon.lookups = oregon.polls = 0
        acquiring = music.sim.process(waiter.acquire_lock_blocking("k", ref))
        yield music.sim.timeout(2_000.0)
        yield from cs.exit()
        granted = yield acquiring
        return granted

    assert run(music.sim, task()) is True
    assert oregon.polls >= 5, oregon.polls
    assert oregon.lookups == 1


def test_one_release_wakes_every_kind_of_waiter_once():
    music = build_music(music_config=MusicConfig(fast_locks=True))
    sim = music.sim
    layout = [replica.node_id for replica in music.replicas]
    for replica in music.replicas:
        assert replica.push.peer_ids == [n for n in layout if n != replica.node_id]
    oregon = music.replica_at("Oregon")
    holder = music.client("Ohio")
    service = music.service_client("Oregon")
    wakes = []

    def woken(kind):
        return lambda _event: wakes.append((kind, sim.now))

    oregon.push.subscribe("k").add_callback(woken("library"))
    service.replica.push.subscribe("k").add_callback(woken("service"))
    oregon.push.add_listener(lambda key: wakes.append((f"listener:{key}", sim.now)))

    def task():
        cs = yield from holder.critical_section("k")
        assert wakes == []
        released_at = sim.now
        yield from cs.exit()
        yield sim.timeout(PUSH_WAIT_MS)
        return released_at

    released_at = run(sim, task())
    assert sorted(kind for kind, _ in wakes) == ["library", "listener:k", "service"]
    # Woken by the push, not by the long-poll's bound lapsing.
    assert all(released_at < at < PUSH_WAIT_MS for _, at in wakes), wakes
    assert oregon.push._waiters == {}

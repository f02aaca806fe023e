"""The release channel (``core/push.py``): a replica's ``push`` is the
one owner of push grants.  Off, it is ``NO_PUSH`` — no handler, and a
blocking acquire looks it up once however often it polls.  On, a
release wakes the waiter of its successor — a library waiter at another
site's replica (over ``music.grantPush``) or a service client's
long-poll (``music.waitRelease``) — and nobody queued behind it, while
every release listener hears every release that ends a section.  On a contended run, no
release wakes two waiters, a grant costs at most two polls and none is
found by a waiter's liveness fuse, and the hot path polls no more per
grant than the polling protocol."""

from collections import Counter

from repro import MusicConfig, build_music
from repro.core.push import NO_PUSH, ReleasePush
from repro.core.replica import MusicReplica
from repro.core.service import PUSH_WAIT_MS
from tests.helpers import run


class CountingReplica(MusicReplica):
    """Counts reads of its release channel and its acquire polls (also
    per lockRef, in ``polled``)."""

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
        self.__dict__.setdefault("polled", Counter())[lock_ref] += 1
        return super().acquire_lock(key, lock_ref)


def test_push_off_is_no_push_looked_up_once_per_acquire():
    music = build_music(
        replica_class=CountingReplica, music_config=MusicConfig(fast_locks=False)
    )
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


def test_a_release_wakes_its_successor_and_every_listener():
    music = build_music(music_config=MusicConfig(fast_locks=True))
    sim = music.sim
    layout = [replica.node_id for replica in music.replicas]
    for replica in music.replicas:
        assert replica.push.peer_ids == [n for n in layout if n != replica.node_id]
    oregon = music.replica_at("Oregon")
    holder = music.client("Ohio")
    library = music.client("Oregon")
    service = music.service_client("Oregon")
    wakes = []

    def woken(kind):
        return lambda _event: wakes.append((kind, sim.now))

    oregon.push.add_listener(lambda key, gone: wakes.append((f"listener:{key}", sim.now)))

    def task():
        cs = yield from holder.critical_section("k")
        second = yield from library.create_lock_ref("k")
        third = yield from service.create_lock_ref("k")
        oregon.push.subscribe("k", second).add_callback(woken("library"))
        service.replica.push.subscribe("k", third).add_callback(woken("service"))
        released = [sim.now]
        yield from cs.exit()                     # hands the lock to `second`
        yield sim.timeout(500.0)
        assert sorted(kind for kind, _ in wakes) == ["library", "listener:k"]
        released.append(sim.now)
        yield from library.release_lock("k", second)   # ... which hands it to `third`
        yield sim.timeout(500.0)
        return released

    released = run(sim, task())
    assert [kind for kind, _ in wakes] == ["listener:k", "library", "listener:k", "service"]
    # Each woken by its push, not by the long-poll's bound lapsing.
    first, second = released
    assert all(first < at < second for _, at in wakes[:2]), wakes
    assert all(second < at < second + PUSH_WAIT_MS for _, at in wakes[2:]), wakes
    assert oregon.push._waiters == {}


def _hot_key(fast_locks, clients=12, rounds=2):
    """``clients`` at three sites, ``rounds`` critical sections each on
    one key; returns the deployment and its acquire polls per grant.
    Four clients per replica: enough waiters park for a herd to show."""
    music = build_music(
        seed=2, replica_class=CountingReplica,
        music_config=MusicConfig(fast_locks=fast_locks),
    )
    sites = music.profile.site_names
    everyone = [music.client(sites[index % len(sites)]) for index in range(clients)]

    def worker(client):
        for _ in range(rounds):
            cs = yield from client.critical_section("hot")
            value = yield from cs.get()
            yield from cs.put((value or 0) + 1)
            yield from cs.exit()

    processes = [music.sim.process(worker(client)) for client in everyone]
    for process in processes:
        music.sim.run_until_complete(process, limit=1e9)
    polls = sum(replica.polls for replica in music.replicas)
    return music, polls / (clients * rounds)


def test_no_release_wakes_a_herd(monkeypatch):
    """The herd gate: on a contended hot-path run every release wakes at
    most one waiter across all replicas, and the push is what grants: a
    grant costs at most two acquire polls (the first, and the one after
    the push), and no lockRef that polled more than once was granted
    without a push — none was found by its liveness fuse."""
    woken = Counter()
    pushed = set()
    notify = ReleasePush._notify

    def counting_notify(self, key, successor, after=None):
        # A woken waiter may re-subscribe inside the notify, so count the
        # parked events it triggered, not how many are left parked.
        parked = [
            (ref, event) for (_key, ref), events in self._waiters.items()
            for event in events if not event.triggered
        ]
        notify(self, key, successor, after)
        refs = {ref for ref, event in parked if event.triggered}
        woken[(key, successor, after)] += len(refs)
        pushed.update(refs)

    monkeypatch.setattr(ReleasePush, "_notify", counting_notify)
    music, fast_polls = _hot_key(fast_locks=True)
    assert woken and max(woken.values()) == 1, woken
    # The pushes did hand locks over: 5 or more, since a get the
    # hand-off serves shortens each section and fewer waiters park.
    assert sum(woken.values()) >= 5
    assert fast_polls <= 2, fast_polls
    polled = sum((replica.polled for replica in music.replicas), Counter())
    fused = [ref for ref, polls in polled.items() if polls > 1 and ref not in pushed]
    assert fused == [], (fused, polled)
    _music, polling_polls = _hot_key(fast_locks=False)
    assert fast_polls <= polling_polls, (fast_polls, polling_polls)


def test_after_a_waiter_leaves_mid_queue_the_release_wakes_the_next_one(monkeypatch):
    """The successor is read from the queue the releaser's head read
    saw, not guessed as ``lockRef + 1``: a waiter that gave up and left
    from the middle hands nobody the lock, and the holder's release then
    wakes the waiter behind the gap."""
    # Polling alone would leave the last waiter asleep for 30 s.
    monkeypatch.setattr(MusicConfig, "acquire_poll_interval_ms", 30_000.0)
    monkeypatch.setattr(MusicConfig, "acquire_poll_max_ms", 30_000.0)
    music = build_music(replica_class=CountingReplica, music_config=MusicConfig(fast_locks=True))
    sim = music.sim
    holder, leaver, waiter = (music.client(site) for site in ("Ohio", "Oregon", "N.California"))
    home = music.replica_at("N.California")        # the waiter's replica

    def task():
        cs = yield from holder.critical_section("k")
        left = yield from leaver.create_lock_ref("k")
        ref = yield from waiter.create_lock_ref("k")
        assert (left, ref) == (cs.lock_ref + 1, cs.lock_ref + 2)
        acquiring = sim.process(waiter.acquire_lock_blocking("k", ref))
        yield from leaver.release_lock("k", left)
        yield sim.timeout(500.0)
        assert home.polls == 1 and not acquiring.triggered    # nobody was woken
        released = sim.now
        yield from cs.exit()
        assert (yield acquiring)
        return sim.now - released

    assert run(sim, task()) < 1_000.0


def test_a_release_whose_read_lags_a_mint_wakes_the_first_waiter_above_it():
    """A releaser's head read can lack a mint that has not reached its
    replica yet.  The push then also carries the released lockRef, and
    each replica wakes its first waiter above it, below the successor
    the read named: here 5 (no successor named), then 6 (the named 9
    waits elsewhere), never 7 behind them or a waiter on another key."""
    music = build_music(music_config=MusicConfig(fast_locks=True))
    releaser, channel = music.replica_at("Ohio").push, music.replica_at("Oregon").push
    five, seven, other = (channel.subscribe(key, ref) for key, ref in (("k", 5), ("k", 7), ("j", 5)))
    releaser.push("k", None, 4)
    music.sim.run(until=music.sim.now + 1_000.0)
    assert five.triggered and not seven.triggered and not other.triggered
    six = channel.subscribe("k", 6)
    releaser.push("k", 9, 5)
    music.sim.run(until=music.sim.now + 1_000.0)
    assert six.triggered and not seven.triggered and not other.triggered

"""Unit tests for the Section V model's mechanics."""

from dataclasses import replace

from repro.verification import (
    K,
    ModelConfig,
    Phase,
    enabled_events,
    initial_state,
)


def events_of(state, config=None):
    return dict(enabled_events(state, config or ModelConfig()))


def find(state, prefix, config=None):
    matches = [(label, s) for label, s in enabled_events(state, config or ModelConfig())
               if label.startswith(prefix)]
    assert matches, f"no event with prefix {prefix!r}"
    return matches[0][1]


def test_initial_state_shape():
    state = initial_state(ModelConfig(clients=2))
    assert state.queue == ()
    assert state.head() is None
    assert state.defined()
    assert state.true_write() is None
    assert all(c.phase == Phase.IDLE for c in state.clients)


def test_create_lock_ref_enqueues_monotonically():
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    assert state.queue == (1,)
    assert state.clients[0].lock_ref == 1
    state = find(state, "c1:createLockRef", config)
    assert state.queue == (1, 2)
    assert state.next_ref == 3


def test_grant_without_flag_goes_straight_to_critical():
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    state = find(state, "c0:grant", config)
    assert state.clients[0].phase == Phase.CRITICAL


def test_grant_with_flag_forces_sync():
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    state = replace(state, flag=((1, 0), True))
    events = events_of(state, config)
    assert any(label.startswith("c0:grantNeedsSync") for label in events)
    assert not any(label == "c0:grant" for label in events)


def test_put_lifecycle_moves_write_to_succeeded():
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    state = find(state, "c0:grant", config)
    state = find(state, "c0:putStart", config)
    assert state.clients[0].phase == Phase.PUTTING
    assert not state.defined()  # the attempted write is pending
    state = find(state, "c0:putAck", config)
    assert state.clients[0].phase == Phase.CRITICAL
    assert state.defined()
    assert state.true_write().succeeded


def test_release_dequeues():
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    state = find(state, "c0:grant", config)
    state = find(state, "c0:release", config)
    assert state.queue == ()
    assert state.clients[0].phase == Phase.DONE


def test_detector_two_stage_forced_release():
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    state = find(state, "detector:flag", config)
    assert state.flag[1] is True
    assert state.flag[0] == (1 * K + config.delta_k, 0)
    assert state.queue == (1,)  # flag write completes before the dequeue
    state = find(state, "detector:dequeue", config)
    assert state.queue == ()
    assert state.forced is None


def test_forced_flag_stamp_beats_same_ref_reset_only_with_delta():
    """The δ race at the register level."""
    from repro.verification.model import _flag_write

    config = ModelConfig(delta_k=1)
    state = initial_state(config)
    # The holder's reset for ref 1 carries stamp (K, 1).
    state = _flag_write(state, (1 * K, 1), False)
    # forcedRelease for ref 1 with delta: stamp (K + 1, 0) wins.
    state = _flag_write(state, (1 * K + 1, 0), True)
    assert state.flag[1] is True
    # Without delta it would lose:
    state0 = initial_state(config)
    state0 = _flag_write(state0, (1 * K, 1), False)
    state0 = _flag_write(state0, (1 * K, 0), True)
    assert state0.flag[1] is False


def test_next_lock_ref_reset_beats_forced_flag():
    """δ < 1: the next lockholder's reset must override the forced flag."""
    from repro.verification.model import _flag_write

    state = initial_state(ModelConfig())
    state = _flag_write(state, (1 * K + 1, 0), True)  # forcedRelease of ref 1
    state = _flag_write(state, (2 * K, 1), False)  # ref 2's reset
    assert state.flag[1] is False


def test_undefined_store_read_branches():
    """While undefined, the sync read may or may not catch the pending
    write (the paper's nondeterminism)."""
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    state = find(state, "c0:grant", config)
    state = find(state, "c0:putStart", config)  # pending write, undefined
    state = find(state, "c0:die", config)
    state = find(state, "detector:flag", config)
    state = find(state, "detector:dequeue", config)
    state = find(state, "c1:createLockRef", config)
    state = find(state, "c1:grantNeedsSync", config)
    reads = [label for label, _s in enabled_events(state, config)
             if label.startswith("c1:syncRead")]
    assert len(reads) == 2  # catches the pending write, or reads "nothing"


def test_dead_clients_have_no_events():
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    state = find(state, "c0:die", config)
    assert not any(label.startswith("c0:") for label in events_of(state, config))


def test_preempted_waiting_client_learns_not_holder():
    config = ModelConfig()
    state = initial_state(config)
    state = find(state, "c0:createLockRef", config)
    state = find(state, "detector:flag", config)
    state = find(state, "detector:dequeue", config)
    state = find(state, "c0:preemptedWhileWaiting", config)
    assert state.clients[0].phase == Phase.DONE


def test_states_are_hashable_and_memoizable():
    config = ModelConfig()
    a = initial_state(config)
    b = initial_state(config)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1

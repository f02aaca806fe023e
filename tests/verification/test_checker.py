"""Exhaustive bounded verification of the ECF invariants (Section V)."""

import pytest

from repro.verification import INVARIANTS, ModelChecker, ModelConfig


def test_default_scope_verifies_all_invariants():
    """2 clients, 3 lockRefs, 1 put each, deaths + imperfect detection:
    every reachable interleaving satisfies all four invariants."""
    result = ModelChecker(ModelConfig()).run()
    assert result.ok, result.summary()
    assert result.states_explored > 10_000  # a real exploration, not a stub
    # All event kinds actually fired (the model is not vacuous).
    kinds = set(result.event_counts)
    for expected in ("c0:createLockRef", "c0:grant", "c0:putStart", "c0:putAck",
                     "c0:die", "c0:release", "detector:flag", "detector:dequeue",
                     "c0:grantNeedsSync", "c0:syncWrite"):
        assert expected in kinds, f"event {expected} never fired"


def test_wider_scope_two_puts_per_client():
    result = ModelChecker(
        ModelConfig(clients=2, max_refs=4, max_puts_per_client=2)
    ).run()
    assert result.ok, result.summary()
    assert result.states_explored > 50_000


def test_failure_free_scope_verifies():
    """Without deaths or preemption the model is a plain lock protocol."""
    result = ModelChecker(
        ModelConfig(allow_client_death=False, allow_forced_release=False)
    ).run()
    assert result.ok, result.summary()


def test_delta_zero_breaks_the_synch_flag_race():
    """δ = 0 lets the holder's flag reset erase a concurrent
    forcedRelease of the same lockRef (the race of Section IV-B);
    the checker must find a counterexample."""
    result = ModelChecker(ModelConfig(delta_k=0)).run()
    assert not result.ok
    assert result.violation.invariant in ("SynchFlag", "CriticalSectionInvariant",
                                          "LatestState")
    # The counterexample involves a forced release racing a sync.
    trace = " ".join(result.violation.trace)
    assert "detector:flag" in trace
    assert "syncWrite" in trace


def test_delta_zero_without_forced_release_is_fine():
    """δ only matters when forcedRelease exists: the race needs it."""
    result = ModelChecker(
        ModelConfig(delta_k=0, allow_forced_release=False)
    ).run()
    assert result.ok, result.summary()


def test_violation_trace_is_replayable():
    """The counterexample trace replays from the initial state to a
    state violating the reported invariant."""
    from repro.verification import enabled_events, initial_state

    config = ModelConfig(delta_k=0)
    result = ModelChecker(config).run()
    assert result.violation is not None
    state = initial_state(config)
    for label in result.violation.trace:
        successors = dict(enabled_events(state, config))
        assert label in successors, f"trace step {label!r} not enabled"
        state = successors[label]
    assert not INVARIANTS[result.violation.invariant](state)


def test_sabotaged_model_is_caught():
    """Remove the synchFlag mechanism entirely (acquire never syncs):
    Latest-State must fail — the checker is actually sensitive."""
    from dataclasses import replace as dc_replace

    import repro.verification.model as model_module
    from repro.verification.checker import ModelChecker as Checker
    from repro.verification.model import Phase

    original = model_module._client_events

    def no_sync_client_events(state, config):
        for label, successor in original(state, config):
            if label.endswith("grantNeedsSync"):
                # Sabotage: grant directly, skipping the sync protocol.
                index = int(label[1])
                clients = list(successor.clients)
                clients[index] = dc_replace(clients[index], phase=Phase.CRITICAL)
                yield (label, dc_replace(successor, clients=tuple(clients)))
            else:
                yield (label, successor)

    model_module._client_events = no_sync_client_events
    try:
        result = Checker(ModelConfig()).run()
    finally:
        model_module._client_events = original
    assert not result.ok
    assert result.violation.invariant in ("CriticalSectionInvariant", "LatestState")


def test_max_states_guard():
    with pytest.raises(RuntimeError, match="state space"):
        ModelChecker(ModelConfig(), max_states=10).run()


@pytest.mark.slow
def test_three_client_scope():
    """The paper analyzed with 5 instances per type; three clients is
    ~3M states in this model (several minutes) — kept for full runs."""
    result = ModelChecker(
        ModelConfig(clients=3, max_refs=3), max_states=5_000_000
    ).run()
    assert result.ok, result.summary()

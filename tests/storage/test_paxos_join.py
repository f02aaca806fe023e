"""``PaxosState.join`` is the one rule that combines acceptor images:
range handover folds the owners' images with it and WAL replay rebuilds
a state with it.  Folding is order-free, and it is the max-of-three rule
handover used to write out by hand."""

from hypothesis import given, strategies as st

from repro.storage import PaxosState

ballots = st.tuples(st.integers(0, 4), st.sampled_from(["a", "b", "c"]))
# One ballot proposes one value: an accepted proposal is keyed by it.
proposals = ballots.map(lambda ballot: (ballot, [f"mutation@{ballot}"]))
images = st.lists(
    st.tuples(st.none() | ballots, st.none() | proposals, st.none() | ballots),
    min_size=1,
    max_size=6,
)


def fold(images):
    state = PaxosState()
    for image in images:
        assert state.join(*image) is state
    return state.promised, state.accepted, state.latest_commit


def max_of_three(images):
    """The fold ``TopologyManager._merge_collected`` wrote out before
    ``join`` existed: per field, the max of the non-None values."""
    current = None
    for promised, accepted, latest in images:
        if current is None:
            current = (promised, accepted, latest)
            continue
        current = (
            max((b for b in (current[0], promised) if b is not None), default=None),
            max(
                (a for a in (current[1], accepted) if a is not None),
                key=lambda pair: pair[0],
                default=None,
            ),
            max((b for b in (current[2], latest) if b is not None), default=None),
        )
    return current


@given(data=st.data(), images=images)
def test_join_is_order_free(data, images):
    shuffled = data.draw(st.permutations(images))
    assert fold(shuffled) == fold(images)


@given(images=images)
def test_join_is_the_max_of_three_rule(images):
    assert fold(images) == max_of_three(images)


def test_join_keeps_ours_on_a_tie():
    ours = ([1], "ours")
    state = PaxosState(accepted=((3, "a"), ours))
    state.join(None, ((3, "a"), ([1], "theirs")), None)
    assert state.accepted[1] is ours

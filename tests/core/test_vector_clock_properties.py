"""Property-based tests: optimized VectorClock ops vs a naive reference.

The clock algebra in ``repro.core.vector_clock`` is hand-tuned for the
CPython hot path (in-place loops, early exits, interned zeros).  These
properties pin its behaviour to the obvious specification so future
micro-optimisations cannot silently change semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vector_clock import VectorClock, covers

SIZE = 5

entry_lists = st.lists(
    st.integers(0, 50), min_size=SIZE, max_size=SIZE
)
position_lists = st.lists(st.booleans(), min_size=SIZE, max_size=SIZE)


def ref_merge(a, b):
    return [max(x, y) for x, y in zip(a, b)]


def ref_leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def ref_leq_on(a, b, positions):
    return all(x <= y for x, y, p in zip(a, b, positions) if p)


@given(entry_lists, entry_lists)
@settings(max_examples=300)
def test_merge_matches_reference(a, b):
    vc = VectorClock(a)
    vc.merge(VectorClock(b))
    assert list(vc) == ref_merge(a, b)


@given(entry_lists, entry_lists)
@settings(max_examples=300)
def test_merge_seq_matches_reference(a, b):
    vc = VectorClock(a)
    vc.merge_seq(tuple(b))
    assert list(vc) == ref_merge(a, b)


@given(entry_lists, entry_lists)
@settings(max_examples=300)
def test_merged_matches_reference_and_leaves_operands_alone(a, b):
    left, right = VectorClock(a), VectorClock(b)
    out = left.merged(right)
    assert list(out) == ref_merge(a, b)
    assert list(left) == a and list(right) == b


@given(entry_lists, entry_lists)
@settings(max_examples=300)
def test_leq_and_dominates_match_reference(a, b):
    left, right = VectorClock(a), VectorClock(b)
    assert left.leq(right) == ref_leq(a, b)
    assert left.dominates(right) == ref_leq(b, a)


@given(entry_lists, entry_lists, position_lists)
@settings(max_examples=300)
def test_leq_on_matches_reference(a, b, positions):
    assert VectorClock(a).leq_on(VectorClock(b), positions) == ref_leq_on(
        a, b, positions
    )


@given(entry_lists)
@settings(max_examples=100)
def test_merge_is_idempotent_and_self_merge_is_noop(a):
    vc = VectorClock(a)
    vc.merge(vc)
    assert list(vc) == a
    vc.merge(VectorClock(a))
    assert list(vc) == a


@given(entry_lists, entry_lists)
@settings(max_examples=100)
def test_merge_mutates_entries_in_place(a, b):
    """Hot callers bind ``.entries`` locally; merge must never rebind it."""
    vc = VectorClock(a)
    bound = vc.entries
    vc.merge(VectorClock(b))
    assert bound is vc.entries
    assert list(bound) == ref_merge(a, b)


@given(entry_lists)
@settings(max_examples=100)
def test_copy_is_independent(a):
    vc = VectorClock(a)
    dup = vc.copy()
    assert dup == vc and dup is not vc
    dup[0] += 1
    assert list(vc) == a


@given(entry_lists)
@settings(max_examples=100)
def test_frozen_clock_is_the_same_value_as_a_list_clock(a):
    frozen, listed = VectorClock.frozen(a), VectorClock(a)
    assert frozen == listed and listed == frozen and len({frozen, listed}) == 1
    assert hash(frozen) == hash(listed) and frozen.to_tuple() == tuple(a)
    for mutable in (frozen.copy(), listed.copy()):
        mutable[0] += 1
        mutable.merge(frozen)
        assert type(mutable) is VectorClock and mutable != frozen
    assert list(frozen) == list(listed) == a


def test_zero_is_interned_and_immutable():
    zero = VectorClock.zero(SIZE)
    assert zero is VectorClock.zero(SIZE)
    assert zero == VectorClock.zeros(SIZE)
    with pytest.raises(TypeError):
        zero[0] = 1
    with pytest.raises(TypeError):
        zero.merge(VectorClock.zeros(SIZE))
    with pytest.raises(TypeError):
        zero.merge_seq((1,) * SIZE)
    # A copy of the interned zero is a private, mutable clock.
    dup = zero.copy()
    dup[0] = 7
    assert zero[0] == 0


@pytest.mark.parametrize("width", range(1, 9))
@settings(max_examples=60)
@given(data=st.data())
def test_every_op_matches_the_reference_at_every_width(width, data):
    """Clocks of one width pair their entries up with no width check:
    every operation -- ``merged_tuple`` with its kept positions and the
    module's ``covers`` included -- is the reference at any width a
    cluster can be built with."""
    entries = st.lists(st.integers(0, 50), min_size=width, max_size=width)
    a, b = data.draw(entries), data.draw(entries)
    keep = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    left, right = VectorClock(a), VectorClock(b)
    assert left.merged(right).to_tuple() == tuple(ref_merge(a, b))
    assert left.merged_tuple(right) == tuple(ref_merge(a, b))
    assert left.merged_tuple(right, keep) == tuple(
        x if kept else max(x, y) for x, y, kept in zip(a, b, keep)
    )
    assert left.leq(right) == ref_leq(a, b) == covers(b, a)
    assert left.dominates(right) == ref_leq(b, a) == covers(a, b)
    assert left.leq_on(right, keep) == ref_leq_on(a, b, keep)
    seq = VectorClock(a)
    seq.merge_seq(tuple(b))
    assert list(seq) == ref_merge(a, b) and list(left) == a and list(right) == b

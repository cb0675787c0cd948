"""Unit and property-based tests for vector clocks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import VectorClock

clock_entries = st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=8)


def paired_clocks(size=4):
    return st.tuples(
        st.lists(st.integers(0, 50), min_size=size, max_size=size),
        st.lists(st.integers(0, 50), min_size=size, max_size=size),
    )


def test_zeros_and_len():
    vc = VectorClock.zeros(4)
    assert len(vc) == 4
    assert list(vc) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        VectorClock.zeros(0)


def test_get_set_items():
    vc = VectorClock.zeros(3)
    vc[1] = 7
    assert vc[1] == 7
    assert vc.to_tuple() == (0, 7, 0)


def test_copy_is_independent():
    vc = VectorClock([1, 2, 3])
    cp = vc.copy()
    cp[0] = 99
    assert vc[0] == 1


def test_merge_is_entrywise_max():
    a = VectorClock([1, 5, 3])
    a.merge(VectorClock([4, 2, 3]))
    assert a.to_tuple() == (4, 5, 3)


def test_merged_leaves_operands_untouched():
    a = VectorClock([1, 5])
    b = VectorClock([2, 3])
    c = a.merged(b)
    assert c.to_tuple() == (2, 5)
    assert a.to_tuple() == (1, 5)
    assert b.to_tuple() == (2, 3)


def test_leq_and_dominates():
    small = VectorClock([1, 2, 3])
    big = VectorClock([1, 5, 3])
    assert small.leq(big)
    assert big.dominates(small)
    assert not big.leq(small)
    incomparable = VectorClock([0, 9, 0])
    assert not incomparable.leq(big)
    assert not big.leq(incomparable)


def test_leq_on_restricts_to_active_positions():
    version = VectorClock([9, 2, 9])
    txn = VectorClock([1, 5, 1])
    # Only position 1 is active: 2 <= 5 so the check passes.
    assert version.leq_on(txn, [False, True, False])
    # Activating position 0 makes it fail: 9 > 1.
    assert not version.leq_on(txn, [True, True, False])
    # No active positions: vacuously true.
    assert version.leq_on(txn, [False, False, False])


def test_equality_and_hash():
    assert VectorClock([1, 2]) == VectorClock([1, 2])
    assert VectorClock([1, 2]) != VectorClock([2, 1])
    assert hash(VectorClock([1, 2])) == hash(VectorClock([1, 2]))
    assert VectorClock([1, 2]) != "not a clock"


@given(paired_clocks())
def test_merge_commutative(pair):
    a, b = pair
    left = VectorClock(a).merged(VectorClock(b))
    right = VectorClock(b).merged(VectorClock(a))
    assert left == right


@given(paired_clocks())
def test_merge_upper_bound(pair):
    a, b = pair
    merged = VectorClock(a).merged(VectorClock(b))
    assert VectorClock(a).leq(merged)
    assert VectorClock(b).leq(merged)


@given(clock_entries)
def test_merge_idempotent(entries):
    vc = VectorClock(entries)
    assert vc.merged(vc) == vc


@given(paired_clocks(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_leq_implies_leq_on_any_mask(pair, mask):
    a, b = pair
    va, vb = VectorClock(a), VectorClock(b)
    if va.leq(vb):
        assert va.leq_on(vb, mask)

"""Unit tests for VAS tombstones (Remove vs in-flight commit races)."""

import sys
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import VectorClock
from repro.storage import MultiVersionStore
from repro.storage.store import TOMBSTONE_TTL


def vc():
    return VectorClock.zeros(2)


def test_remove_is_idempotent():
    store = MultiVersionStore()
    v0 = store.create("x", 0, vc())
    store.vas_add(v0, 7)
    assert store.vas_remove_txn(7, now=0.0) == 1
    assert store.vas_remove_txn(7, now=0.0) == 0
    assert list(store._expiry_ids) == [7], "no duplicate tombstones"


def queued(store):
    """The store's expiry columns read back as ``[(now, [ids])]``."""
    head, ends, ids = store._expiry_head, store._expiry_ends, store._expiry_ids
    starts = [ends[head - 1] if head else 0, *ends[head:-1]]
    return [(now, list(ids[start:end])) for now, start, end in zip(
        store._expiry_times[head:], starts, ends[head:])]


def test_columns_hold_at_most_16_bytes_per_tombstoned_id():
    """Removes arrive as messages of a few ids each (ycsb_uniform's
    average ~7.5); each id costs 8 B, and each batch 16 B."""
    store = MultiVersionStore()
    for txn_id in range(40_000):
        store.vas_remove_txn(txn_id, now=(txn_id // 4) * 1e-6)
    held = sum(map(sys.getsizeof, (
        store._expiry_ids, store._expiry_times, store._expiry_ends)))
    assert len(store._expiry_ids) == 40_000 and held <= 16 * 40_000


def test_a_removed_id_stays_tombstoned_for_the_ttl_after_its_remove():
    """A Remove that repeats an id whose batch is past the TTL, not yet
    expired, tombstones it afresh: a late Decide carrying it is ignored
    for a full TTL after that Remove."""
    store = MultiVersionStore()
    v0 = store.create("x", 0, vc())
    store.vas_remove_txns([42], now=0.0)
    store.vas_remove_txns([42], now=5.0)
    store.vas_add(v0, 42)
    assert v0.access_set == set()
    store.vas_remove_txns([7], now=5.0 + TOMBSTONE_TTL / 2)
    store.vas_add(v0, 42)
    assert v0.access_set == set()
    assert queued(store) == [(5.0, [42]), (5.0 + TOMBSTONE_TTL / 2, [7])]


class SetModel:
    """Tombstones as the plain ``set`` they were, with the ``(now, [ids])``
    expiry queue the columns replaced; ``index`` is the VAS,
    ``txn_id -> keys``."""

    def __init__(self):
        self.tombstones, self.queue, self.index = set(), deque(), {}

    def remove(self, txn_id, now):
        while self.queue and self.queue[0][0] <= now - TOMBSTONE_TTL:
            self.tombstones.difference_update(self.queue.popleft()[1])
        if txn_id not in self.tombstones:
            self.tombstones.add(txn_id)
            if self.queue and self.queue[-1][0] == now:
                self.queue[-1][1].append(txn_id)
            else:
                self.queue.append((now, [txn_id]))
        return len(self.index.pop(txn_id, ()))


#: Virtual-time steps before a Remove: same instant, inside the TTL,
#: exactly it, and past it.
STEPS = (0.0, 0.0, 0.01, 0.04, TOMBSTONE_TTL, 0.35)


@given(st.sampled_from((1, 10)).flatmap(lambda stride: st.lists(st.tuples(
    st.sampled_from(("x", "y", "z")) | st.sampled_from(STEPS),
    st.integers(min_value=0, max_value=60).map(lambda k: 500 + stride * k)),
    max_size=120)))
@example([("x", 42), (1.0, 42), ("y", 42), ("y", 43)])  # a late re-insert: ignored
@example([(0.0, 42), ("x", 42), (5.0, 99), ("x", 42)])  # ... until the TTL is past
@example([(0.0, 50), (0.0, 40), (0.04, 51), (0.04, 52), (0.04, 53), (0.04, 30),
          (TOMBSTONE_TTL, 54), ("x", 53), (0.04, 55), (0.35, 56), ("y", 30)])  # cut twice
@settings(max_examples=300, deadline=None)
def test_window_decides_every_add_as_the_set_does(ops):
    """Adds (a key) and Removes (a time step) over ids on one host's
    stride -- 1 in the simulator, 10 for one socket host of ten -- in any
    order, so ids repeat and fall below, inside and above the window; the
    first examples are the two races a tombstone exists for, the last
    expires batches on both sides of a cut of the columns."""
    store, model, now = MultiVersionStore(), SetModel(), 0.0
    versions = {key: store.create(key, 0, vc()) for key in "xyz"}
    for arg, txn_id in ops:
        if arg in versions:
            store.vas_add(versions[arg], txn_id)
            if txn_id not in model.tombstones:
                model.index.setdefault(txn_id, set()).add(arg)
        else:
            now += arg
            assert store.vas_remove_txn(txn_id, now) == model.remove(txn_id, now)
        for key, version in versions.items():
            assert version.access_set == {
                txn for txn, keys in model.index.items() if key in keys}
        assert store.vas_total_entries() == sum(map(len, model.index.values()))
        held = model.tombstones
        assert len(store._tombstones) <= (max(held) - min(held) + 1 if held else 0)
        assert queued(store) == list(model.queue)


def state(store, versions):
    """Everything a Remove leaves behind: the window, the expiry columns
    and every version's VAS."""
    return (bytes(store._tombstones), store._tombstone_base,
            list(store._expiry_ids), list(store._expiry_times),
            list(store._expiry_ends), store._expiry_head,
            {key: version.access_set for key, version in versions.items()})


@given(st.lists(st.tuples(
    st.sampled_from(STEPS),
    st.lists(st.integers(min_value=0, max_value=40).map(lambda k: 500 + k),
             max_size=6),
    st.lists(st.tuples(st.sampled_from("xyz"), st.integers(500, 540)), max_size=4),
), max_size=40))
@example([(0.0, [42], []), (5.0, [42, 42, 41], [])])  # a repeat whose batch expired
@example([(0.0, [], [("x", 7)]), (0.0, [7, 3, 9], [("y", 3)]), (0.35, [9, 1], [])])
@settings(max_examples=300, deadline=None)
def test_one_pass_per_message_leaves_what_one_call_per_id_leaves(messages):
    """Removes of one message's ids in one ``vas_remove_txns`` pass, against
    one ``vas_remove_txn`` call per id, on two stores fed the same adds:
    the same tombstones, expiry columns and VAS after every message, and
    the same count of entries erased."""
    batched, single, now = MultiVersionStore(), MultiVersionStore(), 0.0
    both = [(store, {key: store.create(key, 0, vc()) for key in "xyz"})
            for store in (batched, single)]
    for step, ids, adds in messages:
        now += step
        for store, versions in both:
            for key, txn_id in adds:
                store.vas_add(versions[key], txn_id)
        erased = batched.vas_remove_txns(ids, now)
        assert erased == sum(single.vas_remove_txn(txn_id, now) for txn_id in ids)
        assert state(*both[0]) == state(*both[1])

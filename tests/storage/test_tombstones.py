"""Unit tests for VAS tombstones (Remove vs in-flight commit races)."""

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
    assert len(store._tombstone_queue) == 1, "no duplicate tombstones"


class SetModel:
    """Tombstones as the plain ``set`` they were, with the same ``(now,
    [ids])`` expiry queue; ``index`` is the VAS, ``txn_id -> keys``."""

    def __init__(self):
        self.tombstones, self.queue, self.index = set(), deque(), {}

    def remove(self, txn_id, now):
        if txn_id not in self.tombstones:
            self.tombstones.add(txn_id)
            if self.queue and self.queue[-1][0] == now:
                self.queue[-1][1].append(txn_id)
            else:
                self.queue.append((now, [txn_id]))
        while self.queue and self.queue[0][0] <= now - TOMBSTONE_TTL:
            self.tombstones.difference_update(self.queue.popleft()[1])
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
@settings(max_examples=300, deadline=None)
def test_window_decides_every_add_as_the_set_does(ops):
    """Adds (a key) and Removes (a time step) over ids on one host's
    stride -- 1 in the simulator, 10 for one socket host of ten -- in any
    order, so ids repeat and fall below, inside and above the window; the
    examples are the two races a tombstone exists for."""
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

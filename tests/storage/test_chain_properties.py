"""``VersionChain`` against a plain list, and the checkpoint round trip.

A chain is ``_latest`` alone while it holds one version and grows a list
at the second install (PR 22); the reference model below is always a
list.  Random install / GC / lookup sequences cross the 1 <-> 2 version
boundary in both directions and must never tell the two apart.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VectorClock
from repro.core.fwkv.visibility import select_read_only_version
from repro.storage import MultiVersionStore, VersionChain
from repro.storage.wal import build_checkpoint, restore_store, store_fingerprint


class ListChain:
    """The parent's layout, kept as the reference: every version in one
    list, ``by_vid`` by offset from the first retained vid."""

    def __init__(self):
        self.versions = []  # (vid, value, installed_at, pinned)
        self.next_vid = 0

    def install(self, value, installed_at, pinned):
        self.versions.append((self.next_vid, value, installed_at, pinned))
        self.next_vid += 1

    def collect_garbage(self, keep_last, min_age, now):
        dropped = 0
        for _vid, _value, installed_at, pinned in self.versions[:-keep_last]:
            if installed_at > now - min_age or pinned:
                break
            dropped += 1
        del self.versions[:dropped]
        return dropped


installs = st.tuples(st.just("install"), st.booleans())
collections = st.tuples(
    st.just("gc"), st.integers(1, 3), st.sampled_from([0.0, 2.0, 5.0])
)


@given(st.booleans(), st.lists(st.one_of(installs, collections), max_size=30))
@settings(max_examples=300)
def test_chain_matches_the_list_backed_reference(loaded, steps):
    """From an empty chain, or from a loaded key held as its value
    (``None``: ``install`` must not read it as absent) until first touched."""
    store, model = MultiVersionStore(), ListChain()
    if loaded:
        store.create_many([("k", None)], VectorClock.zero(1))
        model.install(None, 0.0, False)
    else:
        store.adopt("k", 0, ())
    assert store.snapshot("k")[1] == (
        ((None, (0,), 0, 0, None, 0.0),) if loaded else ()
    )
    for now, step in enumerate(steps):
        if step[0] == "install":
            version = store.install(
                "k", now, VectorClock([now]), origin=0, seq=now, installed_at=float(now)
            )
            if step[1]:
                version.access_set.add(7)  # a reader pins it against GC
            model.install(now, float(now), step[1])
            assert version.vid == model.versions[-1][0]
        else:
            _op, keep_last, min_age = step
            assert store.chain("k").collect_garbage(keep_last, min_age, float(now)) == (
                model.collect_garbage(keep_last, min_age, float(now))
            )
        chain = store.chain("k")
        expected = [(vid, value) for vid, value, _at, _pin in model.versions]
        assert len(chain) == len(expected)
        assert [(v.vid, v.value) for v in chain] == expected
        assert [(v.vid, v.value) for v in chain.newest_first()] == expected[::-1]
        for vid, value in expected:
            assert chain.by_vid(vid).value == value
        held = {vid for vid, _value in expected}
        for vid in set(range(-1, model.next_vid + 2)) - held:
            with pytest.raises(LookupError):
                chain.by_vid(vid)
        if expected:
            assert chain.latest is chain.by_vid(expected[-1][0])
        else:
            with pytest.raises(LookupError):
                chain.latest


def gc_advanced_store():
    """A loaded key never touched, chains of length 1, 2 and 3, one more
    GC'd down to a single version at vid 3 and one to two versions from
    vid 2."""
    store = MultiVersionStore()
    store.create_many([("loaded", 0)], VectorClock.zero(2))
    zero = VectorClock.zeros(2)
    for key, extra in (("one", 0), ("two", 1), ("three", 2), ("cut", 3), ("tail", 3)):
        store.create(key, 0, zero)
        for seq in range(1, extra + 1):
            store.install(
                key, seq * 10, VectorClock((0, seq)), origin=1, seq=seq,
                writer_txn=seq, installed_at=float(seq),
            )
    assert store.chain("cut").collect_garbage(1, min_age=0.0, now=9.0) == 3
    assert store.chain("tail").collect_garbage(2, min_age=0.0, now=9.0) == 2
    return store


def test_checkpoint_round_trip_over_every_chain_shape():
    store = gc_advanced_store()
    record = build_checkpoint(store.snapshots(), VectorClock((0, 3)), 0)
    assert {key: base for key, base, _versions in record.chains} == {
        "loaded": 0, "one": 0, "two": 0, "three": 0, "cut": 3, "tail": 2,
    }
    restored = restore_store(record)
    assert store_fingerprint(restored) == store_fingerprint(store)
    again = build_checkpoint(restored.snapshots(), VectorClock((0, 3)), 0)
    assert again.fingerprint == record.fingerprint
    assert [v.vid for v in restored.chain("cut")] == [3]
    assert [v.vid for v in restored.chain("tail")] == [2, 3]
    # A restored chain resumes the dense vid sequence in every shape.
    for key in ("loaded", "one", "cut", "tail"):
        chain = restored.chain(key)
        before = chain.latest.vid
        assert chain.install(1, VectorClock((1, 0)), 0, 1).vid == before + 1
        assert chain.by_vid(before).vid == before


# ----------------------------------------------------------------------
# The public VAS view (the frozen micro-benches mutate it in place)
# ----------------------------------------------------------------------
def test_access_set_is_the_versions_own_vas():
    chain = VersionChain("k")
    old = chain.install("old", VectorClock([0]), origin=0, seq=0)
    fresh = chain.install("new", VectorClock([1]), origin=0, seq=1)
    assert fresh.vas is None, "no set before the first reader"
    fresh.access_set.update({5, 6})
    assert fresh.vas == {5, 6} and fresh.access_set is fresh.vas
    # The next selection by reader 5 sees it and falls back one version.
    chosen, inspected = select_read_only_version(chain, [1], [False], txn_id=5)
    assert chosen is old and inspected == 1
    chosen, inspected = select_read_only_version(chain, [1], [False], txn_id=9)
    assert chosen is fresh and inspected == 3


def test_gc_treats_an_untouched_vas_as_an_empty_set():
    def chain_of_three():
        chain = VersionChain("k")
        for seq in range(3):
            chain.install(seq, VectorClock([seq]), 0, seq, installed_at=float(seq))
        return chain

    untouched, touched = chain_of_three(), chain_of_three()
    for version in touched:
        assert version.access_set == set()  # allocates the empty view
    assert all(version.vas is None for version in untouched)
    assert untouched.collect_garbage(1, 0.0, now=9.0) == 2
    assert touched.collect_garbage(1, 0.0, now=9.0) == 2

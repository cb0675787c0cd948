"""Unit tests for version chains and the multi-version store."""

import pytest

from repro.core import VectorClock
from repro.storage import MultiVersionStore, VersionChain


def vc(*entries):
    return VectorClock(entries)


def test_install_assigns_dense_vids():
    chain = VersionChain("x")
    v0 = chain.install("a", vc(0, 0), origin=0, seq=0)
    v1 = chain.install("b", vc(1, 0), origin=0, seq=1)
    v2 = chain.install("c", vc(1, 1), origin=1, seq=1)
    assert [v.vid for v in chain] == [0, 1, 2]
    assert chain.latest is v2
    assert list(chain.newest_first()) == [v2, v1, v0]


def test_empty_chain_has_no_latest():
    chain = VersionChain("x")
    with pytest.raises(LookupError):
        _ = chain.latest


def test_by_vid_lookup():
    chain = VersionChain("x")
    chain.install("a", vc(0), 0, 0)
    chain.install("b", vc(1), 0, 1)
    assert chain.by_vid(0).value == "a"
    assert chain.by_vid(1).value == "b"
    with pytest.raises(LookupError):
        chain.by_vid(5)


def test_store_create_and_duplicate_rejected():
    store = MultiVersionStore()
    store.create("x", "init", vc(0, 0))
    assert "x" in store
    assert len(store) == 1
    with pytest.raises(KeyError):
        store.create("x", "again", vc(0, 0))


def test_store_chain_missing_key():
    store = MultiVersionStore()
    with pytest.raises(KeyError):
        store.chain("ghost")


def test_store_install_appends_to_chain():
    store = MultiVersionStore()
    store.create("x", "init", vc(0, 0))
    version = store.install("x", "new", vc(1, 0), origin=0, seq=1)
    assert store.chain("x").latest is version
    assert version.vid == 1


def test_vas_add_and_remove_round_trip():
    store = MultiVersionStore()
    v0 = store.create("x", "init", vc(0, 0))
    v1 = store.install("x", "new", vc(1, 0), 0, 1)
    store.vas_add(v0, 101)
    store.vas_extend(v1, {101, 202})
    assert v0.access_set == {101}
    assert v1.access_set == {101, 202}
    assert store.vas_total_entries() == 3

    erased = store.vas_remove_txn(101)
    assert erased == 2
    assert v0.access_set == set()
    assert v1.access_set == {202}
    assert store.vas_total_entries() == 1


def test_vas_remove_unknown_txn_is_noop():
    store = MultiVersionStore()
    assert store.vas_remove_txn(999) == 0


def test_vas_remove_covers_propagated_entries_on_other_keys():
    """Remove must also erase ids propagated into other keys' versions."""
    store = MultiVersionStore()
    store.create("x", 0, vc(0))
    y0 = store.create("y", 0, vc(0))
    store.vas_add(y0, 7)
    x1 = store.install("x", 1, vc(1), 0, 1)
    store.vas_extend(x1, y0.access_set)  # commit-time propagation
    assert store.vas_remove_txn(7) == 2
    assert x1.access_set == set()
    assert y0.access_set == set()

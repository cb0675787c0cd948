"""What a key costs, by object count (PR 22).

Counts, not bytes: object sizes differ between the 3.10 and 3.12 CI
cells, the number of objects a key owns does not.  A loaded, never-read
key owns one ``Version`` and one ``VersionChain`` -- no VAS set, no
history list -- and a visible read's metadata lives only until its
``Remove``.
"""

import gc
from collections import Counter

import pytest

from repro import Cluster, ClusterConfig
from repro.core import VectorClock
from repro.storage import MultiVersionStore, Version, VersionChain
from tests.integration.scenario_tools import read_only_txn, retry_update

KEYS = 10_000
COUNTED = (Version, VersionChain, set, list)


def census(store):
    """Objects of each counted type reachable from ``store`` (classes
    and the versions' shared clock are payload, not walked into)."""
    seen, stack, counts = set(), [store], Counter()
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(obj, (type, VectorClock)):
            seen.add(id(obj))
            counts[type(obj)] += 1
            stack.extend(gc.get_referents(obj))
    return {cls.__name__: counts[cls] for cls in COUNTED}


def growth(store):
    """What ``store`` holds beyond what an empty store does."""
    empty = census(MultiVersionStore())
    return {name: count - empty[name] for name, count in census(store).items()}


#: Shared by every version, as the cluster's initial load shares one.
ZERO = VectorClock.zeros(3)


def loaded_store():
    store = MultiVersionStore()
    store.create_many(((key, key) for key in range(KEYS)), ZERO)
    return store


def test_loaded_never_read_key_owns_one_version_and_one_chain():
    store = loaded_store()
    assert growth(store) == {
        "Version": KEYS, "VersionChain": KEYS, "set": 0, "list": 0,
    }
    assert len(store) == KEYS


def test_visible_reads_cost_nothing_after_their_remove():
    store = loaded_store()
    first, second = store.chain(1).latest, store.chain(2).latest
    store.vas_add(first, 77)
    store.vas_add(second, 77)
    # Two VAS sets and the reverse-index entry, while the reader lives.
    assert growth(store)["set"] == 3
    assert store.vas_remove_txn(77, now=1.0) == 2
    assert first.vas is None and second.vas is None
    # Back to the loaded count; the one list is the tombstone batch.
    assert growth(store) == {
        "Version": KEYS, "VersionChain": KEYS, "set": 0, "list": 1,
    }
    assert len(store._tombstone_queue) == 1


def test_removes_at_one_instant_share_one_queue_entry():
    store = loaded_store()
    for txn_id in range(1000):
        store.vas_remove_txn(txn_id, now=2.0)
    assert len(store._tombstone_queue) == 1
    assert growth(store)["list"] == 1
    store.vas_add(store.chain(0).latest, 5)
    assert store.chain(0).latest.vas is None, "tombstoned"
    # One later Remove expires the whole batch with it.
    store.vas_remove_txn(5000, now=2.0 + store.tombstone_ttl)
    assert store._tombstones == {5000}
    assert len(store._tombstone_queue) == 1


def test_overwritten_key_owns_its_history_and_gc_gives_it_back():
    store = loaded_store()
    store.install(3, "b", ZERO, origin=0, seq=1, installed_at=1.0)
    assert growth(store) == {
        "Version": KEYS + 1, "VersionChain": KEYS, "set": 0, "list": 1,
    }
    assert store.chain(3).collect_garbage(1, min_age=0.0, now=2.0) == 1
    assert growth(store) == {
        "Version": KEYS, "VersionChain": KEYS, "set": 0, "list": 0,
    }
    assert store.chain(3).latest.value == "b"


@pytest.mark.parametrize("protocol", ["fwkv", "walter"])
def test_per_key_count_holds_after_a_protocol_run(protocol):
    """Read everything, overwrite a few keys, drain the Removes: every
    key nobody overwrote is back to one chain pointing at one version."""
    cluster = Cluster(protocol, ClusterConfig(num_nodes=3, seed=1))
    keys = [f"k{i}" for i in range(300)]
    cluster.load_many((key, 0) for key in keys)
    written = keys[:5]

    def scenario():
        for node_id in range(3):
            yield from read_only_txn(cluster, node_id, keys[node_id::7])
        yield from retry_update(cluster, 0, {key: 1 for key in written})
        yield from read_only_txn(cluster, 1, keys[::11])

    cluster.spawn(scenario())
    cluster.run()
    if protocol == "fwkv":
        assert any(node.store._tombstones for node in cluster.nodes)
    overwritten = 0
    for node in cluster.nodes:
        store = node.store
        chains = [store.chain(key) for key in store.keys()]
        with_history = sum(len(chain) > 1 for chain in chains)
        assert growth(store) == {
            "Version": sum(map(len, chains)),
            "VersionChain": len(chains),
            "set": 0,
            "list": with_history + len(store._tombstone_queue),
        }
        overwritten += with_history
    assert overwritten == len(written)

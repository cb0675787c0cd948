"""What a key costs, by object count (DESIGN.md 3.2).

Counts, not bytes: object sizes differ between the 3.10 and 3.12 CI
cells, the number of objects a key owns does not.  A loaded key nobody
has touched owns no object at all -- the store holds its value -- and
its first touch builds one ``Version`` and one ``VersionChain``, no VAS
set, no history list.  A visible read's metadata lives only until its
``Remove``; the tombstones it leaves are one byte window per store and
entries in its expiry columns.  The versions one commit installs at a
site share one frozen clock, on every path that installs.
"""

import gc
import sys
from array import array
from collections import Counter

import pytest

from repro import (
    Cluster, ClusterConfig, DurabilityConfig, ReplicationConfig, ShardingConfig,
)
from repro.core import VectorClock
from repro.core.wire import NOTHING_COLLECTED
from repro.net.message import MessageType
from repro.storage import MultiVersionStore, Version, VersionChain
from repro.storage.store import TOMBSTONE_TTL
from repro.storage.wal import (
    build_checkpoint, replay, restore_store, store_fingerprint,
    version_set_fingerprint,
)
from repro.system import version_catalog_of
from tests.integration.scenario_tools import read_only_txn, retry_update
from tests.integration.test_replication_failover import run_coordinator_crash

KEYS = 10_000
COUNTED = (Version, VersionChain, set, list, bytearray, array)


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


def owns(versions=0, chains=0, sets=0, lists=0):
    """Growth by type; the tombstone window and the expiry columns are
    one object each however many ids they hold, so a store never grows a
    ``bytearray`` or an ``array``."""
    return {"Version": versions, "VersionChain": chains, "set": sets,
            "list": lists, "bytearray": 0, "array": 0}


#: Shared by every version, as the cluster's initial load shares one.
ZERO = VectorClock.zeros(3)


def loaded_store():
    store = MultiVersionStore()
    store.create_many(((key, key) for key in range(KEYS)), ZERO)
    return store


def test_loaded_never_touched_key_owns_nothing():
    store = loaded_store()
    assert growth(store) == owns()
    assert len(store) == KEYS and 7 in store
    assert store.snapshot(7) == (0, ((7, (0, 0, 0), 0, 0, None, 0.0),))
    assert growth(store) == owns(), "a snapshot builds nothing"
    with pytest.raises(ValueError):
        store.create_many([(-1, 0)], VectorClock.zeros(4))  # one load clock


def test_first_touch_builds_one_version_and_one_chain():
    store = loaded_store()
    chain = store.chain(7)
    assert growth(store) == owns(versions=1, chains=1)
    assert store.chain(7) is chain and len(chain) == 1
    version = chain.latest
    assert version.vc is ZERO, "the one load clock"
    assert (version.value, version.vid, version.origin, version.seq,
            version.writer_txn, version.installed_at, version.vas) == (
        7, 0, 0, 0, None, 0.0, None)
    assert not hasattr(version, "key") and not hasattr(chain, "key")
    assert store.install(8, "b", ZERO, origin=1, seq=1).vid == 1
    assert growth(store) == owns(versions=3, chains=2, lists=1)


def test_visible_reads_cost_nothing_after_their_remove():
    store = loaded_store()
    first, second = store.chain(1).latest, store.chain(2).latest
    store.vas_add(first, 77)
    store.vas_add(second, 77)
    # Two VAS sets and the reverse-index entry, while the reader lives.
    assert growth(store)["set"] == 3
    assert store.vas_remove_txn(77, now=1.0) == 2
    assert first.vas is None and second.vas is None
    # Back to what the first touch built: the tombstone is column entries.
    assert growth(store) == owns(versions=2, chains=2)
    assert list(store._expiry_ids) == [77] and len(store._expiry_times) == 1


def test_removes_at_one_instant_share_one_batch():
    store = loaded_store()
    for txn_id in range(1000):
        store.vas_remove_txn(txn_id, now=2.0)
    assert list(store._expiry_ends) == [1000] and growth(store) == owns()
    version = store.chain(0).latest
    store.vas_add(version, 5)
    assert version.vas is None, "tombstoned"
    # One later Remove expires the whole batch with it (and cuts it).
    store.vas_remove_txn(5000, now=2.0 + TOMBSTONE_TTL)
    assert list(store._expiry_ids) == [5000] and store._expiry_head == 0
    store.vas_extend(version, (5, 5000))
    assert version.vas == {5}, "5 is re-inserted after the TTL, 5000 is not"


def test_overwritten_key_owns_its_history_and_gc_gives_it_back():
    store = loaded_store()
    store.install(3, "b", ZERO, origin=0, seq=1, installed_at=1.0)
    assert growth(store) == owns(versions=2, chains=1, lists=1)
    assert store.chain(3).collect_garbage(1, min_age=0.0, now=2.0) == 1
    assert growth(store) == owns(versions=1, chains=1)
    assert store.chain(3).latest.value == "b"


def test_adopting_a_loaded_snapshot_holds_its_value():
    """Even where the sender built it and the receiver loaded nothing."""
    source = loaded_store()
    source.chain(7)
    target = MultiVersionStore()
    target.adopt(7, *source.snapshot(7))
    assert growth(target) == owns() and target.snapshot(7) == source.snapshot(7)
    assert target.chain(7).latest.vc == ZERO


def test_adopting_anything_but_a_load_builds_it_as_captured():
    """History, a GC'd base, a writer, a foreign clock; re-adopt replaces."""
    source = loaded_store()
    source.install(1, "b", ZERO, origin=0, seq=1)
    source.install(2, "b", ZERO, origin=0, seq=1, installed_at=1.0)
    source.chain(2).collect_garbage(1, min_age=0.0, now=2.0)
    shipped = [(key, *source.snapshot(key)) for key in (1, 2)] + [
        (3, 0, ((3, (0, 0, 0), 0, 0, 42, 0.0),)),
        (4, 0, ((4, (0, 0, 0, 0), 0, 0, None, 0.0),))]
    target = loaded_store()
    for entry in shipped:
        target.adopt(*entry)
    assert growth(target) == owns(versions=5, chains=4, lists=1)
    assert [(key, *target.snapshot(key)) for key in (1, 2, 3, 4)] == shipped
    target.adopt(1, *source.snapshot(9))
    assert growth(target) == owns(versions=3, chains=3)


@pytest.mark.parametrize("protocol", ["fwkv", "walter"])
def test_per_key_count_holds_after_a_protocol_run(protocol):
    """Read a third of the keys, overwrite a few, drain the Removes:
    every key read and not overwritten is back to one chain pointing at
    one version, and every key nobody touched still owns nothing."""
    cluster = Cluster(protocol, ClusterConfig(num_nodes=3, seed=1))
    keys = [f"k{i}" for i in range(300)]
    cluster.load_many((key, 0) for key in keys)
    written = keys[:5]
    touched = {key for node_id in range(3) for key in keys[node_id::7]}
    touched |= set(keys[::11]) | set(written)

    def scenario():
        for node_id in range(3):
            yield from read_only_txn(cluster, node_id, keys[node_id::7])
        yield from retry_update(cluster, 0, {key: 1 for key in written})
        yield from read_only_txn(cluster, 1, keys[::11])

    cluster.spawn(scenario())
    cluster.run()
    overwritten = untouched = 0
    for node in cluster.nodes:
        store = node.store
        lengths = [len(store.snapshot(key)[1]) for key in store.keys() if key in touched]
        with_history = sum(length > 1 for length in lengths)
        assert growth(store) == owns(
            versions=sum(lengths),
            chains=len(lengths),
            lists=with_history,
        )
        overwritten += with_history
        untouched += len(store) - len(lengths)
    assert overwritten == len(written)
    assert untouched == len(keys) - len(touched) > 0
    if protocol == "fwkv":  # a late Decide re-inserts no tombstoned reader (ids 1-3)
        version = cluster.nodes[0].store.chain(keys[0]).latest
        cluster.nodes[0].store.vas_extend(version, (1, 2, 3))
        assert version.vas is None


def test_update_commit_collecting_nothing_shares_the_empty_set():
    """The Decide sent and the decision logged both hold the one constant."""
    cluster = Cluster("fwkv", ClusterConfig(
        num_nodes=3, seed=1, durability=DurabilityConfig(wal_enabled=True)))
    cluster.load_many((f"k{i}", i) for i in range(30))
    sent = []
    cluster.network.delay_policy = lambda envelope: sent.append(envelope) or 0.0
    assert cluster.run_txn(lambda txn: [txn.write(f"k{i}", -1) for i in range(3)]).committed
    decides = [env.payload for env in sent if env.msg_type == MessageType.DECIDE]
    assert decides and all(body.collected is NOTHING_COLLECTED for body in decides)
    (record,) = [r for node in cluster.nodes for r in node.in_doubt.log.by_txn.values()]
    assert record.collected is NOTHING_COLLECTED


def test_read_only_walks_build_nothing_and_restore_keeps_values():
    """Checkpoint, both fingerprints and the version catalog read an
    untouched key's implied version; a restore holds it as a value."""
    cluster = Cluster("fwkv", ClusterConfig(num_nodes=3, seed=1))
    cluster.load_many((f"k{i}", i) for i in range(300))
    assert cluster.run_txn(lambda txn: txn.write("k0", -1)).committed
    before = [growth(node.store) for node in cluster.nodes]
    assert sum(counts["Version"] for counts in before) == 2
    catalog = version_catalog_of(cluster.nodes)
    assert len(catalog) == 301 and catalog[("k7", 0)] == (0, 0, None)
    for node in cluster.nodes:
        store = node.store
        record = build_checkpoint(store.snapshots(), node.site_vc, node.curr_seq_no)
        fingerprints = store_fingerprint(store), version_set_fingerprint(store)
        restored = restore_store(record)
        assert growth(restored) == growth(store)
        assert (store_fingerprint(restored), version_set_fingerprint(restored)) == (
            fingerprints
        )
        assert build_checkpoint(
            restored.snapshots(), node.site_vc, node.curr_seq_no
        ).fingerprint == record.fingerprint
    assert [growth(node.store) for node in cluster.nodes] == before


def multi_key_commits(protocol, **config):
    """Three update commits of eight keys each over three sites."""
    cluster = Cluster(protocol, ClusterConfig(num_nodes=3, seed=1, **config))
    cluster.load_many((f"k{i}", i) for i in range(40))
    for start in range(3):
        assert cluster.run_txn(lambda txn, start=start: [
            txn.write(f"k{i}", -i) for i in range(start, 40, 5)]).committed
    return cluster


def wal_replay():
    cluster = multi_key_commits("fwkv", durability=DurabilityConfig(wal_enabled=True))
    for node in cluster.nodes:
        replay(node.wal.records(), len(cluster.nodes))


INSTALLS = {  # installer -> a run that installs through it
    "_apply_committed_decide": lambda: [
        multi_key_commits(protocol) for protocol in ("fwkv", "walter")],
    "replay": wal_replay,
    "apply": lambda: multi_key_commits("fwkv", sharding=ShardingConfig(
        enabled=True, num_shards=8), replication=ReplicationConfig(enabled=True)),
    "_promote": lambda: run_coordinator_crash(7, faulty=True, own_shard=True),
}


@pytest.mark.parametrize("installer", sorted(INSTALLS))
def test_one_commit_holds_one_frozen_clock_per_site(installer, monkeypatch):
    """Live Decides (FW-KV and Walter), WAL replay, a backup's stream
    apply and a failover's re-install: every version one commit installs
    in one store -- at a backup, from one primary's stream -- shares one
    clock, and it refuses mutation."""
    clocks, install = {}, MultiVersionStore.install

    def spy(store, key, value, vc, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_name == installer:
            by = (store, kwargs["writer_txn"], caller.f_locals.get("self"))
            clocks.setdefault(by, []).append(vc)
        return install(store, key, value, vc, *args, **kwargs)

    monkeypatch.setattr(MultiVersionStore, "install", spy)
    INSTALLS[installer]()
    assert clocks and all(len(set(map(id, vcs))) == 1 for vcs in clocks.values())
    assert installer == "_promote" or max(map(len, clocks.values())) > 1
    for clock, *_ in clocks.values():
        for mutate in (lambda: clock.__setitem__(0, 9), lambda: clock.merge(clock),
                       lambda: clock.merge_seq((9,))):
            with pytest.raises(TypeError, match="frozen vector clock"):
                mutate()

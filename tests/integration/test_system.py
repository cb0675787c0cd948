"""Tests for the Cluster facade: catalogs, history finalisation, probes."""

import pytest

from repro import (
    Cluster, ClusterConfig, DurabilityConfig, ReplicationConfig, ShardingConfig,
)
from repro.cluster.directory import LOAD_CHUNK
from tests.integration.scenario_tools import (
    make_cluster,
    read_only_txn,
    update_txn,
)


def test_version_catalog_for_mvcc():
    cluster = make_cluster("fwkv", 2, {"x": 0, "y": 1}, initial={"x": 1, "y": 2})
    cluster.run_process(update_txn(cluster, 0, writes={"x": 10, "y": 20}))
    catalog = cluster.version_catalog()
    assert catalog[("x", 0)][2] is None  # loaded version, no writer
    origin, seq, writer = catalog[("x", 1)]
    assert origin == 0 and seq == 1 and writer is not None
    assert catalog[("y", 1)][2] == writer  # same transaction wrote both


def test_version_catalog_for_2pc():
    cluster = make_cluster("2pc", 2, {"x": 0}, initial={"x": 1})
    cluster.run_process(update_txn(cluster, 1, writes={"x": 5}))
    catalog = cluster.version_catalog()
    assert catalog[("x", 0)][2] is None
    assert catalog[("x", 1)][2] is not None


def test_finalized_history_resolves_write_vids():
    cluster = make_cluster("fwkv", 2, {"x": 0, "y": 1}, initial={"x": 1, "y": 2})
    cluster.run_process(update_txn(cluster, 0, writes={"x": 10, "y": 20}))
    cluster.run_process(read_only_txn(cluster, 1, ["x", "y"]))
    history = cluster.finalized_history()
    updates = history.committed_updates()
    assert len(updates) == 1
    written = {op.key: op.vid for op in updates[0].writes()}
    assert written == {"x": 1, "y": 1}
    reader = history.committed_read_only()[0]
    assert {op.key for op in reader.ops if op.kind == "r"} == {"x", "y"}


def test_finalized_history_idempotent():
    cluster = make_cluster("fwkv", 2, {"x": 0}, initial={"x": 1})
    cluster.run_process(update_txn(cluster, 0, writes={"x": 2}))
    first = cluster.finalized_history()
    count = len(first.committed_updates()[0].writes())
    second = cluster.finalized_history()
    assert len(second.committed_updates()[0].writes()) == count


def test_finalized_history_requires_recording():
    cluster = Cluster("fwkv", ClusterConfig(num_nodes=2))
    with pytest.raises(RuntimeError, match="history recording"):
        cluster.finalized_history()


def test_site_clocks_empty_for_2pc():
    cluster = make_cluster("2pc", 2, {"x": 0})
    assert cluster.site_clocks() == []


def test_load_routes_to_preferred_site():
    cluster = make_cluster("fwkv", 3, {"a": 2}, initial={"a": 9})
    assert "a" in cluster.node(2).store
    assert "a" not in cluster.node(0).store


def test_load_many_returns_count():
    cluster = Cluster("walter", ClusterConfig(num_nodes=2))
    assert cluster.load_many((f"k{i}", i) for i in range(10)) == 10


#: The ledger's shapes: a ring, 64 shards at rf=2, and the WAL on.
LOAD_SHAPES = {
    "ring": ClusterConfig(num_nodes=10),
    "replicated": ClusterConfig(
        num_nodes=10, sharding=ShardingConfig(enabled=True, num_shards=64),
        replication=ReplicationConfig(enabled=True, replication_factor=2)),
    "wal": ClusterConfig(num_nodes=10, durability=DurabilityConfig(wal_enabled=True)),
}


@pytest.mark.parametrize("shape", sorted(LOAD_SHAPES))
def test_a_bulk_load_installs_what_a_key_by_key_load_does(shape):
    """Every node holds the same keys in the same dict order, logs the
    same columns and mirrors the same keys to each shard's backups."""
    items = [(f"u{i}", f"v{i % 7}") for i in range(2 * LOAD_CHUNK + 123)]
    bulk, single = Cluster("fwkv", LOAD_SHAPES[shape]), Cluster("fwkv", LOAD_SHAPES[shape])
    assert bulk.load_many(iter(items)) == len(items)
    for key, value in items:
        single.load(key, value)
    for mine, theirs in zip(bulk.nodes, single.nodes):
        assert list(mine.store.snapshots()) == list(theirs.store.snapshots())
        assert logged(mine) == logged(theirs)
    if bulk.replication is not None:
        placement, directory = bulk.replication.placement, bulk.directory
        for key, _value in items:
            shard = directory.hash_shard(key)
            holders = {node.node_id for node in bulk.nodes if key in node.store}
            assert holders == {directory.owner_of(shard), *placement[shard]}


def logged(node):
    """The pairs ``node``'s LoadRecord columns hold, in log order."""
    records = node.wal.records() if node.wal is not None else ()
    return [pair for record in records for pair in zip(record.keys, record.values)]


def test_a_bulk_load_pulls_at_most_one_chunk_ahead():
    cluster = Cluster("fwkv", ClusterConfig(num_nodes=10))
    pulled, handed, ahead = [0], [0], []

    def items():
        for index in range(100_000):
            pulled[0] += 1
            yield f"u{index}", 0

    def counting(load):
        def counted(bucket):
            handed[0] += len(bucket)
            ahead.append(pulled[0] - handed[0])
            return load(bucket)
        return counted

    for node in cluster.nodes:
        node.load_many = counting(node.load_many)
    assert cluster.load_many(items()) == handed[0] == 100_000
    assert 0 <= max(ahead) < LOAD_CHUNK

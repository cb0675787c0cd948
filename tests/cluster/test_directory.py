"""Unit tests for key placement directories."""

import hashlib
from collections import Counter

import pytest

from repro import Cluster, ClusterConfig, ReplicationConfig, ShardingConfig
from repro.cluster import (
    CallableDirectory,
    ConsistentHashDirectory,
    ExplicitDirectory,
)
from tests.integration.scenario_tools import read_only_txn


def test_consistent_hash_is_stable():
    directory = ConsistentHashDirectory(range(5))
    sites = [directory.site(f"key{i}") for i in range(100)]
    again = [ConsistentHashDirectory(range(5)).site(f"key{i}") for i in range(100)]
    assert sites == again


def test_consistent_hash_spreads_keys_roughly_evenly():
    directory = ConsistentHashDirectory(range(10), virtual_nodes=128)
    counts = Counter(directory.site(f"key{i}") for i in range(20000))
    assert set(counts) == set(range(10))
    share = [count / 20000 for count in counts.values()]
    assert min(share) > 0.04  # within ~2.5x of the 10% ideal
    assert max(share) < 0.25


def test_consistent_hash_minimal_movement_on_node_add():
    before = ConsistentHashDirectory(range(5), virtual_nodes=128)
    after = ConsistentHashDirectory(range(6), virtual_nodes=128)
    keys = [f"key{i}" for i in range(5000)]
    moved = sum(1 for k in keys if before.site(k) != after.site(k))
    # Adding 1 of 6 nodes should move roughly 1/6 of keys, not reshuffle all.
    assert moved / len(keys) < 0.35


def test_consistent_hash_validates_arguments():
    with pytest.raises(ValueError):
        ConsistentHashDirectory([])
    with pytest.raises(ValueError):
        ConsistentHashDirectory([0], virtual_nodes=0)
    with pytest.raises(ValueError):
        ConsistentHashDirectory([0, 1, 0])


#: sha256 over the owners of ``u0`` .. ``u19999``, one byte each.  The
#: ring is the placement of every non-sharded run: ``(10, 64)`` is the
#: default ring of the ten-node ledger workloads.
RING_DIGESTS = {
    (3, 64): "2a9f757c266b72c08ed43dcdd57c024f39febfc40d2d5386cd0398dc85db963a",
    (5, 64): "5cb9ed747b797d7181a1a74ae773effae3ea323354176837ece7a40d05130895",
    (10, 64): "3389eee6c258e8ca86ca21e11208463b9448c9747749f5a94e5a4ebd6a858392",
    (4, 16): "a09c64f2870a6f0e66da28bbd41b5298fb3f5bb1bba4df847df8495f66a70603",
    (7, 128): "97afd861237ab0aa5edd315cd9bd65758a64515b5d3effdaca2fb26aae74f029",
}


@pytest.mark.parametrize("nodes, virtual_nodes", sorted(RING_DIGESTS))
def test_ring_placement_is_pinned(nodes, virtual_nodes):
    directory = ConsistentHashDirectory(range(nodes), virtual_nodes)
    owners = bytes(directory.site(f"u{i}") for i in range(20000))
    digest = hashlib.sha256(owners).hexdigest()
    assert digest == RING_DIGESTS[nodes, virtual_nodes]
    assert owners == bytes(directory.place(f"u{i}") for i in range(20000))


@pytest.mark.parametrize("layout", ["ring", "shards", "replicated"])
def test_the_run_fills_the_placement_memo_not_the_load(layout):
    """Loading 10k keys (and mirroring them to backups) places them
    uncached; after a run the memo holds exactly the keys routed."""
    sharded = layout != "ring"
    cluster = Cluster("fwkv", ClusterConfig(
        num_nodes=3, seed=1, sharding=ShardingConfig(enabled=sharded, num_shards=16),
        replication=ReplicationConfig(enabled=layout == "replicated")))
    cluster.load_many((f"k{i}", i) for i in range(10_000))
    memo = cluster.directory._shard_cache if sharded else cluster.directory._cache
    assert not memo
    written, read = [f"k{i}" for i in range(0, 90, 9)], [f"k{i}" for i in range(5, 60, 11)]
    assert cluster.run_txn(lambda txn: [txn.write(key, -1) for key in written]).committed
    cluster.run_process(read_only_txn(cluster, 1, read))
    assert set(memo) == set(written) | set(read)


def test_explicit_directory_places_listed_keys_only():
    directory = ExplicitDirectory({"x": 2})
    assert directory.site("x") == 2
    with pytest.raises(KeyError):
        directory.site("unknown")


def test_callable_directory():
    directory = CallableDirectory(lambda key: len(str(key)) % 3)
    assert directory.site("ab") == 2
    assert directory.site("abc") == 0

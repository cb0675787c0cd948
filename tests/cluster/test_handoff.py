"""The fenced handoff (``repro.cluster.handoff``): failure leaves no trace.

Migrations, joins, drains, promotions and backup bootstraps all run this
one primitive (their suites cover the success paths end to end).
Whatever step fails, the fence must come down and ownership must be
unchanged, so foreground traffic proceeds at the donor as if nothing had
been tried; and concurrent handoffs of one shard never lower each
other's fence.
"""

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    DurabilityConfig,
    NetworkConfig,
    ShardingConfig,
)
from repro.cluster.handoff import fenced_handoff
from repro.cluster.membership import HANDOFF_TIMEOUT
from repro.faults import Nemesis
from repro.faults.schedules import CRASH_DURABLE, RESTART, FaultEvent

pytestmark = pytest.mark.sharding

NUM_KEYS = 12
DONOR, DEST = 0, 1


def build():
    config = ClusterConfig(
        num_nodes=3,
        seed=9,
        network=NetworkConfig(jitter=0.0),
        sharding=ShardingConfig(enabled=True, num_shards=NUM_KEYS),
        durability=DurabilityConfig(wal_enabled=True),
    )
    cluster = Cluster("fwkv", config)
    for i in range(NUM_KEYS):
        cluster.load(f"k{i}", i)
    return cluster


def donor_key(cluster):
    return next(
        f"k{i}" for i in range(NUM_KEYS)
        if cluster.directory.site(f"k{i}") == DONOR
    )


def hold_write_lock(cluster, key, seconds):
    """An in-flight prepare that keeps ``key``'s write lock for a while."""
    lock = cluster.node(DONOR).locks.lock_for(key)
    assert lock.acquire_write("in-flight").triggered
    cluster.sim.call_later(seconds, lock.release, "in-flight")


@pytest.mark.parametrize("failure", ["drain", "ship", "donor_crash"])
def test_failed_handoff_ends_with_fence_down_and_ownership_unchanged(failure):
    cluster = build()
    donor = cluster.node(DONOR)
    key = donor_key(cluster)
    shard = cluster.directory.shard_of(key)

    if failure == "drain":
        hold_write_lock(cluster, key, 2 * HANDOFF_TIMEOUT)
    elif failure == "ship":
        cluster.network.crash(DEST)
    else:
        hold_write_lock(cluster, key, 5e-3)
        nemesis = Nemesis(cluster)
        cluster.sim.call_later(
            1e-3, nemesis.apply, FaultEvent(1e-3, CRASH_DURABLE, DONOR)
        )
        cluster.sim.call_later(
            3e-3, nemesis.apply, FaultEvent(3e-3, RESTART, DONOR)
        )

    process = cluster.spawn(fenced_handoff(cluster, [(shard, DONOR, DEST)]))
    cluster.run(until=1e-4)
    assert donor.fence.blocks([key]), "the fence goes up first"
    cluster.run()
    assert process.value is None
    assert not donor.fence.shards and not donor.fence.blocks([key])
    assert cluster.directory.owner_of(shard) == DONOR
    assert cluster.directory.epoch == 0
    assert cluster.metrics.counters["snapshot_installs"] == 0
    # Foreground traffic proceeds at the donor as if nothing was tried.
    assert cluster.run_txn(lambda txn: txn.write(key, "after"), node=2)
    assert donor.store.chain(key).latest.value == "after"


def test_a_shard_two_handoffs_fence_stays_fenced_until_both_are_done():
    """Each handoff lowers only what it raised: a migration that flips
    first leaves the shard fenced for a slower handoff of it (a
    generator act), then the stale plan's cutover refuses to flip."""
    cluster = build()
    donor = cluster.node(DONOR)
    key = donor_key(cluster)
    shard = cluster.directory.shard_of(key)
    held = sum(cluster.directory.shard_of(f"k{i}") == shard for i in range(NUM_KEYS))

    def slow_act():
        yield cluster.sim.timeout(1e-3)

    slow = cluster.spawn(fenced_handoff(cluster, [(shard, DONOR, 2)], act=slow_act))
    migration = cluster.spawn(fenced_handoff(cluster, [(shard, DONOR, DEST)]))
    cluster.run(until=5e-4)
    assert migration.value == held and cluster.directory.owner_of(shard) == DEST
    assert not slow.triggered and donor.fence.shards == {shard: 1}
    cluster.run()
    assert slow.value == held and not donor.fence.shards
    stale = cluster.spawn(fenced_handoff(cluster, [(shard, DONOR, 2)]))
    cluster.run()
    assert stale.value is None and cluster.directory.owner_of(shard) == DEST

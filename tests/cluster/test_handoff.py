"""The fenced handoff (``repro.cluster.handoff``): a promotion or a
backup bootstrap, each with one donor.

Whatever step fails, the fence must come down and ownership must be
unchanged, so foreground traffic proceeds at the donor as if nothing had
been tried; and concurrent handoffs of one shard never lower each
other's fence.  On a replicated cluster: a key first written during a
backup bootstrap parks with its shard, a prepare that reaches a deposed
primary after its promotion votes "moved" and its coordinator regroups,
and the visible reads a bootstrap ships reach the writer at the promoted
backup.
"""

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    DurabilityConfig,
    NetworkConfig,
    ReplicationConfig,
    RpcConfig,
    ShardingConfig,
)
from repro.cluster.directory import ShardMap
from repro.cluster.handoff import HANDOFF_TIMEOUT, Shipments, fenced_handoff
from repro.faults import Nemesis
from repro.faults.schedules import CRASH_DURABLE, RESTART, FaultEvent
from repro.net.message import MessageType

from tests.harness import battery
from tests.harness.battery import assert_backups_verbatim
from tests.harness.oracle import assert_psi

pytestmark = pytest.mark.replication

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


@pytest.mark.parametrize("failure", ["drain", "ship", "donor_crash", "act"])
def test_failed_handoff_ends_with_fence_down_and_ownership_unchanged(failure):
    cluster = build()
    donor = cluster.node(DONOR)
    key = donor_key(cluster)
    shard = cluster.directory.shard_of(key)
    acted = []

    if failure == "drain":
        hold_write_lock(cluster, key, 2 * HANDOFF_TIMEOUT)
    elif failure == "ship":
        cluster.network.crash(DEST)
    elif failure == "donor_crash":
        hold_write_lock(cluster, key, 5e-3)
        nemesis = Nemesis(cluster)
        cluster.sim.call_later(
            1e-3, nemesis.apply, FaultEvent(1e-3, CRASH_DURABLE, DONOR)
        )
        cluster.sim.call_later(
            3e-3, nemesis.apply, FaultEvent(3e-3, RESTART, DONOR)
        )

    def act():
        # Under the fence; a refusing act (a promotion or a stream
        # restart that cannot go ahead) fails the handoff after the
        # chains shipped.
        acted.append(donor.fence.blocks([key]))
        return False if failure == "act" else None

    process = cluster.spawn(fenced_handoff(cluster, DONOR, DEST, [shard], act))
    cluster.run(until=1e-5)
    assert donor.fence.blocks([key]), "the fence goes up first"
    cluster.run()
    shipped = failure == "act"
    assert process.value is None and acted == [True] * shipped
    assert not donor.fence.shards and not donor.fence.blocks([key])
    assert cluster.directory.owner_of(shard) == DONOR
    assert cluster.directory.epoch == 0
    assert cluster.metrics.counters["snapshot_installs"] == shipped
    # Foreground traffic proceeds at the donor as if nothing was tried.
    assert cluster.run_txn(lambda txn: txn.write(key, "after"), node=2)
    assert donor.store.chain(key).latest.value == "after"


def test_a_shard_two_handoffs_fence_stays_fenced_until_both_are_done():
    """Each handoff lowers only what it raised: a bootstrap that ends
    first leaves the shard fenced for a slower one (a generator act)."""
    cluster = build()
    donor = cluster.node(DONOR)
    key = donor_key(cluster)
    shard = cluster.directory.shard_of(key)
    held = sum(cluster.directory.shard_of(f"k{i}") == shard for i in range(NUM_KEYS))

    def slow_act():
        yield cluster.sim.timeout(1e-3)

    slow = cluster.spawn(fenced_handoff(cluster, DONOR, 2, [shard], slow_act))
    fast = cluster.spawn(fenced_handoff(cluster, DONOR, DEST, [shard], lambda: None))
    cluster.run(until=5e-4)
    assert fast.value == held and not slow.triggered
    assert donor.fence.shards == {shard: 1} and donor.fence.blocks([key])
    cluster.run()
    assert slow.value == held and not donor.fence.shards
    assert cluster.directory.owner_of(shard) == DONOR


# ----------------------------------------------------------------------
# The two handoffs on a replicated cluster
# ----------------------------------------------------------------------
#: Node 0 owns shard 0 (``k1`` and ``k10``), backed by node 1; node 2
#: coordinates.
SEED, SHARD, PRIMARY, BACKUP, COORDINATOR = 7, 0, 0, 1, 2
KEYS = battery.keys(24)


def build_replicated():
    """A 3-node FW-KV cluster on 12 shards at rf=2; RPCs wait forever and
    no background loop runs, so each case drives its handoff itself."""
    cluster, _ = battery.build(
        SEED,
        num_nodes=3,
        num_keys=len(KEYS),
        rpc=RpcConfig(),
        sharding=ShardingConfig(enabled=True, num_shards=12),
        replication=ReplicationConfig(enabled=True, replication_factor=2),
    )
    shard_map, rep = cluster.directory, cluster.replication
    assert {k for k in KEYS if shard_map.shard_of(k) == SHARD} == {"k1", "k10"}
    assert shard_map.owner_of(SHARD) == PRIMARY
    assert rep.placement[SHARD] == (BACKUP,)
    return cluster


def bootstrap(cluster):
    """Re-bootstrap ``BACKUP`` from ``PRIMARY``, as the failover driver's
    repair does once a closed stream's ends are both live again."""
    rep = cluster.replication
    shards = [
        shard for shard in rep.shard_map.shards_of(PRIMARY)
        if BACKUP in rep.placement[shard]
    ]
    return cluster.spawn(rep.driver._bootstrap_backup(PRIMARY, BACKUP, shards))


def write(cluster, key, acked):
    node = cluster.node(COORDINATOR)
    txn = node.begin(is_read_only=False)
    node.write(txn, key, 999)
    acked.append((yield from node.commit(txn)))


def read(cluster, key):
    seen = {}

    def body(txn):
        seen[key] = yield from txn.read(key)

    assert cluster.run_txn(body, read_only=True)
    return seen[key]


def test_a_key_first_written_mid_bootstrap_parks_with_its_shard(monkeypatch):
    """A write of a key the shard never held, started as the primary
    ships the shard to its backup (0.6 ms on the wire), prepares only
    after the stream restarted: the backup then holds it verbatim."""
    cluster = build_replicated()
    battery.slow_shipments(cluster)
    cluster.tracer.enable("prepare", "backup_bootstrap")
    fresh = next(
        f"new{i}" for i in range(100)
        if ShardMap(range(3), 12).shard_of(f"new{i}") == SHARD
    )
    acked = []
    ship = Shipments.ship

    def hooked(shipments, peer, keys, incarnation):
        cluster.spawn(write(cluster, fresh, acked))
        return (yield from ship(shipments, peer, keys, incarnation))

    monkeypatch.setattr(Shipments, "ship", hooked)
    booted = bootstrap(cluster)
    cluster.run()
    assert booted.value is True and acked == [True]
    (done,) = cluster.tracer.of_kind("backup_bootstrap")
    (prepared,) = cluster.tracer.of_kind("prepare")
    assert prepared.node == PRIMARY and prepared.time >= done.time
    assert read(cluster, fresh) == 999
    assert_backups_verbatim(cluster, [fresh, *KEYS])
    assert_psi(cluster, quiescent=True)


def test_a_prepare_at_a_deposed_primary_votes_moved_and_regroups():
    """The primary crashes with a write's Prepare on the wire to it; its
    shard is promoted to the backup and it restarts, deposed.  The late
    Prepare finds the flipped directory: the old primary answers
    "moved" and the coordinator prepares again at the new owner, in
    the same attempt."""
    cluster = build_replicated()
    cluster.tracer.enable("prepare", "moved_retry")
    cluster.network.delay_policy = lambda envelope: (
        1e-3 if (envelope.msg_type, envelope.dst) == (MessageType.PREPARE, PRIMARY)
        else 0.0
    )
    acked = []
    cluster.spawn(write(cluster, "k10", acked))
    cluster.run(until=cluster.sim.now + 50e-6)
    cluster.network.crash(PRIMARY)
    promoted = cluster.spawn(cluster.replication.driver.fail_over(PRIMARY))
    cluster.run(until=cluster.sim.now + 500e-6)
    assert cluster.directory.site("k10") == BACKUP
    cluster.network.restart(PRIMARY)
    cluster.run()
    assert promoted.triggered and acked == [True]
    (retry,) = cluster.tracer.of_kind("moved_retry")
    assert retry.details["round"] == 1
    assert [r.node for r in cluster.tracer.of_kind("prepare")] == [BACKUP]
    assert read(cluster, "k10") == 999
    assert_psi(cluster, quiescent=True)


def test_a_reader_a_bootstrap_shipped_is_known_to_the_promoted_writer():
    """A read-only transaction reads ``k10`` at the primary, a bootstrap
    ships the shard to its backup, and the primary dies: its visible
    reads went with the chains, so a writer of ``k10`` and ``k2`` at the
    promoted backup collects the reader, and the reader's later ``k2``
    read skips it."""
    cluster = build_replicated()
    reader = cluster.node(COORDINATOR)
    txn = reader.begin(is_read_only=True)
    assert cluster.run_process(reader.read(txn, "k10")) == 0
    booted = bootstrap(cluster)
    cluster.run()
    assert booted.value is True
    cluster.network.crash(PRIMARY)
    cluster.run_process(cluster.replication.driver.fail_over(PRIMARY))
    assert cluster.directory.site("k10") == BACKUP
    assert cluster.directory.site("k2") not in (PRIMARY, BACKUP)
    assert cluster.run_txn(
        lambda w: [w.write("k10", 999), w.write("k2", 999)], node=BACKUP
    )
    assert cluster.run_process(reader.read(txn, "k2")) == 0
    cluster.run_process(reader.commit(txn))
    assert_psi(cluster, quiescent=True)

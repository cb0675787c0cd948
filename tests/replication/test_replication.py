"""Per-shard primary-backup replication: substrate tests on the Cluster API.

These are the old standalone ``ReplicaGroup`` scenarios -- replicate to
every backup, apply in submission order, failover preserves committed
writes, double failover, single-copy groups, backup-targeted clients --
ported to the integrated substrate (``repro.replication.shard`` driven
through :class:`repro.system.Cluster`).

Clusters with a heartbeat interval configured never quiesce, so every
scenario drives the simulation with ``cluster.run(until=...)`` on a
stepped clock rather than running to exhaustion.
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
from repro.config import HealingConfig
from repro.replication import backups_for_shard

NUM_KEYS = 12
NUM_SHARDS = 12
SETTLE = 1e-3

pytestmark = pytest.mark.replication


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def build(
    num_nodes=3,
    *,
    factor=2,
    mode="sync",
    read_from_backups=False,
    failover=None,
    seed=7,
):
    """A sharded FW-KV cluster with per-shard replication enabled."""
    config = ClusterConfig(
        num_nodes=num_nodes,
        seed=seed,
        prepared_lease=5e-3,
        gc_enabled=False,
        network=NetworkConfig(
            jitter=5e-6,
            rpc=RpcConfig(request_timeout=1.5e-3, max_attempts=3),
        ),
        sharding=ShardingConfig(enabled=True, num_shards=NUM_SHARDS),
        replication=ReplicationConfig(
            enabled=True,
            replication_factor=factor,
            mode=mode,
            read_from_backups=read_from_backups,
            failover_timeout=failover,
        ),
        durability=DurabilityConfig(wal_enabled=False),
        healing=HealingConfig(
            heartbeat_interval=1e-3 if failover is not None else None
        ),
    )
    cluster = Cluster("fwkv", config)
    for i in range(NUM_KEYS):
        cluster.load(f"k{i}", 0)
    return cluster


def run_plan(cluster, plan, *, read_only=False, settle=SETTLE):
    """Run serialized ``(coordinator, keys)`` txns; return (ok, values)."""
    outcomes = []

    def driver():
        for coordinator, keys in plan:
            node = cluster.node(coordinator)
            txn = node.begin(is_read_only=read_only)
            values = []
            for key in keys:
                values.append((yield from node.read(txn, key)))
            if not read_only:
                for key, value in zip(keys, values):
                    node.write(txn, key, value + 1)
            ok = yield from node.commit(txn)
            outcomes.append((ok, values))
            yield cluster.sim.timeout(settle)

    cluster.spawn(driver(), name="plan")
    cluster.run(until=cluster.sim.now + len(plan) * (settle + 2e-3) + 5e-3)
    assert len(outcomes) == len(plan), "plan driver did not finish in time"
    return outcomes


def all_keys():
    return [f"k{i}" for i in range(NUM_KEYS)]


def bump_all(cluster, coordinators=(0, 1, 2)):
    """One read-modify-write increment per key; all must commit."""
    plan = [
        (coordinators[i % len(coordinators)], [f"k{i}"])
        for i in range(NUM_KEYS)
    ]
    outcomes = run_plan(cluster, plan)
    assert all(ok for ok, _ in outcomes)


def chain_tuples(node, key):
    """One key's full version chain, bit-comparable across nodes."""
    if key not in node.store:
        return ()
    return tuple(
        (v.vid, v.origin, v.seq, v.value, v.vc.to_tuple())
        for v in node.store.chain(key)
    )


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def test_placement_is_deterministic_and_avoids_the_owner():
    first = build()
    second = build()
    assert first.replication.placement == second.replication.placement
    for shard, backups in first.replication.placement.items():
        assert len(backups) == 1  # replication_factor - 1
        assert first.directory.owner_of(shard) not in backups


def test_placement_spreads_backups_across_nodes():
    cluster = build(num_nodes=4, factor=3)
    counts = {}
    for backups in cluster.replication.placement.values():
        assert len(backups) == 2
        for backup in backups:
            counts[backup] = counts.get(backup, 0) + 1
    # The rotation spreads backup shards over every node.
    assert set(counts) == set(range(4))


def test_backups_for_shard_excludes_down_nodes():
    cluster = build(num_nodes=4, factor=3)
    shard_map = cluster.directory
    shard = 0
    full = backups_for_shard(shard_map, shard, 3)
    downed = backups_for_shard(shard_map, shard, 3, down={full[0]})
    assert full[0] not in downed
    assert len(downed) == 2


# ----------------------------------------------------------------------
# Ported ReplicaGroup scenarios
# ----------------------------------------------------------------------
def test_commit_replicates_to_all_backups():
    """Old ``test_submit_replicates_to_all_backups``: after a sync-mode
    commit drains, every backup's chain is bit-verbatim the primary's."""
    cluster = build()
    bump_all(cluster)
    cluster.run(until=cluster.sim.now + 5e-3)
    for key in all_keys():
        primary = cluster.node(cluster.directory.site(key))
        reference = chain_tuples(primary, key)
        assert len(reference) == 2  # loaded baseline + one commit
        for backup_id in cluster.replication.backups_for_key(key):
            assert chain_tuples(cluster.node(backup_id), key) == reference
    assert cluster.metrics.counters["replication_records_streamed"] > 0
    assert cluster.metrics.counters["replication_sync_degraded"] == 0


def test_stream_applies_in_submission_order():
    """Old ``test_commands_apply_in_submission_order``: repeated writes
    to one key reach backups in commit order, vids dense and ascending."""
    cluster = build()
    key = "k0"
    plan = [(i % 3, [key]) for i in range(10)]
    outcomes = run_plan(cluster, plan)
    assert [ok for ok, _ in outcomes] == [True] * 10
    cluster.run(until=cluster.sim.now + 5e-3)
    primary = cluster.node(cluster.directory.site(key))
    reference = chain_tuples(primary, key)
    assert [v[0] for v in reference] == list(range(11))  # dense vids
    assert reference[-1][3] == 10  # last value
    for backup_id in cluster.replication.backups_for_key(key):
        assert chain_tuples(cluster.node(backup_id), key) == reference


def test_failover_preserves_committed_writes():
    """Old ``test_failover_preserves_committed_writes``: crash a primary
    after acked commits; the promoted backups serve every one of them."""
    cluster = build(failover=4e-3)
    bump_all(cluster)
    victim = 1
    owned = list(cluster.directory.shards_of(victim))
    assert owned, "victim must own shards for the scenario to bite"

    cluster.network.crash(victim)
    cluster.run(until=cluster.sim.now + 0.1)
    assert cluster.metrics.counters["failovers_completed"] >= len(owned)
    assert not cluster.directory.shards_of(victim)

    reads = run_plan(
        cluster, [(0, [k]) for k in all_keys()], read_only=True
    )
    assert all(ok and values == [1] for ok, values in reads)

    # And the cluster still accepts writes everywhere ("after failover").
    writes = run_plan(cluster, [(2, [k]) for k in all_keys()])
    assert all(ok for ok, _ in writes)


def test_double_failover():
    """Old ``test_double_failover``: two successive primary crashes with
    replication_factor=3; committed writes survive both."""
    cluster = build(num_nodes=4, factor=3, failover=4e-3)
    bump_all(cluster, coordinators=(0, 1, 2, 3))

    for victim in (1, 2):
        cluster.network.crash(victim)
        cluster.run(until=cluster.sim.now + 0.1)
        assert not cluster.directory.shards_of(victim)

    reads = run_plan(
        cluster, [(0, [k]) for k in all_keys()], read_only=True
    )
    assert all(ok and values == [1] for ok, values in reads)
    writes = run_plan(cluster, [(3, [k]) for k in all_keys()])
    assert all(ok for ok, _ in writes)


def test_replication_factor_one_runs_standalone():
    """Old ``test_single_replica_group_commits_immediately``: a single
    copy of every shard commits without any stream traffic."""
    cluster = build(factor=1)
    bump_all(cluster)
    assert cluster.metrics.counters["replication_records_streamed"] == 0
    assert cluster.replication.placement == {
        shard: () for shard in range(NUM_SHARDS)
    }


def test_backup_serves_read_only_snapshots():
    """Old ``test_backup_redirects_clients``: a read landing on a backup
    is served there (when the frontier allows) or forwarded -- never
    wrong, and the backup path demonstrably carries traffic."""
    cluster = build(read_from_backups=True)
    bump_all(cluster)
    reads = run_plan(
        cluster,
        [((i + 1) % 3, [f"k{i % NUM_KEYS}"]) for i in range(2 * NUM_KEYS)],
        read_only=True,
    )
    assert all(ok and values == [1] for ok, values in reads)
    metrics = cluster.metrics
    assert metrics.counters["backup_reads_served"] > 0
    # Served + forwarded both keep the PSI answer identical; non-RO
    # traffic never routes to backups at all.
    assert metrics.counters["backup_reads_forwarded"] >= 0


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_replication_config_validates():
    with pytest.raises(ValueError):
        ReplicationConfig(replication_factor=0)
    with pytest.raises(ValueError):
        ReplicationConfig(mode="quorum")
    with pytest.raises(ValueError):
        ReplicationConfig(failover_timeout=0.0)


def test_replication_requires_sharding():
    config = ClusterConfig(
        num_nodes=2,
        replication=ReplicationConfig(enabled=True),
    )
    with pytest.raises(ValueError):
        Cluster("fwkv", config)

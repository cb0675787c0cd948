"""Per-shard primary-backup replication: substrate tests on the Cluster API.

These are the old standalone ``ReplicaGroup`` scenarios -- replicate to
every backup, apply in submission order, failover preserves committed
writes, double failover, single-copy groups, reads served only by
owners -- ported to the integrated
substrate (``repro.replication.shard`` driven through
:class:`repro.system.Cluster`), built and driven by the replication
battery's cluster (``test_replication_failover.build``) through the one
scaffold, ``tests.harness.battery``.
"""

import pytest

from repro import Cluster, ClusterConfig, ReplicationConfig
from repro.net.message import MessageType
from repro.replication import backups_for_shard

from tests.harness.battery import chain_tuples, drive
from tests.integration.test_replication_failover import (
    KEYS,
    NUM_KEYS,
    NUM_SHARDS,
    SEEDS,
    build,
)

SEED = SEEDS[0]

pytestmark = pytest.mark.replication


def bump_all(cluster, coordinators=(0, 1, 2)):
    """One read-modify-write increment per key; all must commit."""
    drive(cluster, [
        (coordinators[i % len(coordinators)], [f"k{i}"])
        for i in range(NUM_KEYS)
    ])


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def test_placement_is_deterministic_and_avoids_the_owner():
    first, _ = build(SEED)
    second, _ = build(SEED)
    assert first.replication.placement == second.replication.placement
    for shard, backups in first.replication.placement.items():
        assert len(backups) == 1  # replication_factor - 1
        assert first.directory.owner_of(shard) not in backups


def test_placement_spreads_backups_across_nodes():
    cluster, _ = build(SEED, num_nodes=4, factor=3)
    counts = {}
    for backups in cluster.replication.placement.values():
        assert len(backups) == 2
        for backup in backups:
            counts[backup] = counts.get(backup, 0) + 1
    # The rotation spreads backup shards over every node.
    assert set(counts) == set(range(4))


def test_backups_for_shard_excludes_down_nodes():
    cluster, _ = build(SEED, num_nodes=4, factor=3)
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
    cluster, _ = build(SEED)
    bump_all(cluster)
    cluster.run(until=cluster.sim.now + 5e-3)
    for key in KEYS:
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
    cluster, _ = build(SEED)
    key = "k0"
    drive(cluster, [(i % 3, [key]) for i in range(10)])
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
    cluster, _ = build(SEED)
    bump_all(cluster)
    victim = 1
    owned = list(cluster.directory.shards_of(victim))
    assert owned, "victim must own shards for the scenario to bite"

    cluster.network.crash(victim)
    cluster.run(until=cluster.sim.now + 0.1)
    assert cluster.metrics.counters["failovers_completed"] >= len(owned)
    assert not cluster.directory.shards_of(victim)

    reads = drive(cluster, [(0, [k]) for k in KEYS], read_only=True)
    assert all(values == [1] for _ok, _keys, values in reads)

    # And the cluster still accepts writes everywhere ("after failover").
    drive(cluster, [(2, [k]) for k in KEYS])


def test_double_failover():
    """Old ``test_double_failover``: two successive primary crashes with
    replication_factor=3; committed writes survive both."""
    cluster, _ = build(SEED, num_nodes=4, factor=3)
    bump_all(cluster, coordinators=(0, 1, 2, 3))

    for victim in (1, 2):
        cluster.network.crash(victim)
        cluster.run(until=cluster.sim.now + 0.1)
        assert not cluster.directory.shards_of(victim)

    reads = drive(cluster, [(0, [k]) for k in KEYS], read_only=True)
    assert all(values == [1] for _ok, _keys, values in reads)
    drive(cluster, [(3, [k]) for k in KEYS])


def test_replication_factor_one_runs_standalone():
    """Old ``test_single_replica_group_commits_immediately``: a single
    copy of every shard commits without any stream traffic."""
    cluster, _ = build(SEED, factor=1)
    bump_all(cluster)
    assert cluster.metrics.counters["replication_records_streamed"] == 0
    assert cluster.replication.placement == {
        shard: () for shard in range(NUM_SHARDS)
    }


def test_read_only_reads_go_to_the_owner():
    """Backups serve no reads: with every key backed, each read request
    of a read-only ``read`` or ``read_many`` goes to the key's owner."""
    cluster, _ = build(SEED)
    bump_all(cluster)
    sent = []

    def tap(envelope):
        if envelope.msg_type == MessageType.READ_REQUEST:
            sent.append((envelope.dst, envelope.payload.body.key))
        return 0.0

    cluster.network.delay_policy = tap
    reads = drive(
        cluster,
        [((i + 1) % 3, [f"k{i}"]) for i in range(NUM_KEYS)],
        read_only=True,
    )
    assert all(values == [1] for _ok, _keys, values in reads)

    outcome = []

    def multi_get():
        node = cluster.node(2)
        txn = node.begin(is_read_only=True)
        values = yield from node.read_many(txn, KEYS)
        ok = yield from node.commit(txn)
        outcome.append((ok, values))

    # Heartbeats never quiesce: a stepped clock, as ``drive`` runs it.
    cluster.spawn(multi_get(), name="multi-get")
    cluster.run(until=cluster.sim.now + 10e-3)
    assert outcome == [(True, {key: 1 for key in KEYS})]
    assert len(sent) == 2 * NUM_KEYS
    assert all(dst == cluster.directory.site(key) for dst, key in sent)
    assert all(cluster.replication.backups_for_key(key) for key in KEYS)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_replication_config_validates():
    with pytest.raises(ValueError):
        ReplicationConfig(replication_factor=0)
    for mode in ("quorum", "async"):
        with pytest.raises(ValueError):
            ReplicationConfig(mode=mode)
    with pytest.raises(ValueError):
        ReplicationConfig(failover_timeout=0.0)


def test_replication_requires_sharding():
    config = ClusterConfig(
        num_nodes=2,
        replication=ReplicationConfig(enabled=True),
    )
    with pytest.raises(ValueError):
        Cluster("fwkv", config)

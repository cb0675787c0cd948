"""Fixed sites: every clock stays ``num_nodes`` wide, whatever the run does.

The sites are fixed (paper Section 2.1), so the clock algebra pairs
entries up with ``zip`` and checks no width: a clock one entry short
would compare silently wrong instead of failing.  Each case runs a
cluster through one kind of event that builds, rebuilds or ships clocks
-- serialized commits, a durable crash and its WAL replay, a checkpoint
under the replayed suffix, anti-entropy closing a partition, a primary
failover, a restarted backup's re-bootstrap, a seeded mix of durable
crashes and partitions -- and then holds every node's ``siteVC``, every
stored version clock and the newest checkpoint's ``siteVC`` to exactly
``num_nodes`` entries (:func:`battery.assert_fixed_width`).
"""

import pytest

from repro import (
    DurabilityConfig,
    HealingConfig,
    ReplicationConfig,
    ShardingConfig,
)
from repro.cluster import CallableDirectory, ExplicitDirectory
from repro.cluster.directory import ShardMap
from repro.core import repair
from repro.faults import CRASH, CRASH_DURABLE, random_schedule
from repro.sim.rng import make_rng

from tests.harness import battery
from tests.harness.battery import (
    assert_fixed_width,
    assert_one_clock,
    drive,
    fault,
    heal,
    isolate,
    keys_off,
    restart,
    rmw_plan,
    run_plan,
    settle,
)
from tests.harness.oracle import assert_psi
from tests.integration import test_chaos

NUM_NODES = 4
KEYS = battery.keys(16)
VICTIM = 2
SEED = 7
PROTOCOLS = ("fwkv", "walter")


def build(protocol, **config):
    config.setdefault("directory", ShardMap(range(NUM_NODES), NUM_NODES))
    return battery.build(
        SEED, protocol, num_nodes=NUM_NODES, num_keys=len(KEYS), **config
    )


def plan(count, coordinators=range(NUM_NODES), pool=KEYS, label="fixed-sites"):
    return rmw_plan(make_rng(SEED, label), list(coordinators), count, pool)


def others():
    return [n for n in range(NUM_NODES) if n != VICTIM]


# ----------------------------------------------------------------------
# One scenario per way a clock is built, rebuilt or shipped
# ----------------------------------------------------------------------
def commits(protocol):
    """Serialized read-modify-writes from every coordinator."""
    cluster, _ = build(protocol)
    run_plan(cluster, plan(16))
    return cluster


def durable_crash(protocol):
    """The victim crashes durably, misses three commits and replays its
    WAL; catch-up repairs the Propagates it slept through."""
    cluster, nemesis = build(protocol, durability=DurabilityConfig(wal_enabled=True))
    run_plan(cluster, plan(12))
    fault(nemesis, CRASH_DURABLE, VICTIM)
    run_plan(cluster, plan(3, others(), keys_off(cluster, VICTIM, KEYS), "down"))
    window = restart(cluster, nemesis, VICTIM)
    cluster.run()
    assert window.closed and cluster.node(VICTIM).recovery.recoveries == 1
    return cluster


def checkpoint(protocol):
    """As :func:`durable_crash`, with a checkpoint under the replayed
    suffix: recovery starts from the checkpoint's ``siteVC``."""
    cluster, nemesis = build(
        protocol,
        healing=HealingConfig(),
        durability=DurabilityConfig(wal_enabled=True),
    )
    victim = cluster.node(VICTIM)
    run_plan(cluster, plan(12))
    assert victim.healing.checkpoints.checkpoint_now() is not None
    run_plan(cluster, plan(6, label="suffix"))
    fault(nemesis, CRASH_DURABLE, VICTIM)
    run_plan(cluster, plan(3, others(), keys_off(cluster, VICTIM, KEYS), "down"))
    restart(cluster, nemesis, VICTIM)
    cluster.run()
    assert victim.recovery.recoveries == 1
    return cluster


def partition_heal(protocol):
    """The victim is cut off while the others commit; anti-entropy
    closes the gap once the links mend."""
    with pytest.MonkeyPatch.context() as patch:  # read at build
        patch.setattr(repair, "REPAIR_TIMEOUT", 5e-4)
        cluster, nemesis = build(
            protocol, healing=HealingConfig(anti_entropy_interval=5e-4)
        )
    drive(cluster, plan(8))
    isolate(nemesis, VICTIM, range(NUM_NODES))
    drive(cluster, plan(4, others(), keys_off(cluster, VICTIM, KEYS), "cut"))
    heal(nemesis, VICTIM, range(NUM_NODES))
    settle(cluster)
    cluster.stop_healing()
    cluster.run()
    return cluster


def failover(protocol):
    """A primary crashes; its backups are promoted and serve the rest of
    the traffic."""
    cluster, nemesis = build(
        protocol,
        directory=None,
        sharding=ShardingConfig(enabled=True, num_shards=8),
        replication=ReplicationConfig(
            enabled=True, replication_factor=2, failover_timeout=4e-3
        ),
        healing=HealingConfig(heartbeat_interval=1e-3, anti_entropy_interval=2e-3),
    )
    drive(cluster, plan(6, others()))
    fault(nemesis, CRASH, VICTIM)
    settle(cluster)
    assert cluster.metrics.counters["failovers_completed"] > 0
    assert not cluster.directory.shards_of(VICTIM)
    drive(cluster, plan(6, others(), label="promoted"))
    cluster.stop_healing()
    cluster.run()
    return cluster


def bootstrap(protocol):
    """A backup crashes and restarts before any failover fires; the
    failover driver re-bootstraps it from each primary it backs, by
    shipment, with no ownership change."""
    cluster, nemesis = build(
        protocol,
        directory=None,
        sharding=ShardingConfig(enabled=True, num_shards=8),
        replication=ReplicationConfig(
            enabled=True, replication_factor=2, failover_timeout=50e-3
        ),
        healing=HealingConfig(heartbeat_interval=1e-3, anti_entropy_interval=2e-3),
    )
    drive(cluster, plan(6, others()))
    fault(nemesis, CRASH, VICTIM)
    drive(cluster, plan(3, others(), keys_off(cluster, VICTIM, KEYS), "down"))
    restart(cluster, nemesis, VICTIM)
    settle(cluster)
    counters = cluster.metrics.counters
    assert counters["backup_bootstraps"] > 0 and counters["failovers_completed"] == 0
    drive(cluster, plan(6, others(), label="rebooted"))
    cluster.stop_healing()
    cluster.run()
    return cluster


def durable_chaos(protocol):
    """The chaos cluster under a seeded mix of durable crash cycles and
    partition windows, its clients run to quiescence."""
    cluster, nemesis = test_chaos.build(
        protocol, SEED, durability=DurabilityConfig(wal_enabled=True)
    )
    nodes = range(test_chaos.NUM_NODES)
    nemesis.start(
        random_schedule(SEED, nodes, 2e-3, 14e-3, 3e-3, 2e-3, durable_crashes=True)
    )
    for node_id in nodes:
        for client_id in range(test_chaos.CLIENTS_PER_NODE):
            cluster.spawn(test_chaos.chaos_client(cluster, node_id, client_id, SEED))
    cluster.run()
    assert any(window.closed for window in nemesis.down_windows)
    return cluster


SCENARIOS = {
    run.__name__: run
    for run in (
        commits, durable_crash, checkpoint, partition_heal, failover,
        bootstrap, durable_chaos,
    )
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_clock_stays_num_nodes_wide(protocol, scenario):
    cluster = SCENARIOS[scenario](protocol)
    assert_fixed_width(cluster)
    if scenario != "durable_chaos":
        # A chaos run may end in the shapes the composed-faults grid
        # tabulates (Walter's here is its ("durable", "walter", 7) row,
        # "lost+lock"), so it is held to the width alone; every other
        # scenario must pass.
        assert_psi(cluster, quiescent=True)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_recovered_node_rejoins_the_one_clock(protocol):
    """The replayed ``siteVC`` is the survivors' clock, entry for entry."""
    assert_one_clock(durable_crash(protocol))


# ----------------------------------------------------------------------
# Any cluster size, any directory: the width is ``num_nodes`` from birth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_nodes", [1, 2, 3, 5])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_cluster_of_any_size_is_that_wide(protocol, num_nodes):
    cluster, _ = battery.build(SEED, protocol, num_nodes=num_nodes, num_keys=8)
    assert all(
        len(node.site_vc) == num_nodes for node in cluster.nodes
    ), "a clock must be born num_nodes wide"
    coordinators = list(range(num_nodes))
    run_plan(cluster, rmw_plan(make_rng(SEED, "sizes"), coordinators, 8, battery.keys(8)))
    assert_fixed_width(cluster)
    assert_psi(cluster, quiescent=True)


#: Every directory kind, each placing the keys on the fixed sites only.
DIRECTORIES = {
    "ring": lambda: None,
    "shards": lambda: ShardMap(range(NUM_NODES), 8),
    "explicit": lambda: ExplicitDirectory(
        {key: index % NUM_NODES for index, key in enumerate(KEYS)}
    ),
    "callable": lambda: CallableDirectory(lambda key: len(key) % NUM_NODES),
}


@pytest.mark.parametrize("kind", DIRECTORIES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_directory_kind_places_on_the_fixed_sites(protocol, kind):
    cluster, _ = build(protocol, directory=DIRECTORIES[kind]())
    assert {cluster.directory.site(key) for key in KEYS} <= set(range(NUM_NODES))
    run_plan(cluster, plan(12))
    assert_fixed_width(cluster)
    assert_psi(cluster, quiescent=True)

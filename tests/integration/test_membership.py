"""End-to-end elastic-membership suite: online join/leave under load.

The headline scenarios are the ones ISSUE 6 promised: a node joined
mid-run under live traffic serves reads that pass the PSI checkers with
zero foreground aborts; a decommissioned node's keys stay readable
throughout the drain; and three reconfiguration-chaos pairs -- a join
that rides out a directed partition between old members, a decommission
racing the view coordinator's crash, and a joiner killed mid-bootstrap
that is abandoned and later re-joined under the same id -- each
converging bit-identically to a fault-free control run.

Everything is deterministic: view-change drivers poll on fixed
``membership.ack_timeout`` ticks, healing loops draw from per-node
seeded RNG streams, and ``Simulator.run(until=...)`` lands on exact
deadlines, so a control/faulty pair executes the same transaction plan
on the same virtual-time skeleton and their per-node fingerprints
(store chains, siteVC, coordinator sequence) are comparable bit for
bit.  Scenarios with healing loops step the clock with ``run(until=...)``
and call ``stop_healing()`` before the final run-to-quiescence drain.
The scaffold is ``tests.harness.battery``; seeds come from
``MEMBERSHIP_SEEDS``.
"""

from collections import Counter

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    HealingConfig,
    RpcConfig,
    ShardingConfig,
)
from repro.cluster import (
    CallableDirectory,
    ConsistentHashDirectory,
    ExplicitDirectory,
)
from repro.faults import crash_cycle, isolate_cycle
from repro.sim.rng import make_rng

from tests.harness import battery
from tests.harness.battery import (
    assert_converges,
    assert_one_clock,
    assert_replays,
    drive,
    fingerprints,
    keys_at,
    rmw_plan,
    spawn_plan,
)
from tests.harness.oracle import assert_psi

NUM_NODES = 3
KEYS = battery.keys(24)
JOINER = NUM_NODES  # the next dense id

#: Anti-entropy gossip period for the convergence scenarios.
AE_INTERVAL = 4e-4

SEEDS = battery.seeds("MEMBERSHIP_SEEDS")

pytestmark = pytest.mark.membership


def build(seed, *, gossip=False, rpc=None, num_nodes=NUM_NODES):
    """A (by default 3-node) FW-KV cluster on the sharded directory.

    Elastic membership re-places keys through the :class:`ShardMap`,
    so this suite sets ``sharding.enabled``.  RPCs wait forever unless
    ``rpc`` arms them; ``gossip`` arms anti-entropy.
    """
    config = {"sharding": ShardingConfig(enabled=True)}
    if gossip:
        config["healing"] = HealingConfig(
            anti_entropy_interval=AE_INTERVAL, digest_timeout=5e-4
        )
    return battery.build(
        seed, num_nodes=num_nodes, num_keys=len(KEYS),
        rpc=rpc or RpcConfig(), **config,
    )


# ----------------------------------------------------------------------
# A static directory refuses a join or leave before proposing a view
# ----------------------------------------------------------------------
@pytest.mark.parametrize("change", ["add_node", "remove_node"])
@pytest.mark.parametrize("directory", [
    ConsistentHashDirectory(range(NUM_NODES)),
    ExplicitDirectory({key: 0 for key in KEYS}),
    CallableDirectory(lambda key: 0),
], ids=["ring", "explicit", "callable"])
def test_static_directory_refuses_membership_changes(directory, change):
    config = ClusterConfig(num_nodes=NUM_NODES)
    cluster = Cluster("fwkv", config, directory=directory)
    args = () if change == "add_node" else (1,)
    with pytest.raises(ValueError, match="sharding.enabled"):
        getattr(cluster, change)(*args)
    cluster.run()
    assert len(cluster.nodes) == NUM_NODES
    assert all(node.membership.view.epoch == 0 for node in cluster.nodes)


# ----------------------------------------------------------------------
# Fault-free join: live traffic, zero aborts, PSI-clean reads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_join_under_live_traffic(seed):
    """A node joined mid-run serves reads; no foreground work aborts.

    Traffic keeps committing across the whole reconfiguration window --
    prepares that land on a handoff fence park and retry at the new
    owner, they never abort -- and afterwards the joiner owns real key
    ranges and serves their latest values.
    """
    cluster, _ = build(seed)
    rng = make_rng(seed, "membership-join")
    plan = rmw_plan(rng, range(NUM_NODES), 30, KEYS)
    _, outcomes = spawn_plan(cluster, plan, settle=4e-4)
    cluster.run(until=cluster.sim.now + 2e-3)  # traffic well underway
    joined = cluster.add_node()
    cluster.run()

    assert joined.value is True
    assert len(outcomes) == len(plan) and all(ok for ok, *_ in outcomes)
    assert cluster.metrics.aborts == 0, "fault-free join must not abort"

    moved = keys_at(cluster, JOINER, KEYS)
    assert moved, "the widened ring must hand the joiner some keys"
    expected = Counter(k for _, keys in plan for k in keys)
    seen = {}

    def read_moved(txn):
        for key in moved:
            seen[key] = yield from txn.read(key)

    result = cluster.run_txn(read_moved, node=JOINER, read_only=True)
    assert result.committed
    assert seen == {k: expected[k] for k in moved}

    assert_psi(cluster, quiescent=True)

    # Propagation fan-out through the committed view converges every
    # member -- the joiner included -- on the same frontier.
    assert_one_clock(cluster)
    assert cluster.metrics.counters["joins_bootstrapped"] == 1
    # JOINING, then ACTIVE.
    assert cluster.metrics.counters["views_committed"] >= 2


# ----------------------------------------------------------------------
# Fault-free decommission: keys stay readable throughout the drain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_decommission_keys_stay_readable(seed):
    cluster, _ = build(seed)
    rng = make_rng(seed, "membership-leave")
    plan_a = rmw_plan(rng, range(NUM_NODES), 12, KEYS)
    drive(cluster, plan_a)
    counts = Counter(k for _, keys in plan_a for k in keys)

    victim = max(range(NUM_NODES), key=lambda n: len(keys_at(cluster, n, KEYS)))
    victim_keys = keys_at(cluster, victim, KEYS)
    assert victim_keys, "the keyspace must place keys at the victim"
    observer = cluster.node((victim + 1) % NUM_NODES)

    left = cluster.remove_node(victim)
    reads = []

    def reader():
        # Poll the victim's keys across the whole drain: every read
        # must commit, and the values must stay monotone.
        while not left.triggered:
            txn = observer.begin(is_read_only=True)
            values = []
            for key in victim_keys:
                values.append((yield from observer.read(txn, key)))
            ok = yield from observer.commit(txn)
            reads.append((ok, values))
            yield cluster.sim.timeout(2e-4)

    def writer():
        # One write into the drain window: it parks on the fence, votes
        # "moved" once the directory flips, and commits at the new
        # owner -- never aborts.
        yield cluster.sim.timeout(2.5e-3)
        node = cluster.node((victim + 1) % NUM_NODES)
        txn = node.begin(is_read_only=False)
        value = yield from node.read(txn, victim_keys[0])
        node.write(txn, victim_keys[0], value + 1)
        ok = yield from node.commit(txn)
        reads.append(("writer", [ok]))

    cluster.spawn(reader(), name="drain-reader")
    cluster.spawn(writer(), name="drain-writer")
    cluster.run()

    assert left.value is True
    assert cluster.metrics.aborts == 0, "fault-free drain must not abort"
    writer_rows = [row for row in reads if row[0] == "writer"]
    assert writer_rows == [("writer", [True])]
    observed = [row for row in reads if row[0] != "writer"]
    assert observed, "the reader never ran during the drain"
    want = [counts[k] for k in victim_keys]
    bumped = [
        counts[k] + (1 if k == victim_keys[0] else 0) for k in victim_keys
    ]
    previous = None
    for ok, values in observed:
        assert ok, "a read during the drain aborted"
        assert values in (want, bumped) or all(
            w <= v <= b for v, w, b in zip(values, want, bumped)
        )
        if previous is not None:
            assert all(v >= p for v, p in zip(values, previous))
        previous = values

    # Ownership moved off the victim and the data moved with it.
    assert all(cluster.directory.site(k) != victim for k in victim_keys)
    for key in victim_keys:
        assert key in cluster.node(cluster.directory.site(key)).store.keys()
    assert cluster.metrics.counters["drains_completed"] == 1


# ----------------------------------------------------------------------
# Churn at the top of the clock: retire the highest id, join a fresh one
# past it, rejoin the retired id -- clocks only widen
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_top_id_leave_fresh_join_rejoin_under_live_traffic(seed):
    """The retired top id keeps its clock entry through the whole churn.

    Node 3 -- the highest id, the one whose entry a width rule could
    ever cut -- commits, leaves, is overtaken by a fresh id 4 and
    rejoins, all under read-modify-write and read-only traffic.  Its
    entry stays at its final frontier while it is away (versions it
    wrote stay comparable under every snapshot) and moves on from there
    once it is back; nothing aborts and every snapshot stays PSI-clean.
    """
    top, fresh = 3, 4
    cluster, _ = build(seed, num_nodes=top + 1)
    rng = make_rng(seed, "membership-churn")
    plan = rmw_plan(rng, [top, 0, top, 1, top, 2], 12, KEYS)
    drive(cluster, plan)
    frontier = cluster.node(top).curr_seq_no
    assert frontier > 0, "the top id must have coordinated commits"

    snapshots, steps, marks = [], [], []

    def churn():
        for step in (
            lambda: cluster.remove_node(top),
            lambda: cluster.add_node(),
            lambda: cluster.add_node(top),
        ):
            steps.append((yield step()))
            marks.append((len(outcomes), len(snapshots)))
            # Away or back, the retired origin's entry is never cut.
            assert cluster.node(0).site_vc[top] == frontier

    churning = cluster.spawn(churn(), name="churn")

    def live_plan():
        # Survivors only: a draining member must not mint new commits.
        while not churning.triggered:
            plan.extend(rmw_plan(rng, [0, 1, 2], 1, KEYS))
            yield plan[-1]

    _, outcomes = spawn_plan(cluster, live_plan(), settle=4e-4)

    def reader():
        reads = make_rng(seed, "membership-churn-reads")
        while not churning.triggered:
            node = cluster.node(reads.randrange(3))
            txn = node.begin(is_read_only=True)
            for key in reads.sample(KEYS, 3):
                yield from node.read(txn, key)
            snapshots.append((yield from node.commit(txn)))
            yield cluster.sim.timeout(3e-4)

    cluster.spawn(reader(), name="churn-reader")
    cluster.run()
    assert steps == [True, True, True]
    # Both kinds of traffic landed inside every one of the three steps.
    for (w0, r0), (w1, r1) in zip([(0, 0)] + marks, marks):
        assert w1 > w0 and r1 > r0
    assert all(ok for ok, *_ in outcomes) and all(snapshots)

    after = rmw_plan(rng, [top, fresh], 8, KEYS)
    drive(cluster, after)
    plan += after
    assert cluster.metrics.aborts == 0, "fault-free churn must not abort"

    expected = Counter(k for _, keys in plan for k in keys)
    seen = {}

    def read_all(txn):
        for key in KEYS:
            seen[key] = yield from txn.read(key)

    assert cluster.run_txn(read_all, node=fresh, read_only=True).committed
    assert seen == {k: expected[k] for k in KEYS}

    assert_psi(cluster, quiescent=True)

    clocks = {n.site_vc.to_tuple() for n in cluster.nodes}
    assert len(clocks) == 1
    (clock,) = clocks
    assert len(clock) == fresh + 1
    assert clock[top] == frontier + sum(1 for c, _ in after if c == top)


# ----------------------------------------------------------------------
# Chaos pair 1: join rides out a directed partition between old members
# ----------------------------------------------------------------------
def run_partitioned_join(seed, *, faulty):
    """Join while the proposer is cut off from a peer, or the control.

    The partition window (5 ms) is shorter than the view driver's retry
    budget (``max_attempts * ack_timeout`` = 10 ms), so the JOINING
    proposal fails its first rounds and succeeds after the heal -- the
    join completes in both runs and must converge identically.
    """
    cluster, nemesis = build(seed, gossip=True)
    rng = make_rng(seed, "membership-partition")
    drive(cluster, rmw_plan(rng, range(NUM_NODES), 12, KEYS))
    cluster.start_healing()
    t0 = cluster.sim.now
    if faulty:
        nemesis.start(isolate_cycle(1, [0], t0, 5e-3))
    joined = cluster.add_node()
    cluster.run(until=t0 + 40e-3)
    assert joined.triggered, "join driver did not finish in its window"
    assert joined.value is True

    drive(cluster, rmw_plan(rng, range(NUM_NODES + 1), 8, KEYS))
    cluster.run(until=cluster.sim.now + 10 * AE_INTERVAL)
    cluster.stop_healing()
    cluster.run()
    assert_one_clock(cluster)
    return fingerprints(cluster)


@pytest.mark.parametrize("seed", SEEDS)
def test_join_during_directed_partition_converges(seed):
    assert_converges(run_partitioned_join, seed)


# ----------------------------------------------------------------------
# Chaos pair 2: decommission racing the view coordinator's crash
# ----------------------------------------------------------------------
def run_decommission_coordinator_crash(seed, *, faulty):
    """Decommission while the would-be view coordinator is down.

    Node 0 -- the lowest ACTIVE member, hence the default proposer --
    is crashed when the DRAINING view is first driven, so the driver
    routes the proposal through node 1; node 0 restarts inside the ack
    window, joins the retry round, and re-learns the views from the
    commit fan-out.  The control run executes the same timeline with
    node 0 up throughout.
    """
    cluster, nemesis = build(seed, gossip=True)
    rng = make_rng(seed, "membership-crash")
    drive(cluster, rmw_plan(rng, range(NUM_NODES), 12, KEYS))
    cluster.start_healing()
    victim = NUM_NODES - 1
    victim_keys = keys_at(cluster, victim, KEYS)
    assert victim_keys, "the keyspace must place keys at the victim"
    t0 = cluster.sim.now
    if faulty:
        nemesis.start(crash_cycle(0, t0, 1.5e-3))
    cluster.run(until=t0 + 2e-4)  # the crash lands before the proposal
    left = cluster.remove_node(victim)
    cluster.run(until=t0 + 40e-3)
    assert left.triggered, "leave driver did not finish in its window"
    assert left.value is True

    survivors = [n for n in range(NUM_NODES) if n != victim]
    drive(cluster, rmw_plan(rng, survivors, 8, KEYS))
    cluster.run(until=cluster.sim.now + 10 * AE_INTERVAL)
    cluster.stop_healing()
    cluster.run()
    for key in victim_keys:
        assert cluster.directory.site(key) != victim
    assert_one_clock(cluster, survivors)
    return fingerprints(cluster)


@pytest.mark.parametrize("seed", SEEDS)
def test_decommission_racing_coordinator_crash_converges(seed):
    assert_converges(run_decommission_coordinator_crash, seed)


# ----------------------------------------------------------------------
# Chaos pair 3: joiner killed mid-bootstrap, abandoned, re-joined
# ----------------------------------------------------------------------
def run_join_crash_rejoin(seed, *, faulty):
    """Kill the joiner mid-bootstrap, then re-join it under the same id.

    The driver abandons the first join (process value False, a
    member-removal view, no directory flip); after the restart the same
    id is re-added and must end bit-identical to a control that only
    ever performed the second, clean join on the same timeline.
    """
    rpc = RpcConfig(request_timeout=1.5e-3, max_attempts=3)
    cluster, nemesis = build(seed, rpc=rpc)
    battery.slow_shipments(cluster)
    rng = make_rng(seed, "membership-rejoin")
    drive(cluster, rmw_plan(rng, range(NUM_NODES), 12, KEYS))
    t0 = cluster.sim.now
    if faulty:
        # The join driver commits the JOINING view at ~2 ms, detects the
        # joiner's apply on its next 2 ms poll, and runs the bootstrap
        # worker (frontier collection + shard handoff) from ~4.0 ms; the
        # crash lands inside that window, mid-handoff, so the in-flight
        # shipment settles against a dead peer and the driver must
        # abandon.
        nemesis.start(crash_cycle(JOINER, t0 + 4.15e-3, 15.85e-3))
        first = cluster.add_node()
        cluster.run(until=t0 + 22e-3)
        assert first.triggered, "abandonment did not finish in its window"
        assert first.value is False
        assert all(
            cluster.directory.site(k) != JOINER for k in KEYS
        ), "an abandoned joiner must not keep ownership"
    else:
        cluster.run(until=t0 + 22e-3)
    second = cluster.add_node(JOINER)
    cluster.run(until=t0 + 40e-3)
    assert second.triggered, "join driver did not finish in its window"
    assert second.value is True

    drive(cluster, rmw_plan(rng, range(NUM_NODES + 1), 8, KEYS))
    cluster.run()
    assert_one_clock(cluster)
    return fingerprints(cluster)


@pytest.mark.parametrize("seed", SEEDS)
def test_joiner_killed_mid_bootstrap_then_rejoined(seed):
    assert_converges(run_join_crash_rejoin, seed)


def test_reconfiguration_is_deterministic():
    """The most eventful scenario replays bit-identically."""
    assert_replays(run_join_crash_rejoin, SEEDS[0])


# ----------------------------------------------------------------------
# Observability: counters and trace kinds
# ----------------------------------------------------------------------
def test_membership_counters_and_traces_surface():
    """The membership counters count, add up from the trace, and the
    reconfiguration trace kinds are emitted."""
    cluster, _ = build(SEEDS[0])
    cluster.tracer.enable()
    drive(cluster, [(0, ["k0", "k1"]), (1, ["k2", "k3"])])
    joined = cluster.add_node()
    cluster.run()
    left = cluster.remove_node(1)
    cluster.run()
    assert joined.value is True and left.value is True

    summary = cluster.metrics.summary()
    battery.assert_counters_add_up(cluster)
    assert summary["views_committed"] >= 4  # JOINING/ACTIVE + DRAINING/removal
    assert summary["joins_bootstrapped"] == 1
    assert summary["drains_completed"] == 1

    assert cluster.tracer.of_kind("join_complete")
    assert cluster.tracer.of_kind("shard_shipped")
    assert cluster.tracer.of_kind("join_abandoned") == []

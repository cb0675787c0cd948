"""End-to-end keyspace-sharding suite: live shard migration under load.

The headline scenarios are the ones ISSUE 8 promised: a shard migrated
between live nodes under foreground PSI traffic completes with zero
aborts, checker-clean reads, and a final *authoritative* fingerprint --
every key's chain at its current owner -- bit-identical to a run that
never migrated; three migration-nemesis pairs (donor crashed
mid-shipment, recipient crashed before the flip, donor-recipient
partition across the cutover) each leave ownership and state untouched
and converge bit-identically to a fault-free control; and under s=1.1
Zipfian skew the rebalancer's planner brings max/mean per-node load
under a bound the static consistent-hash ring provably exceeds.

Determinism mirrors the membership suite: serialized traffic with
settle pauses keeps per-key install order identical across paired runs,
so store chains, commit clocks, and sequence numbers are comparable bit
for bit even though a migration shifts event timings; the scaffold is
``tests.harness.battery``.  Seeds come from ``SHARDING_SEEDS``.
"""

from collections import Counter

import pytest

from repro import RpcConfig, ShardingConfig
from repro.cluster.directory import ConsistentHashDirectory, ShardMap
from repro.cluster.rebalancer import MIN_SAMPLES, plan_moves
from repro.faults import crash_cycle, partition_cycle
from repro.cluster.handoff import Shipments
from repro.sim.rng import make_rng
from repro.workloads import ZipfKeyGenerator

from tests.harness import battery
from tests.harness.battery import (
    assert_converges,
    assert_one_clock,
    assert_replays,
    authoritative_fingerprint,
    drive,
    fingerprints,
    rmw_plan,
    spawn_plan,
)
from tests.harness.oracle import assert_psi

NUM_NODES = 3
KEYS = battery.keys(24)
NUM_SHARDS = 12
SEEDS = battery.seeds("SHARDING_SEEDS")

pytestmark = pytest.mark.sharding


def build(seed, *, rpc=None, rebalance_interval=None, **config):
    """A 3-node FW-KV cluster on a 12-shard ShardMap directory; RPCs wait
    forever unless ``rpc`` arms them."""
    return battery.build(
        seed,
        num_nodes=NUM_NODES,
        num_keys=len(KEYS),
        rpc=rpc or RpcConfig(),
        **config,
        sharding=ShardingConfig(
            enabled=True, num_shards=NUM_SHARDS,
            rebalance_interval=rebalance_interval,
        ),
    )


def migration_target(cluster):
    """The loaded shard with the most keys, its owner, and a recipient."""
    shard_map = cluster.directory
    counts = Counter(shard_map.shard_of(k) for k in KEYS)
    shard = max(counts, key=lambda s: (counts[s], -s))
    donor = shard_map.owner_of(shard)
    dest = next(n for n in shard_map.node_ids if n != donor)
    return shard, donor, dest


# ----------------------------------------------------------------------
# Fault-free live migration: zero aborts, bit-identical to no-migration
# ----------------------------------------------------------------------
def run_live_migration(seed, *, migrate):
    """Concurrent PSI traffic with (or without) one live shard migration."""
    cluster, _ = build(seed)
    shard, donor, dest = migration_target(cluster)
    rng = make_rng(seed, "sharding-live")
    plan = rmw_plan(rng, range(NUM_NODES), 30, KEYS)
    _, outcomes = spawn_plan(cluster, plan, settle=4e-4)
    cluster.run(until=cluster.sim.now + 2e-3)  # traffic well underway
    if migrate:
        moved = cluster.rebalancer.migrate_shard(shard, dest)
    cluster.run()

    assert len(outcomes) == len(plan) and all(ok for ok, *_ in outcomes)
    assert cluster.metrics.aborts == 0, "a live migration must not abort"
    # Quiescent: every lock was reclaimed, and the migration's write-lock
    # drain peeked at the moved keys without materialising one per key.
    assert all(not node.locks._locks for node in cluster.nodes)
    if migrate:
        assert moved.value is True
        assert cluster.directory.owner_of(shard) == dest
        assert cluster.directory.epoch == 1
        assert cluster.metrics.counters["shard_migrations"] == 1

    assert_psi(cluster, quiescent=True)
    assert_one_clock(cluster)
    return {
        "authoritative": authoritative_fingerprint(cluster, KEYS),
        "plan_counts": Counter(k for _, keys in plan for k in keys),
        "cluster": cluster,
        "shard": shard,
        "dest": dest,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_migration_under_live_traffic(seed):
    """The tentpole acceptance scenario: a shard moves under live PSI
    traffic with zero foreground aborts and keys readable throughout,
    and the served state is bit-identical to a no-migration control."""
    migrated = run_live_migration(seed, migrate=True)
    control = run_live_migration(seed, migrate=False)
    assert migrated["authoritative"] == control["authoritative"]

    # The moved keys are served by the new owner with their latest values.
    cluster = migrated["cluster"]
    shard_map = cluster.directory
    moved = [k for k in KEYS if shard_map.shard_of(k) == migrated["shard"]]
    assert moved, "the chosen shard must hold keys"
    seen = {}

    def read_moved(txn):
        for key in moved:
            seen[key] = yield from txn.read(key)

    result = cluster.run_txn(read_moved, node=migrated["dest"], read_only=True)
    assert result.committed
    assert seen == {k: migrated["plan_counts"][k] for k in moved}


# ----------------------------------------------------------------------
# Migration-nemesis pairs: donor crash, recipient crash, partition
# ----------------------------------------------------------------------
def run_migration_chaos(seed, *, faulty, fault):
    """One faulted migration attempt, then the same clean migration.

    ``fault`` is ``"donor"``, ``"recipient"`` or ``"partition"``.  Every
    shipment spends 0.6 ms on the wire (:func:`battery.slow_shipments`),
    and the faulty run launches the migration at ``t0`` with the fault
    landing while its shipment is in flight; the shipment settles against
    the dead link, the rebalancer unfences without flipping, and ownership,
    chains, and foreground traffic are untouched.  Both runs then
    perform the identical clean migration on the same timeline and must
    end bit-identical per node.
    """
    cluster, nemesis = build(
        seed,
        rpc=RpcConfig(request_timeout=1.5e-3, max_attempts=3),
    )
    battery.slow_shipments(cluster)
    shard_map = cluster.directory
    rng = make_rng(seed, "sharding-chaos")
    drive(cluster, rmw_plan(rng, range(NUM_NODES), 12, KEYS))
    shard, donor, dest = migration_target(cluster)
    t0 = cluster.sim.now
    if faulty:
        # Down longer than the shipment's full RPC retry ladder, so the
        # transfer cannot sneak through after an early heal.
        at, down_for = t0 + 1.5e-4, 15e-3
        nemesis.start({
            "donor": crash_cycle(donor, at, down_for),
            "recipient": crash_cycle(dest, at, down_for),
            "partition": partition_cycle(donor, dest, at, down_for),
        }[fault])
        first = cluster.rebalancer.migrate_shard(shard, dest)
        cluster.run(until=t0 + 20e-3)
        assert first.triggered, "faulted migration did not settle"
        assert first.value is False
        assert shard_map.owner_of(shard) == donor, (
            "a failed migration must not flip ownership"
        )
        assert shard_map.epoch == 0
        assert cluster.metrics.counters["shard_migrations_failed"] == 1
        assert not cluster.node(donor).fence.shards, (
            "a failed migration must unfence"
        )
    else:
        cluster.run(until=t0 + 20e-3)
    second = cluster.rebalancer.migrate_shard(shard, dest)
    cluster.run(until=t0 + 30e-3)
    assert second.triggered and second.value is True
    assert shard_map.owner_of(shard) == dest

    drive(cluster, rmw_plan(rng, range(NUM_NODES), 8, KEYS))
    cluster.run()
    assert cluster.metrics.aborts == 0
    assert cluster.metrics.counters["shard_migrations"] == 1
    assert_one_clock(cluster)
    return fingerprints(cluster)


@pytest.mark.parametrize("seed", SEEDS)
def test_donor_crash_mid_stream_converges(seed):
    assert_converges(run_migration_chaos, seed, fault="donor")


@pytest.mark.parametrize("seed", SEEDS)
def test_recipient_crash_before_flip_converges(seed):
    assert_converges(run_migration_chaos, seed, fault="recipient")


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_during_cutover_converges(seed):
    assert_converges(run_migration_chaos, seed, fault="partition")


def test_migration_nemesis_is_deterministic():
    """The most eventful scenario replays bit-identically."""
    assert_replays(run_migration_chaos, SEEDS[0], fault="donor")


# ----------------------------------------------------------------------
# Skew: the rebalancer flattens s=1.1 Zipf load the static ring cannot
# ----------------------------------------------------------------------
SKEW_BOUND = 1.25


@pytest.mark.parametrize("seed", SEEDS)
def test_rebalancer_beats_static_ring_under_zipf_skew(seed):
    """Under s=1.1 skew, ``plan_moves`` brings max/mean per-node load
    under a bound the static consistent-hash ring provably exceeds.

    Same planner the live rebalancer runs, fed by the same kind of
    per-shard counters -- so this regression gates the production code
    path, not a test-local reimplementation.  (Empirically the ring
    lands around 1.7x mean and the plan around 1.02x; 1.25 splits them
    with wide margins on both sides across the CI seed matrix.)
    """
    nodes, num_keys, num_shards, draws = 4, 512, 128, 20_000
    keys = [f"u{i}" for i in range(num_keys)]
    generator = ZipfKeyGenerator(num_keys, s=1.1)
    rng = make_rng(seed, "zipf-skew")
    counts = Counter(generator.next(rng) for _ in range(draws))
    mean = draws / nodes

    ring = ConsistentHashDirectory(list(range(nodes)))
    static_load = Counter()
    for index, count in counts.items():
        static_load[ring.site(keys[index])] += count
    static_ratio = max(static_load.values()) / mean

    shard_map = ShardMap(list(range(nodes)), num_shards)
    shard_loads = Counter()
    for index, count in counts.items():
        shard_loads[shard_map.shard_of(keys[index])] += count
    moves = plan_moves(
        dict(shard_loads),
        shard_map.owners(),
        shard_map.node_ids,
        threshold=1.02,
        max_moves=64,
    )
    assert moves, "skewed load must trigger rebalancing moves"
    for shard, dest in moves:
        shard_map.assign(shard, dest)
    rebalanced_load = Counter()
    for index, count in counts.items():
        rebalanced_load[shard_map.site(keys[index])] += count
    rebalanced_ratio = max(rebalanced_load.values()) / mean

    assert static_ratio > SKEW_BOUND, (
        f"static ring unexpectedly balanced: {static_ratio:.3f}"
    )
    assert rebalanced_ratio < SKEW_BOUND, (
        f"rebalancer left imbalance: {rebalanced_ratio:.3f}"
    )


@pytest.mark.parametrize("background", [False, True])
def test_rebalance_once_moves_hot_shard_under_live_skew(background):
    """The live metrics-driven path: skewed traffic populates the
    per-shard counters, and one ``rebalance_once`` pass -- driven
    explicitly, or by the ``rebalance_interval`` background loop --
    migrates load off the hottest node."""
    seed = SEEDS[0]
    cluster, _ = build(seed, rebalance_interval=1e-3 if background else None)
    shard_map = cluster.directory
    # Pin all the traffic on two loaded shards of one node, so the hot
    # node's load is divisible and a single shard move must improve it
    # (two hot shards on different nodes would be irreducible: moving
    # either only relocates the hotspot, and the planner refuses).
    hot_owner = 0
    hot_shards = [
        s
        for s in shard_map.shards_of(hot_owner)
        if any(shard_map.shard_of(k) == s for k in KEYS)
    ][:2]
    assert len(hot_shards) == 2
    hot = [
        next(k for k in KEYS if shard_map.shard_of(k) == s)
        for s in hot_shards
    ]
    plan = [(n % NUM_NODES, list(hot)) for n in range(20)]
    drive(cluster, plan)

    if background:
        # The constructor started the loop: it planned alongside the
        # traffic, once per period.
        cluster.stop_healing()
        cluster.run()
        assert cluster.metrics.counters["rebalance_rounds"] > 1
    else:
        # Below MIN_SAMPLES the planner would not trust the signal.
        assert sum(cluster.metrics.shard_loads.values()) >= MIN_SAMPLES
        done = None

        def driver():
            nonlocal done
            done = yield from cluster.rebalancer.rebalance_once()

        cluster.spawn(driver(), name="rebalance")
        cluster.run()
        assert done == 1
    assert cluster.metrics.counters["shard_migrations"] == 1
    shard, src, dst = cluster.rebalancer.migrations[0]
    assert src == hot_owner, "the hottest node must shed the shard"
    assert shard_map.owner_of(shard) == dst
    assert cluster.metrics.aborts == 0


# ----------------------------------------------------------------------
# Elastic membership on a sharded cluster
# ----------------------------------------------------------------------
def test_join_and_decommission_on_sharded_cluster():
    """The membership drivers work through ShardMap's incremental ops:
    a joiner inherits whole shards, a decommissioned node hands its
    shards off, and no lookup ever lands on the retired member."""
    seed = SEEDS[0]
    cluster, _ = build(seed)
    shard_map = cluster.directory
    rng = make_rng(seed, "sharding-membership")
    drive(cluster, rmw_plan(rng, range(NUM_NODES), 8, KEYS))

    joined = cluster.add_node()
    cluster.run()
    assert joined.value is True
    joiner = NUM_NODES
    assert shard_map.shards_of(joiner), "the joiner must own shards"
    assert all(
        cluster.directory.site(k) in shard_map.node_ids for k in KEYS
    )

    victim = 0
    left = cluster.remove_node(victim)
    cluster.run()
    assert left.value is True
    assert victim in shard_map.retired
    assert not shard_map.shards_of(victim)
    assert all(cluster.directory.site(k) != victim for k in KEYS)
    for key in KEYS:
        assert key in cluster.node(cluster.directory.site(key)).store.keys()
    assert cluster.metrics.aborts == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_join_then_leave_beside_the_rebalance_loop(seed):
    """The rebalance loop keeps moving load off a hot node while a node
    joins and the hot node leaves: every cutover checks at flip time
    that its donors still own their shards, so both changes complete
    and the run is PSI-clean at quiescence."""
    cluster, _ = build(seed, rebalance_interval=1e-3)
    shard_map = cluster.directory
    hot = [k for k in KEYS if shard_map.site(k) == 0]
    rng = make_rng(seed, "sharding-composition")
    plan = rmw_plan(rng, range(NUM_NODES), 60, hot[:4] + KEYS[:4])
    _, outcomes = spawn_plan(cluster, plan, settle=2e-4)
    steps = []

    def churn():
        yield cluster.sim.timeout(3e-3)
        steps.append((yield cluster.add_node()))
        steps.append((yield cluster.remove_node(0)))

    churning = cluster.spawn(churn(), name="churn")
    while not churning.triggered or len(outcomes) < len(plan):
        cluster.run(until=cluster.sim.now + 5e-3)
    cluster.stop_healing()
    cluster.run()
    assert steps == [True, True]
    assert all(ok for ok, *_ in outcomes)
    assert cluster.metrics.counters["shard_migrations"] >= 1
    assert not shard_map.shards_of(0) and 0 in shard_map.retired
    assert_psi(cluster, quiescent=True)


# ----------------------------------------------------------------------
# Observability: counters and trace kinds
# ----------------------------------------------------------------------
def test_sharding_counters_and_traces_surface():
    """The sharding counters count, add up from the trace, and the
    migration trace kinds are emitted."""
    cluster, _ = build(SEEDS[0])
    cluster.tracer.enable()
    drive(cluster, [(0, ["k0", "k1"]), (1, ["k2", "k3"])])
    shard, donor, dest = migration_target(cluster)
    moved = cluster.rebalancer.migrate_shard(shard, dest)
    cluster.run()
    assert moved.value is True

    summary = cluster.metrics.summary()
    battery.assert_counters_add_up(cluster)
    assert summary["shard_migrations"] == 1
    assert summary["shard_migration_keys"] >= 1
    assert summary["shard_migrations_failed"] == 0
    assert cluster.metrics.shard_loads, "load tracking must be armed"

    assert cluster.tracer.of_kind("shard_migrate_start")


# ----------------------------------------------------------------------
# Composition: the hot key is handed off with transactions in line
# ----------------------------------------------------------------------
def test_a_hot_key_handed_off_mid_queue_drains_its_old_line_by_lease():
    """FW-KV's line (DESIGN.md 4) stays behind when its key moves: the
    head's prepare parks on the fence, answers "moved" and re-prepares at
    the new owner; each waiter is then served the donor's stale copy,
    prepares elsewhere and never comes back, so its place is taken back by
    lease; its retry stands in line at the new owner.  No update is lost."""
    cluster, _ = build(SEEDS[0])
    cluster.tracer.enable()
    shard, donor, dest = migration_target(cluster)
    hot = next(k for k in KEYS if cluster.directory.shard_of(k) == shard)
    attempts = []

    def contender(node_id, delay):
        """``client_loop``'s retry rule: the lost key first, in line."""
        node = cluster.node(node_id)
        yield cluster.sim.timeout(delay)
        queue = True
        for attempt in range(1, 9):
            txn = node.begin(is_read_only=False)
            value = yield from node.read(txn, hot, queue=queue)
            node.write(txn, hot, value + 1)
            if (yield from node.commit(txn)):
                attempts.append(attempt)
                return
            queue = txn.lost_key is not None
            yield cluster.sim.timeout(100e-6)

    # The head's prepare (~70 us in) finds the fence up (40 us - ~130 us).
    # All five coordinate from the third node: a waiter co-located with
    # the new owner would prepare inline, ahead of the head's second round.
    other = next(n for n in range(NUM_NODES) if n not in (donor, dest))
    for index in range(5):
        cluster.spawn(contender(other, index * 2e-6))
    cluster.run(until=40e-6)
    assert cluster.node(donor).line.lock_for(hot).queue_length == 4
    moved = cluster.rebalancer.migrate_shard(shard, dest)
    cluster.run()

    assert moved.value is True and cluster.directory.site(hot) == dest
    # The head read at the donor and, told "moved", prepared at the new
    # owner within the same attempt, in a second round.
    head = cluster.tracer.of_kind("read")[0]
    assert head.details["site"] == donor
    retries = cluster.tracer.of_kind("moved_retry")
    assert [r.details for r in retries] == [{"txn": head.details["txn"], "round": 1}]
    assert [
        record.node for record in cluster.tracer.of_kind("prepare")
        if record.details["txn"] == head.details["txn"]
    ] == [dest]
    # The head committed through its moved-retry; the four behind it each
    # lost once to the donor's stale copy, then queued at the new owner.
    assert sorted(attempts) == [1, 2, 2, 2, 2]
    assert cluster.metrics.aborts_by_reason == {"validation": 4}
    assert cluster.metrics.counters["places_expired"] == 4
    assert cluster.node(dest).store.chain(hot).latest.value == 5
    assert cluster.node(donor).store.chain(hot).latest.value == 0
    assert all(not node.line._locks for node in cluster.nodes)
    assert_psi(cluster, quiescent=True)


# ----------------------------------------------------------------------
# Acknowledged writes across a cutover: the write lands where the key
# ends up, whatever reaches the donor while its shard moves
# ----------------------------------------------------------------------
#: Shard 0 holds ``k1`` and ``k10`` at node 0; each case moves it to 1.
CUTOVER_SEED, SHARD, DONOR, DEST = 7, 0, 0, 1


def hook_shipment(monkeypatch, *, start=None, done=None, hold=0.0):
    """Call ``start()`` as the donor starts shipping the shard, or
    ``done()`` once it shipped -- then hold the cutover ``hold`` s."""
    ship = Shipments.ship

    def hooked(shipments, peer, keys, incarnation):
        ours = (shipments.node_id, peer) == (DONOR, DEST)
        if ours and start:
            start()
        shipped = yield from ship(shipments, peer, keys, incarnation)
        if ours and shipped and done:
            done()
            yield shipments.sim.timeout(hold)
        return shipped

    monkeypatch.setattr(Shipments, "ship", hooked)


def migrate_with(monkeypatch, write_key, when, hold=0.0):
    """The cluster at ``CUTOVER_SEED``, with a write of ``write_key`` --
    coordinated by the third node -- hooked to the shipment's ``when``
    ("start" or "done")."""
    cluster, _ = build(CUTOVER_SEED)
    shard_map = cluster.directory
    assert {k for k in KEYS if shard_map.shard_of(k) == SHARD} == {"k1", "k10"}
    assert shard_map.owner_of(SHARD) == DONOR
    acked = []

    def write():
        node = cluster.node(2)
        txn = node.begin(is_read_only=False)
        node.write(txn, write_key, 999)
        acked.append((yield from node.commit(txn)))

    hook_shipment(monkeypatch, **{when: lambda: cluster.spawn(write())}, hold=hold)
    return cluster, acked


def assert_kept_at_final_owner(cluster, key, acked, moved):
    cluster.run()
    assert moved.value is True and acked == [True]
    seen = {}

    def read(txn):
        seen[key] = yield from txn.read(key)

    assert cluster.run_txn(read, read_only=True) and seen == {key: 999}
    assert_psi(cluster, quiescent=True)


def test_a_view_commit_mid_migration_keeps_the_migrations_fence(monkeypatch):
    """A join's JOINING view commits while the migration's drain waits on
    ``k1``'s lock: the fence stays up, so a write of ``k10`` started as
    shipping begins parks, hears "moved" and commits at the new owner."""
    cluster, acked = migrate_with(monkeypatch, "k10", "start")
    lock = cluster.node(DONOR).locks.lock_for("k1")
    assert lock.acquire_write("in-flight").triggered
    cluster.sim.call_later(3e-3, lock.release, "in-flight")
    moved = cluster.rebalancer.migrate_shard(SHARD, DEST)
    joined = cluster.add_node()
    assert_kept_at_final_owner(cluster, "k10", acked, moved)
    assert joined.value is True


def test_a_key_first_written_mid_migration_is_fenced_with_its_shard(monkeypatch):
    fresh = next(
        f"new{i}" for i in range(100)
        if ShardMap(range(NUM_NODES), NUM_SHARDS).shard_of(f"new{i}") == SHARD
    )
    cluster, acked = migrate_with(monkeypatch, fresh, "start")
    moved = cluster.rebalancer.migrate_shard(SHARD, DEST)
    assert_kept_at_final_owner(cluster, fresh, acked, moved)


def test_a_prepare_landing_after_the_unfence_rechecks_ownership(monkeypatch):
    """The write routes to the donor just before the flip and its Prepare
    arrives after the unfence: the flipped directory (epoch 1) makes the
    donor re-check ownership and answer "moved"."""
    cluster, acked = migrate_with(monkeypatch, "k10", "done", hold=15e-6)
    moved = cluster.rebalancer.migrate_shard(SHARD, DEST)
    assert_kept_at_final_owner(cluster, "k10", acked, moved)


def test_a_reader_at_the_donor_is_known_to_the_new_owners_writer():
    """A read-only transaction reads ``k10`` at the donor, the shard
    moves, and a writer of ``k10`` and ``k2`` commits at the new owners:
    the donor's visible reads went with the cutover, so the writer
    collects the reader, and the reader's later ``k2`` read skips it."""
    cluster, _ = build(CUTOVER_SEED)
    reader = cluster.node(2)
    txn = reader.begin(is_read_only=True)
    assert cluster.run_process(reader.read(txn, "k10")) == 0
    moved = cluster.rebalancer.migrate_shard(SHARD, DEST)
    cluster.run()
    assert moved.value is True
    assert cluster.run_txn(
        lambda w: [w.write("k10", 999), w.write("k2", 999)], node=DEST
    )
    assert cluster.run_process(reader.read(txn, "k2")) == 0
    cluster.run_process(reader.commit(txn))
    assert_psi(cluster, quiescent=True)

"""Replication chaos battery: failover pairs bit-identical to controls.

The headline scenarios, each run as a control/faulty pair under the one
oracle (no acknowledged write lost included):

* a primary crashed *mid-commit* (at its own prepare trace point, after
  the staged write has replicated but before its vote reaches the
  coordinator) loses zero acked commits and aborts nothing -- the racing
  commit parks, waits out the failover, and re-prepares against the
  promoted backup;
* a partition between a primary and its backup degrades sync-mode
  commits to async (counted, never blocking) without tricking a
  majority into a spurious failover, and the stream retransmits the
  backlog bit-verbatim after the heal;
* a backup crash-cycled across its own resync window closes and
  re-bootstraps its streams without disturbing foreground traffic;
* a double failure (a primary, then the freshest backup that had just
  been promoted in its place) with replication_factor=3 keeps every key
  writable and readable throughout;
* read-only multi-gets keep flowing while a dead owner's shards promote:
  every per-key read that timed out retries at the promoted owner, with
  the oracle green;
* a *coordinator* crashed between its decision record's acknowledgement
  and the delivery of any Decide (the stream contract S1-S3 of DESIGN.md
  5.10): the decision sits on ``rf - 1`` decision homes plus the backups
  of the own shards written, promotion merges it from whichever live
  nodes hold it and re-announces it once -- remote-only writeset, own
  shard backed by a non-home, the home re-bootstrapped or replaced
  between two commits, and rf=3 losing the coordinator with one home.

Fingerprints compare the *authoritative* state -- every key's chain at
its current directory owner -- because failover intentionally moves
ownership; version stamps are coordinator-assigned ``(origin, seq)``
pairs, so excluding the crash victims from coordinating (in both runs
of a pair) keeps the surviving chains bit-comparable.  Serialized
traffic with settle pauses keeps install order identical across paired
runs; the scaffold is
``tests.harness.battery``.  Seeds come from ``REPLICATION_SEEDS``.
"""

from collections import Counter

import pytest

from repro import ReplicationConfig, RpcConfig, ShardingConfig
from repro.config import HealingConfig
from repro.faults import CRASH, FaultEvent, crash_cycle, partition_cycle
from repro.net.message import MessageType
from repro.sim.rng import make_rng

from tests.harness import battery
from tests.harness.battery import (
    SETTLE,
    TracePoint,
    assert_backups_verbatim,
    assert_converges,
    assert_replays,
    authoritative_fingerprint,
    drive,
    fault,
    keys_at,
    rmw_plan,
    settle,
)
from tests.harness.oracle import assert_psi

NUM_NODES = 3
NUM_KEYS = 12
KEYS = battery.keys(NUM_KEYS)
NUM_SHARDS = 12
SEEDS = battery.seeds("REPLICATION_SEEDS")

pytestmark = pytest.mark.replication


def build(seed, *, num_nodes=NUM_NODES, factor=2, failover=4e-3, rpc=None):
    """A sharded, replicated FW-KV cluster with failover armed.

    Anti-entropy repairs the Propagate gap a restarted node slept through
    (replication streams carry a primary's *writes*, not the cluster-wide
    clock advances its reads must wait on).
    """
    return battery.build(
        seed,
        num_nodes=num_nodes,
        num_keys=NUM_KEYS,
        rpc=rpc,
        sharding=ShardingConfig(enabled=True, num_shards=NUM_SHARDS),
        replication=ReplicationConfig(
            enabled=True,
            replication_factor=factor,
            mode="sync",
            failover_timeout=failover,
        ),
        healing=HealingConfig(
            heartbeat_interval=1e-3, anti_entropy_interval=2e-3
        ),
    )


def assert_no_lost_commits(cluster):
    """The oracle, and every committed write installed at its key's
    *current owner* -- ``lost_writes`` alone would accept a copy left on a
    backup or on the crashed old primary."""
    assert_psi(cluster, quiescent=True)
    missing = []
    for record in cluster.history.committed_updates():
        for key in record.write_keys:
            owner = cluster.node(cluster.directory.site(key))
            chain = owner.store.chain(key) if key in owner.store else ()
            if not any(v.writer_txn == record.txn_id for v in chain):
                missing.append((record.txn_id, key))
    assert not missing, (
        f"{len(missing)} acked commit(s) lost across the failover: "
        f"{missing[:5]}"
    )


# ----------------------------------------------------------------------
# Primary crashed mid-commit: the acceptance pair
# ----------------------------------------------------------------------
def run_primary_crash(seed, *, faulty):
    """Traffic over a 2-copy cluster, with or without a mid-commit crash.

    The victim never coordinates (in either run), so every version stamp
    comes from a surviving coordinator and the pair stays bit-comparable.
    The crash lands at the victim's own ``prepare`` trace emit: the
    staged write has already replicated synchronously to its backup, but
    the vote reply is destroyed -- the worst instant for the racing
    commit, which must park, wait out the promotion, and re-prepare.
    """
    cluster, nemesis = build(seed)
    cluster.tracer.enable()  # every kind, for the counters' audit below
    victim = 1
    coordinators = [0, 2]
    rng = make_rng(seed, "replication-chaos")

    drive(cluster, rmw_plan(rng, coordinators, 10, KEYS))

    victim_keys = keys_at(cluster, victim, KEYS)
    assert victim_keys, "victim must own keys for the scenario to bite"

    point = None
    if faulty:
        point = TracePoint(
            cluster, "prepare", lambda _record: fault(nemesis, CRASH, victim),
            node=victim, count=2,
        )

    # Every even txn writes a victim-owned key, so prepares keep landing
    # at the victim until the trace point fires mid-commit.
    plan = [
        (
            coordinators[i % 2],
            [victim_keys[i % len(victim_keys)]]
            if i % 2 == 0
            else [KEYS[(7 * i) % NUM_KEYS]],
        )
        for i in range(12)
    ]
    drive(cluster, plan, budget=0.2)

    metrics = cluster.metrics
    if faulty:
        assert point.fired, "the victim never reached the crash point"
        assert metrics.counters["failovers_completed"] > 0
        assert not cluster.directory.shards_of(victim)
        assert cluster.tracer.of_kind("failover_retry")  # the re-prepare
    assert metrics.aborts == 0, dict(metrics.aborts_by_reason)

    settle(cluster)
    assert_no_lost_commits(cluster)
    assert_backups_verbatim(cluster, KEYS, skip={victim} if faulty else ())
    live = [n for n in cluster.nodes if n.node_id != victim or not faulty]
    assert len({n.site_vc.to_tuple() for n in live}) == 1
    battery.assert_counters_add_up(cluster)
    battery.assert_fixed_width(cluster)
    return authoritative_fingerprint(cluster, KEYS)


@pytest.mark.parametrize("seed", SEEDS)
def test_primary_crash_mid_commit_loses_nothing(seed):
    """rf=2 sync: a primary crash mid-commit loses zero acked commits,
    aborts nothing, and converges bit-identically to a never-failed
    control."""
    assert_converges(run_primary_crash, seed)


def test_primary_crash_chaos_is_deterministic():
    assert_replays(run_primary_crash, SEEDS[0])


# ----------------------------------------------------------------------
# Partition between a primary and its backup
# ----------------------------------------------------------------------
def run_backup_partition(seed, *, faulty):
    """Cut a primary/backup link mid-traffic; sync degrades, no failover.

    The partitioned pair can each still reach the third node, so neither
    loses a majority attestation and ownership must not move.  During
    the window the primary commits to its own keys the cut backup backs
    (both runs, so the pair's version stamps stay comparable; the local
    fast path, so no 2PC message crosses the cut link): the backup staged
    each self-coordinated prepare, which makes it a target of the
    decision -- the one replication wait of a commit, and the one that
    must degrade.
    """
    rpc = RpcConfig(request_timeout=4e-3, max_attempts=3)
    cluster, nemesis = build(seed, rpc=rpc)
    primary = 0
    primary_keys = keys_at(cluster, primary, KEYS)
    backup = cluster.replication.backups_for_key(primary_keys[0])[0]
    rng = make_rng(seed, "replication-lag")

    drive(cluster, rmw_plan(rng, list(range(NUM_NODES)), 8, KEYS))

    window = 12e-3
    if faulty:
        nemesis.start(
            partition_cycle(primary, backup, cluster.sim.now, window)
        )
    # What was in its decision wait at the primary each time a sync wait
    # degraded: a round that is on record as committed, Decides unsent.
    degraded = []
    in_doubt = cluster.node(primary).in_doubt
    TracePoint(
        cluster, "replication_degraded",
        lambda record: degraded.append(
            (record.node, record.details["backups"],
             sorted(set(in_doubt.rounds) & set(in_doubt.log.by_txn)))
        ),
        count=1,
    )
    cut_keys = [
        k for k in primary_keys
        if backup in cluster.replication.backups_for_key(k)
    ]
    assert len(cut_keys) > 1  # a key's locks outlive its prepare's ack (S5)
    lag_plan = [(primary, [cut_keys[i % len(cut_keys)]]) for i in range(6)]
    drive(cluster, lag_plan, budget=0.1)
    settle(cluster, window)  # fully healed before the next phase

    drive(cluster, rmw_plan(rng, list(range(NUM_NODES)), 8, KEYS))
    settle(cluster)

    metrics = cluster.metrics
    if faulty:
        assert metrics.counters["replication_sync_degraded"] > 0, (
            "the cut stream must degrade at least one sync wait"
        )
        # ... and what degrades is a decision wait, never a vote.
        assert degraded and degraded[0][:2] == (primary, (backup,))
        assert len(degraded[0][2]) == 1
        assert nemesis.heal_reports, "the window must have healed"
    assert metrics.counters["failovers_completed"] == 0, (
        "a one-link partition must never trick a majority into failover"
    )
    assert metrics.aborts == 0, dict(metrics.aborts_by_reason)
    assert_no_lost_commits(cluster)
    assert_backups_verbatim(cluster, KEYS)  # backlog retransmitted post-heal
    assert len({n.site_vc.to_tuple() for n in cluster.nodes}) == 1
    return authoritative_fingerprint(cluster, KEYS)


@pytest.mark.parametrize("seed", SEEDS)
def test_primary_backup_partition_degrades_then_converges(seed):
    assert_converges(run_backup_partition, seed)


# ----------------------------------------------------------------------
# Backup crash-cycled across its own resync
# ----------------------------------------------------------------------
def run_backup_crash(seed, *, faulty):
    """Crash a backup twice in quick succession, the second landing in
    the repair/bootstrap window of the first; streams close, repair
    re-bootstraps, and the backup converges bit-verbatim."""
    cluster, nemesis = build(seed)
    primary = 0
    primary_keys = keys_at(cluster, primary, KEYS)
    backup = cluster.replication.backups_for_key(primary_keys[0])[0]
    coordinators = [n for n in range(NUM_NODES) if n != backup]
    rng = make_rng(seed, "replication-backup-crash")

    drive(cluster, rmw_plan(rng, coordinators, 6, KEYS))

    if faulty:
        t0 = cluster.sim.now
        nemesis.start(
            crash_cycle(backup, t0, 2e-3)
            + crash_cycle(backup, t0 + 2.5e-3, 2e-3)
        )
    # Traffic against the primary's keys while its backup flaps: the
    # pump sees the dead peer and closes the stream; the repair loop
    # must re-bootstrap it after the final restart.
    flap_plan = [
        (coordinators[i % 2], [primary_keys[i % len(primary_keys)]])
        for i in range(8)
    ]
    drive(cluster, flap_plan, budget=0.1)
    settle(cluster, 20e-3)

    drive(cluster, rmw_plan(rng, coordinators, 6, KEYS))
    settle(cluster)

    metrics = cluster.metrics
    if faulty:
        assert metrics.counters["backup_bootstraps"] >= 1, (
            "repair must re-bootstrap the crashed backup's streams"
        )
        assert nemesis.restart_count == 2
        assert [r[:2] for r in nemesis.promotion_reports] == [
            (backup, 0),
            (backup, 0),
        ], "a fast backup flap must not trigger promotions"
    assert metrics.counters["failovers_completed"] == 0
    assert metrics.aborts == 0, dict(metrics.aborts_by_reason)
    assert_no_lost_commits(cluster)
    assert_backups_verbatim(cluster, KEYS)
    return authoritative_fingerprint(cluster, KEYS)


@pytest.mark.parametrize("seed", SEEDS)
def test_backup_crash_during_resync_converges(seed):
    assert_converges(run_backup_crash, seed)


# ----------------------------------------------------------------------
# Double failure: the primary, then its freshest (promoted) backup
# ----------------------------------------------------------------------
def run_double_failure(seed, *, faulty, second=None):
    """rf=3 on four nodes: crash a primary, then the successor that was
    just promoted in its place.  ``second`` pins the control run to the
    same coordinator exclusions as the faulty run that discovered it."""
    cluster, nemesis = build(seed, num_nodes=4, factor=3)
    first = 1
    rng = make_rng(seed, "replication-double")

    coordinators = [n for n in range(4) if n != first]
    drive(cluster, rmw_plan(rng, coordinators, 8, KEYS))

    first_shards = cluster.directory.shards_of(first)
    assert first_shards
    if faulty:
        fault(nemesis, CRASH, first)
        settle(cluster, 50e-3)
        assert not cluster.directory.shards_of(first)
        second = cluster.directory.owner_of(first_shards[0])
    assert second is not None and second not in (first,)

    coordinators = [n for n in range(4) if n not in (first, second)]
    drive(cluster, rmw_plan(rng, coordinators, 8, KEYS), budget=0.2)

    if faulty:
        fault(nemesis, CRASH, second)
        settle(cluster, 50e-3)
        assert not cluster.directory.shards_of(second)

    drive(cluster, rmw_plan(rng, coordinators, 8, KEYS), budget=0.2)
    settle(cluster)

    metrics = cluster.metrics
    if faulty:
        assert metrics.counters["failovers_completed"] >= len(first_shards)
        survivors = set(range(4)) - {first, second}
        for key in KEYS:
            assert cluster.directory.site(key) in survivors
    assert metrics.aborts == 0, dict(metrics.aborts_by_reason)
    assert_no_lost_commits(cluster)
    assert_backups_verbatim(
        cluster, KEYS, skip={first, second} if faulty else ()
    )
    return authoritative_fingerprint(cluster, KEYS), second


@pytest.mark.parametrize("seed", SEEDS)
def test_double_failure_keeps_keys_alive(seed):
    faulty, second = run_double_failure(seed, faulty=True)
    control, _ = run_double_failure(seed, faulty=False, second=second)
    assert faulty == control


def test_orphaned_shards_are_reported_when_the_set_changes_not_every_scan():
    """A deposed site whose shard lost every backup keeps owning it, and
    every scan retries: the trace says so once, and the failover of the
    shards that *could* move completes, orphan count attached."""
    cluster, nemesis = build(SEEDS[0])
    cluster.tracer.enable("failover_orphaned", "failover_complete")
    rng = make_rng(SEEDS[0], "replication-orphan")
    drive(cluster, rmw_plan(rng, [0], 4, KEYS))
    for victim in (1, 2):
        fault(nemesis, CRASH, victim)
    settle(cluster, 60e-3)  # ~30 scans at failover_timeout / 2
    orphaned = {
        record.node: record.details["shards"]
        for record in cluster.tracer.of_kind("failover_orphaned")
    }
    assert len(cluster.tracer.of_kind("failover_orphaned")) == len(orphaned) == 2
    complete = cluster.tracer.of_kind("failover_complete")
    assert sorted(record.node for record in complete) == [1, 2]
    for record in complete:
        assert record.details["orphaned"] == len(orphaned[record.node]) > 0
        assert cluster.directory.shards_of(record.node) == orphaned[record.node]
    assert cluster.metrics.counters["failovers_completed"] == sum(
        record.details["shards"] for record in complete
    )


# ----------------------------------------------------------------------
# Read-only multi-gets re-route across a failover
# ----------------------------------------------------------------------
def run_multi_get_reads(seed, *, faulty):
    """``read_many`` traffic while a primary dies mid-stream: each of its
    per-key reads that times out at the dead owner parks until the
    directory names the promoted one, then retries there."""
    cluster, nemesis = build(seed)
    victim = 1
    coordinators = [0, 2]
    rng = make_rng(seed, "replication-multi-get")

    drive(cluster, rmw_plan(rng, coordinators, 10, KEYS))

    if faulty:
        nemesis.start([FaultEvent(cluster.sim.now + 5e-3, CRASH, victim)])
    keys = KEYS
    reads = []

    def reader():
        for i in range(24):
            node = cluster.node(coordinators[i % 2])
            txn = node.begin(is_read_only=True)
            wanted = [keys[(5 * i + j) % NUM_KEYS] for j in range(3)]
            values = yield from node.read_many(txn, wanted)
            ok = yield from node.commit(txn)
            reads.append((ok, values))
            yield cluster.sim.timeout(SETTLE)

    cluster.spawn(reader(), name="multi-get")
    cluster.run(until=cluster.sim.now + 0.3)
    assert len(reads) == 24, "multi-get driver did not finish in time"
    for ok, values in reads:
        expected = {
            key: cluster.node(cluster.directory.site(key))
            .store.chain(key).latest.value
            for key in values
        }
        assert ok and values == expected, (values, expected)

    drive(cluster, rmw_plan(rng, coordinators, 6, KEYS), budget=0.2)
    settle(cluster)

    metrics = cluster.metrics
    assert metrics.aborts == 0, dict(metrics.aborts_by_reason)
    if faulty:
        assert metrics.counters["failovers_completed"] > 0
        assert not cluster.directory.shards_of(victim)
        assert cluster.network.stats.rpc_timeouts > 0
    assert_no_lost_commits(cluster)
    return authoritative_fingerprint(cluster, KEYS)


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_get_reads_survive_failover(seed):
    assert_converges(run_multi_get_reads, seed)


# ----------------------------------------------------------------------
# Coordinator crashed after its decision's ack, before any Decide lands
# ----------------------------------------------------------------------
#: On five nodes at rf=2: owns shards 3 and 8, backed by nodes 4 (its
#: decision home) and 0 -- and node 0, which holds none of its remote-only
#: decisions, is the successor that promotes first and re-announces.
COORDINATOR = 3


def watch_decides(cluster, nemesis, victims):
    """Tap every Decide of ``COORDINATOR``'s commits at send time.

    Once armed (``report["armed"] = True``), the first commit Decide the
    coordinator hands to the network crashes ``victims`` on the spot --
    its decision record is acknowledged, no Decide is ever delivered --
    and records who held what at that instant.  Decides of its commits
    sent by anyone else are a failover's re-announcement; the tap counts
    them per ``(seq_no, peer)``.
    """
    report = {"armed": False, "reannounced": Counter()}

    def held(table, txn_id):
        return [
            node.node_id for node in cluster.nodes
            if node.node_id not in victims
            and COORDINATOR in node.replication.backup_state
            and txn_id in getattr(
                node.replication.backup_state[COORDINATOR], table
            )
        ]

    def tap(envelope):
        body = envelope.payload
        if (
            envelope.msg_type != MessageType.DECIDE
            or body.origin != COORDINATOR
            or not body.outcome
        ):
            return 0.0
        if envelope.src != COORDINATOR:
            report["reannounced"][(body.seq_no, envelope.dst)] += 1
        elif report["armed"]:
            report["armed"] = False
            report["seq_no"] = body.seq_no
            report["decided_at"] = held("decisions", body.txn_id)
            report["staged_at"] = held("staged", body.txn_id)
            for victim in victims:
                fault(nemesis, CRASH, victim)
        return 0.0

    cluster.network.delay_policy = tap
    return report


def run_coordinator_crash(
    seed, *, faulty, factor=2, own_shard=False, home_change=None,
    with_home=False,
):
    """``COORDINATOR`` commits and dies before any Decide is delivered.

    ``own_shard`` adds to the remote write an own key whose shard is
    backed by a node that is *not* a decision home.  ``home_change``
    disturbs the first home between the warm-up commits and the fatal
    one: ``"crash_cycle"`` flaps it across a re-bootstrap of its stream,
    ``"fail_over"`` kills it for good so the home moves (rf=3: at rf=2
    the home is the lowest shard's only backup, and losing it and then
    the owner loses the shard).  ``with_home`` takes the first home down
    together with the coordinator.  The control run (``faulty=False``)
    takes the same plan with no fault.
    """
    cluster, nemesis = build(seed, num_nodes=5, factor=factor)
    rep = cluster.node(COORDINATOR).replication
    homes = rep._decision_targets()
    first_home = homes[0]
    assert len(homes) == factor - 1 < len(rep._all_backups())
    victims = {COORDINATOR, first_home} if with_home else {COORDINATOR}
    # Never crashed, so they coordinate the traffic around the faults.
    survivors = [
        n for n in range(5) if n != COORDINATOR and n not in homes
    ][:2]
    # The fatal commit's keys: two remote participants that outlive it,
    # or one and an own key whose shard a non-home backs.
    own_keys = keys_at(cluster, COORDINATOR, KEYS)
    fatal = [
        keys_at(cluster, n, KEYS)[0] for n in range(5)
        if n not in victims and n != first_home and keys_at(cluster, n, KEYS)
    ][:2]
    if own_shard:
        fatal[0], backup = next(
            (k, b) for k in own_keys
            for b in cluster.replication.backups_for_key(k) if b not in homes
        )
    report = watch_decides(cluster, nemesis, victims)
    rng = make_rng(seed, "replication-coordinator-crash")

    # Warm-up: the coordinator decides a few commits the ordinary way.
    drive(cluster, rmw_plan(rng, [COORDINATOR] + survivors, 6, KEYS))

    if home_change is not None:
        if faulty and home_change == "crash_cycle":
            nemesis.start(crash_cycle(first_home, cluster.sim.now, 2e-3))
        elif faulty:
            fault(nemesis, CRASH, first_home)
        # Writes to the coordinator's keys the home backs: its stream
        # meets the dead home and closes, for repair to re-bootstrap.
        backed = [
            k for k in own_keys
            if first_home in cluster.replication.backups_for_key(k)
        ]
        plan = [(survivors[i % 2], [backed[i % len(backed)]]) for i in range(4)]
        drive(cluster, plan, budget=0.1)
        settle(cluster, 50e-3)
        if faulty and home_change == "crash_cycle":
            assert cluster.metrics.counters["backup_bootstraps"] >= 1
            assert rep._decision_targets() == homes
        elif faulty:
            assert not cluster.directory.shards_of(first_home)
            assert first_home not in rep._decision_targets()
            assert len(rep._decision_targets()) == factor - 1
        homes = rep._decision_targets()

    expected = set(homes) - victims
    if own_shard:
        expected.add(backup)
    report["armed"] = faulty
    drive(cluster, [(COORDINATOR, fatal)])  # acknowledged
    settle(cluster, 50e-3)
    drive(cluster, rmw_plan(rng, survivors, 6, KEYS), budget=0.2)
    settle(cluster)

    metrics = cluster.metrics
    if faulty:
        seq_no = report["seq_no"]
        for victim in victims:
            assert not cluster.directory.shards_of(victim)
        # S2/S3: acknowledged means decided on every target, and the
        # targets are the homes plus the written own shard's backups --
        # S1: the stream that staged the prepare holds the decision.
        assert set(report["decided_at"]) == expected
        assert report["staged_at"] == ([backup] if own_shard else [])
        # One failover, one announcement: every live peer hears every
        # merged decision exactly once, the fatal one included.
        live = {
            n.node_id for n in cluster.nodes
            if not cluster.replication.is_excluded(n.node_id)
        }
        reannounced = report["reannounced"]
        assert set(reannounced.values()) == {1}, reannounced
        assert {peer for _seq, peer in reannounced} == live
        # ... and a live home -- re-bootstrapped, or one of two that
        # outlived the other -- answers for the whole prefix.
        seqs = {seq for seq, _peer in reannounced}
        assert seqs == set(range(1, seq_no + 1))
        for node in cluster.nodes:
            if node.node_id in live:
                assert node.site_vc[COORDINATOR] == seq_no
    assert metrics.aborts == 0, dict(metrics.aborts_by_reason)
    assert_no_lost_commits(cluster)
    dead = victims | ({first_home} if home_change == "fail_over" else set())
    assert_backups_verbatim(cluster, KEYS, skip=dead if faulty else ())
    return authoritative_fingerprint(cluster, KEYS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "scenario",
    [
        {},  # (a) remote-only writeset
        {"own_shard": True},  # (b) own shard backed by a non-home
        {"home_change": "crash_cycle"},  # (c) home re-bootstrapped ...
        {"home_change": "fail_over", "factor": 3},  # ... or replaced
        {"with_home": True, "factor": 3},  # (d) one of two homes dies too
    ],
    ids=[
        "remote_only", "own_shard", "home_crash_cycled", "home_replaced_rf3",
        "home_dies_too_rf3",
    ],
)
def test_coordinator_crash_before_any_decide_loses_nothing(seed, scenario):
    """The decision is on its homes, not on every stream -- and that is
    enough: zero acknowledged commits lost, participants install,
    uninvolved peers advance ``siteVC[dead]``, nothing presumed aborted
    that any live node holds decided, each Decide re-announced once."""
    assert_converges(run_coordinator_crash, seed, **scenario)

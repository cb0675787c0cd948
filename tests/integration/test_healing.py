"""End-to-end self-healing suite: heal without restart, false suspicion,
fail-fast commits, and checkpointed recovery.

The headline scenario is the one the ROADMAP promised: a node that
sleeps through a partition -- volatile state intact, no restart --
converges back to a never-partitioned control's exact durable state
through *background anti-entropy alone*, with zero foreground traffic
after the heal.  The other scenarios pin down the failure detector's
re-admission behaviour (a silent-but-alive peer is suspected, then
trusted again on its first arrival, with no committed write lost), the
coordinator's fail-fast abort against a known-dead participant, and the
checkpoint/truncation pipeline driving a bounded-replay recovery that is
bit-identical to a full-history one.

Everything is deterministic: the healing loops draw from per-node seeded
RNG streams and ``Simulator.run(until=...)`` always lands on the exact
deadline, so both runs of a control/faulty pair execute the same
transaction plan on the same virtual-time skeleton.  Because the
periodic loops never quiesce, these tests step the clock with
``run(until=...)`` and call ``stop_healing()`` before any final
run-to-quiescence drain.

The scaffold is ``tests.harness.battery``; seeds come from
``HEALING_SEEDS``.
"""

import pytest

from repro import CheckpointConfig, DurabilityConfig, HealingConfig
from repro.cluster import ShardMap
from repro.faults import CRASH_DURABLE, isolate_cycle
from repro.healing import ALIVE, DEAD
from repro.metrics.stats import AbortReason
from repro.net.rpc import RpcTimeoutError
from repro.sim.rng import make_rng
from repro.storage.wal import replay, store_fingerprint

from tests.harness import battery
from tests.harness.battery import (
    drive,
    fault,
    heal,
    isolate,
    keys_at,
    keys_off,
    node_fingerprint,
    restart,
    rmw_plan,
    run_plan,
)

NUM_NODES = 4
KEYS = battery.keys(16)
VICTIM = 2

#: Anti-entropy gossip period used by the convergence scenarios, and the
#: post-heal budget granted before asserting convergence (periods).
AE_INTERVAL = 4e-4
CONVERGE_PERIODS = 10

SEEDS = battery.seeds("HEALING_SEEDS")

pytestmark = pytest.mark.healing


def build(seed, healing, *, wal=False, **config):
    return battery.build(
        seed,
        directory=ShardMap(range(NUM_NODES), NUM_NODES),
        healing=healing,
        durability=DurabilityConfig(wal_enabled=wal),
        **config,
    )


def commit_once(cluster, coordinator, writes, *, budget=5e-3):
    """One blind-write commit attempt; returns (ok, virtual duration)."""
    result = []

    def attempt():
        node = cluster.node(coordinator)
        txn = node.begin(is_read_only=False)
        started = cluster.sim.now
        for key, value in writes:
            node.write(txn, key, value)
        try:
            ok = yield from node.commit(txn)
        except RpcTimeoutError:
            node.abort(txn)
            ok = False
        result.append((ok, cluster.sim.now - started))

    cluster.spawn(attempt(), name="one-commit")
    cluster.run(until=cluster.sim.now + budget)
    assert result, "commit attempt did not finish within its budget"
    return result[0]


# ----------------------------------------------------------------------
# Heal without restart: background anti-entropy closes the gap
# ----------------------------------------------------------------------
def run_isolation_scenario(seed, *, faulty):
    """The headline scenario, with or without the partition window.

    Identical plans on an identical virtual-time skeleton, so the faulty
    run's victim is comparable bit-for-bit against the control's at the
    post-convergence barrier.
    """
    healing = HealingConfig(
        anti_entropy_interval=AE_INTERVAL, digest_timeout=5e-4
    )
    cluster, nemesis = build(seed, healing)
    rng = make_rng(seed, "healing-isolation")
    assert keys_at(cluster, VICTIM, KEYS), "the victim must own keys"

    # Phase A: commits everywhere, victim included, so the victim holds
    # real store content and a nonzero own-origin frontier.
    drive(cluster, rmw_plan(rng, range(NUM_NODES), 12, KEYS))

    cut_at = cluster.sim.now + 1e-4
    window = 20e-3
    if faulty:
        nemesis.start(
            isolate_cycle(VICTIM, range(NUM_NODES), cut_at, window)
        )
    cluster.run(until=cut_at + 1e-5)  # let the cut land (no-op in control)

    # Phase B (the isolation window): commits that avoid the victim
    # entirely -- the only victim-bound traffic is what the cut destroys.
    plan_b = rmw_plan(rng, (0, 1, 3), 9, keys_off(cluster, VICTIM, KEYS))
    drive(cluster, plan_b)
    assert cluster.sim.now < cut_at + window, "plan B outran the window"

    lag = None
    if faulty:
        # The victim slept through phase B: its clock is strictly behind.
        victim_vc = cluster.nodes[VICTIM].site_vc.to_tuple()
        peer_vc = cluster.nodes[0].site_vc.to_tuple()
        lag = sum(b - a for a, b in zip(victim_vc, peer_vc))
        assert lag == len(plan_b)

    # Heal, then grant a bounded number of anti-entropy periods with
    # ZERO foreground traffic: only the background loops run.
    heal_at = cut_at + window
    budget = CONVERGE_PERIODS * (AE_INTERVAL * 1.1 + 5e-4)
    cluster.run(until=heal_at + budget)

    fingerprint = node_fingerprint(cluster.nodes[VICTIM])
    clocks = cluster.site_clocks()
    cluster.stop_healing()
    cluster.run()  # drain the wound-down loops and any stragglers
    return {
        "cluster": cluster,
        "nemesis": nemesis,
        "fingerprint": fingerprint,
        "clocks": clocks,
        "lag": lag,
        "window": window,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_node_heals_without_restart(seed):
    healed = run_isolation_scenario(seed, faulty=True)
    control = run_isolation_scenario(seed, faulty=False)

    # Bit-identical convergence: store chains (vids included), siteVC,
    # and the coordinator sequence counter all match the control --
    # reached with no restart and no foreground traffic after the heal.
    assert healed["fingerprint"] == control["fingerprint"]
    assert all(clock == healed["clocks"][0] for clock in healed["clocks"])

    cluster, nemesis = healed["cluster"], healed["nemesis"]
    victim = cluster.nodes[VICTIM]
    assert victim.recovery.recoveries == 0  # healed, never restarted
    metrics = cluster.metrics
    assert metrics.counters["anti_entropy_rounds"] > 0
    # The gap closed through the healing machinery: streamed Decides
    # (peer pushes) and/or digest-driven clock catch-up (victim pulls).
    counters = metrics.counters
    assert (
        counters["records_streamed"] + counters["catchup_advances"]
        >= healed["lag"]
    )

    # Satellite: the nemesis accounted every healed link -- one report
    # per direction, exact window duration, and the cut provably
    # destroyed traffic toward the victim.
    reports = nemesis.heal_reports
    assert len(reports) == 2 * (NUM_NODES - 1)
    assert all(
        duration == pytest.approx(healed["window"])
        for (_a, _b, duration, _d, _dr) in reports
    )
    toward_victim = sum(
        dropped for (_a, b, _dur, dropped, _dr) in reports if b == VICTIM
    )
    assert toward_victim > 0
    assert not cluster.any_locks_held()


def test_isolation_scenario_is_deterministic():
    """Same seed, same faults => same converged state and same healing
    counter values, down to the last streamed record."""
    seed = SEEDS[0]

    def probe():
        result = run_isolation_scenario(seed, faulty=True)
        metrics = result["cluster"].metrics
        return (
            result["fingerprint"],
            result["clocks"],
            metrics.counters["anti_entropy_rounds"],
            metrics.counters["records_streamed"],
            metrics.counters["catchup_advances"],
            result["nemesis"].heal_reports,
        )

    assert probe() == probe()


# ----------------------------------------------------------------------
# False suspicion: a silent peer is suspected, then re-admitted
# ----------------------------------------------------------------------
def test_false_suspicion_readmits_peer_without_losing_writes():
    seed = SEEDS[0]
    healing = HealingConfig(heartbeat_interval=2e-4)
    cluster, nemesis = build(seed, healing)
    detector = cluster.nodes[0].healing.detector
    assert cluster.nodes[0].healing.armed

    # Warm-up: heartbeats establish each peer's inter-arrival mean.
    cluster.run(until=cluster.sim.now + 10 * 2e-4)
    assert cluster.metrics.counters["heartbeats_sent"] > 0
    assert detector.state(VICTIM) == ALIVE

    # Cut only the 0 <-> victim link: to node 0 the victim goes silent,
    # to everyone else it stays perfectly reachable ("slow" from one
    # observer's seat, alive in fact).
    isolate(nemesis, VICTIM, [0])
    cluster.run(until=cluster.sim.now + 3e-3)  # ~15 silent intervals
    assert detector.state(VICTIM) == DEAD
    assert cluster.metrics.counters["suspicions_raised"] >= 1

    # While node 0 holds its wrong verdict, a commit through node 1
    # lands writes at the suspected-but-alive victim.
    victim_key = keys_at(cluster, VICTIM, KEYS)[0]
    ok, _ = commit_once(cluster, 1, [(victim_key, "survivor")])
    assert ok

    # Heal: the victim's first heartbeat arrival restores trust.
    heal(nemesis, VICTIM, [0])
    cluster.run(until=cluster.sim.now + 5 * 2e-4)
    assert detector.state(VICTIM) == ALIVE
    assert cluster.metrics.counters["suspicions_cleared"] >= 1

    # The re-admitted peer is fully usable from node 0 again, and the
    # write committed during the suspicion window was never lost.
    ok, _ = commit_once(cluster, 0, [(victim_key, "after-heal")])
    assert ok
    cluster.stop_healing()
    cluster.run()
    chain = list(cluster.nodes[VICTIM].store.chain(victim_key))
    assert [v.value for v in chain[-2:]] == ["survivor", "after-heal"]
    assert not cluster.any_locks_held()


# ----------------------------------------------------------------------
# Fail-fast commits against a known-dead participant
# ----------------------------------------------------------------------
def test_commit_fails_fast_on_dead_participant():
    seed = SEEDS[0]
    healing = HealingConfig(heartbeat_interval=2e-4)  # fail_fast default on
    cluster, nemesis = build(seed, healing)
    detector = cluster.nodes[0].healing.detector

    cluster.run(until=cluster.sim.now + 10 * 2e-4)  # warm-up
    isolate(nemesis, VICTIM, range(NUM_NODES))
    cluster.run(until=cluster.sim.now + 3e-3)
    assert detector.is_dead(VICTIM)

    # A commit spanning node 0 and the dead victim aborts immediately:
    # no prepare RPC, no timeout ladder, just AbortReason.PEER_DEAD.
    writes = [(keys_at(cluster, site, KEYS)[0], 1) for site in (0, VICTIM)]
    ok, elapsed = commit_once(cluster, 0, writes)
    assert not ok
    assert elapsed < cluster.config.network.rpc.request_timeout
    assert cluster.metrics.aborts_by_reason[AbortReason.PEER_DEAD] == 1

    # After the heal the detector re-admits the victim and the same
    # commit goes through.
    heal(nemesis, VICTIM, range(NUM_NODES))
    cluster.run(until=cluster.sim.now + 5 * 2e-4)
    assert detector.state(VICTIM) == ALIVE
    ok, _ = commit_once(cluster, 0, writes)
    assert ok
    cluster.stop_healing()
    cluster.run()
    assert not cluster.any_locks_held()


# ----------------------------------------------------------------------
# Checkpointed recovery: bounded replay, bit-identical state
# ----------------------------------------------------------------------
def run_checkpoint_scenario(seed, *, checkpointed):
    """Identical transaction plan and crash point; only the checkpoint
    (and its truncation) differs between the two runs."""
    cluster, nemesis = build(seed, HealingConfig(), wal=True)
    rng = make_rng(seed, "healing-checkpoint")
    victim = cluster.nodes[VICTIM]

    # No loops are configured here: each transaction runs to quiescence.
    run_plan(cluster, rmw_plan(rng, range(NUM_NODES), 12, KEYS))

    record = None
    if checkpointed:
        record = victim.healing.checkpoints.checkpoint_now()
        assert record is not None
        assert cluster.metrics.counters["checkpoints_taken"] == 1
        full_log = victim.wal.records()  # prefix + checkpoint

        # Harvest frontier evidence with one explicit gossip round per
        # peer (no loops configured -- the rounds are one-shot here),
        # which also triggers the truncation re-check.
        for peer in (0, 1, 3):
            cluster.run_process(victim.healing.gossip_round(peer))
        assert victim.healing.rounds == 3
        dropped = record.records_below
        assert dropped > 0
        assert victim.wal.truncated == dropped
        assert cluster.metrics.counters["wal_records_truncated"] == dropped
        # Same evidence, precise GC: every decision at or below the
        # stable floor left the in-memory log too.
        floor = victim.site_vc[VICTIM]
        log = victim.in_doubt.log
        assert all(seq_no > floor for seq_no in log.by_seq)
        assert {r.seq_no for r in log.by_txn.values()} == set(log.by_seq)

        # The equivalence the whole scheme rests on, checked on the live
        # logs: truncated replay == full-history replay, suffix-only cost.
        full = replay(full_log, NUM_NODES)
        truncated = replay(victim.wal.records(), NUM_NODES)
        assert store_fingerprint(truncated.store) == store_fingerprint(
            full.store
        )
        assert truncated.site_vc.to_tuple() == full.site_vc.to_tuple()
        assert truncated.curr_seq_no == full.curr_seq_no
        assert truncated.replayed == 1
        assert full.replayed == len(full_log)

    # Phase B grows the post-checkpoint suffix, victim included.
    run_plan(cluster, rmw_plan(rng, range(NUM_NODES), 8, KEYS))

    # Durable crash at a quiescent instant, three commits land while the
    # victim is down (lost Propagates for catch-up to repair), restart.
    fault(nemesis, CRASH_DURABLE, VICTIM)
    run_plan(cluster, rmw_plan(rng, (0, 1, 3), 3, keys_off(cluster, VICTIM, KEYS)))
    surviving = len(victim.wal)
    window = restart(cluster, nemesis, VICTIM)
    cluster.run()
    assert window.closed and victim.recovery.recoveries == 1

    return {
        "cluster": cluster,
        "fingerprint": node_fingerprint(victim),
        "replayed": cluster.metrics.counters["wal_records_replayed"],
        "surviving": surviving,
        "truncated": victim.wal.truncated,
        "checkpoint": record,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_checkpointed_recovery_matches_full_history(seed):
    ckpt = run_checkpoint_scenario(seed, checkpointed=True)
    full = run_checkpoint_scenario(seed, checkpointed=False)

    # Recovery from snapshot + suffix rebuilds the exact state that
    # replaying the entire (never-truncated) history rebuilds.
    assert ckpt["fingerprint"] == full["fingerprint"]

    # And it did so with a bounded replay: only the records surviving
    # above the checkpoint, strictly fewer than the full history.
    assert ckpt["replayed"] == ckpt["surviving"]
    assert full["replayed"] == full["surviving"]
    assert ckpt["truncated"] > 0
    assert ckpt["replayed"] < full["replayed"]
    assert ckpt["replayed"] + ckpt["truncated"] == full["replayed"] + 1

    # Catch-up repaired exactly the three Propagates each run lost.
    assert ckpt["cluster"].metrics.counters["catchup_advances"] == 3
    assert full["cluster"].metrics.counters["catchup_advances"] == 3
    clocks = ckpt["cluster"].site_clocks()
    assert all(clock == clocks[0] for clock in clocks)


def test_automatic_checkpoint_loop_waits_for_enough_records():
    """The checkpoint loop takes snapshots only after ``MIN_RECORDS`` new
    WAL appends, and truncates once gossip evidence stabilises them."""
    seed = SEEDS[0]
    healing = HealingConfig(
        anti_entropy_interval=AE_INTERVAL,
        digest_timeout=5e-4,
        checkpoint=CheckpointConfig(interval=2e-3),
    )
    cluster, _nemesis = build(seed, healing, wal=True)
    rng = make_rng(seed, "healing-auto-ckpt")
    victim = cluster.nodes[VICTIM]

    drive(cluster, rmw_plan(rng, range(NUM_NODES), 30, KEYS))
    # Several checkpoint periods with gossip feeding frontier evidence.
    cluster.run(until=cluster.sim.now + 6e-3)
    assert cluster.metrics.counters["checkpoints_taken"] >= 1
    assert victim.healing.checkpoints.taken >= 1
    assert cluster.metrics.counters["wal_records_truncated"] > 0

    # An idle stretch takes no further checkpoints: fewer than
    # MIN_RECORDS new WAL records accumulated.
    taken = cluster.metrics.counters["checkpoints_taken"]
    cluster.run(until=cluster.sim.now + 6e-3)
    assert cluster.metrics.counters["checkpoints_taken"] == taken

    # A recovered-from-checkpoint node still matches the live cluster.
    cluster.stop_healing()
    cluster.run()
    result = replay(victim.wal.records(), NUM_NODES)
    assert result.checkpoints >= 1
    assert store_fingerprint(result.store) == store_fingerprint(victim.store)
    assert result.site_vc.to_tuple() == victim.site_vc.to_tuple()


# ----------------------------------------------------------------------
# The strict floor: a lagging peer holds truncation and pruning
# ----------------------------------------------------------------------
def run_lagging_peer_scenario(seed, *, faulty):
    """A victim cut off while the survivors commit, checkpoint and gossip;
    after the heal each survivor's gossip round pushes its own origin's
    Decides to it.  The control run makes the identical calls with the
    victim reachable, so the caught-up victim is comparable bit for bit.
    """
    cluster, nemesis = build(seed, HealingConfig(), wal=True)
    cluster.tracer.enable()
    rng = make_rng(seed, "healing-lagging-peer")
    survivor_keys = keys_off(cluster, VICTIM, KEYS)
    sender = cluster.nodes[0]
    victim = cluster.nodes[VICTIM]

    def gossip(node, peers):
        for peer in peers:
            cluster.run_process(node.healing.gossip_round(peer))

    # Phase A: commits everywhere, then one full gossip mesh so every
    # node holds frontier evidence for every peer (no loops are armed --
    # every round in this scenario is an explicit call).
    run_plan(cluster, rmw_plan(rng, range(NUM_NODES), 12, KEYS))
    for node in cluster.nodes:
        gossip(node, (peer for peer in range(NUM_NODES) if peer != node.node_id))

    if faulty:
        isolate(nemesis, VICTIM, range(NUM_NODES))
    frontier = victim.site_vc[0]

    # Phase B: three commits per surviving origin, then a checkpoint at
    # the sender and a gossip round with every peer.
    run_plan(cluster, rmw_plan(rng, (0, 1, 3), 9, survivor_keys))
    record = sender.healing.checkpoints.checkpoint_now()
    assert record is not None and record.records_below > 0
    gossip(sender, (1, VICTIM, 3))
    held = {
        "truncated": sender.wal.truncated,
        "floor": sender.healing.checkpoints.stable_floor(),
        "logged": set(sender.in_doubt.log.by_seq),
        "own": sender.site_vc[0],
    }

    # Phase C: a post-checkpoint suffix at the sender.
    run_plan(cluster, rmw_plan(rng, (0,), 3, survivor_keys))
    if faulty:
        heal(nemesis, VICTIM, range(NUM_NODES))

    # The repair: each survivor pushes its origin's missing Decides.
    for node in (0, 1, 3):
        gossip(cluster.nodes[node], (VICTIM,))
    cluster.run()
    converged = node_fingerprint(victim)
    # The next digest carries the caught-up frontier: truncation follows.
    gossip(sender, (VICTIM,))
    return cluster, converged, frontier, held, record


@pytest.mark.parametrize("seed", SEEDS)
def test_a_lagging_peer_holds_truncation_and_pruning(seed):
    cluster, converged, frontier, held, record = run_lagging_peer_scenario(
        seed, faulty=True
    )
    sender = cluster.nodes[0]

    # Cut off, the victim pins the floor at its frontier: the WAL keeps
    # the checkpoint's prefix and the decision log every seq above it.
    assert frontier < held["own"]
    assert held["floor"] == frontier and held["truncated"] == 0
    assert set(range(frontier + 1, held["own"] + 1)) <= held["logged"]

    # The record push alone converges it bit for bit with the control,
    # starting right at its frontier -- nothing it needs was pruned.
    assert converged == run_lagging_peer_scenario(seed, faulty=False)[1]
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)
    pushed = [r.details["first"] for r in cluster.tracer.of_kind("stream")
              if r.node == 0 and r.details["peer"] == VICTIM]
    assert pushed == [frontier + 1]
    kinds = ("shard_shipped", "snapshot_install")
    assert not any(cluster.tracer.of_kind(kind) for kind in kinds)
    counters = cluster.metrics.counters
    assert not any(counters[name] for name in counters if name.startswith("snapshot"))

    # Then the sender truncates, and prunes below the new floor.
    assert sender.wal.truncated == record.records_below
    floor = sender.healing.checkpoints.stable_floor()
    assert floor >= held["own"]
    assert all(seq_no > floor for seq_no in sender.in_doubt.log.by_seq)
    assert not cluster.any_locks_held()


# ----------------------------------------------------------------------
# Lifecycle idempotency: stop/start cycles never stack duplicate loops
# ----------------------------------------------------------------------
def test_healing_stop_start_cycles_do_not_stack_loops():
    """Each start() bumps the daemon generation and strands the loops of
    any earlier one, so lifecycle churn -- the elastic-membership drivers
    call start()/stop() freely around reconfigurations -- cannot stack
    duplicate heartbeat/gossip loops and double the background rate."""
    seed = SEEDS[0]
    healing = HealingConfig(heartbeat_interval=2e-4)
    cluster, _ = build(seed, healing)
    window = 40 * 2e-4
    cluster.run(until=cluster.sim.now + window)
    baseline = cluster.metrics.counters["heartbeats_sent"]
    assert baseline > 0

    for _ in range(3):
        cluster.stop_healing()
        cluster.start_healing()
    cluster.start_healing()  # a duplicate start must not stack either
    before = cluster.metrics.counters["heartbeats_sent"]
    cluster.run(until=cluster.sim.now + window)
    delta = cluster.metrics.counters["heartbeats_sent"] - before
    # A single stacked loop would push the rate toward 2x the baseline.
    assert delta <= baseline * 1.5, "lifecycle churn duplicated a loop"
    assert delta >= baseline * 0.5, "the loops stopped running entirely"

    cluster.stop_healing()
    cluster.run()  # wound-down loops drain; the simulator quiesces

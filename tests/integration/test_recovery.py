"""Deterministic crash-recovery suite: durable-state loss and rebuild.

Every scenario here crashes a node at a *protocol-chosen* point -- not a
wall-clock guess -- using trace listeners (``tests.harness.recovery_tools``),
wipes its volatile state (store, ``siteVC``, prepared table), restarts
it, and checks that WAL replay + in-doubt termination + anti-entropy
catch-up rebuild exactly the state the rest of the cluster may have
observed:

* crash between the coordinator's Decide/Propagate fan-out and the
  victim's Propagate apply -- the headline scenario: after recovery and
  200+ further transactions the merged pre/post-crash history is still
  PSI, and the victim's durable state is bit-identical to a
  never-crashed control run at the same point;
* crash mid-prepare (vote lost) -- the transaction aborts everywhere and
  recovery terminates the in-doubt leftover as aborted;
* crash mid-Propagate-apply -- catch-up repairs the lost clock advances;
* crash with an in-flight Decide (prepared + committed elsewhere) -- the
  recovery termination query closes the presumed-abort window and the
  committed writes reappear at the victim.

The scaffold is ``tests.harness.battery``; seeds come from
``RECOVERY_SEEDS``.
"""

from types import SimpleNamespace

import pytest

from repro import DurabilityConfig
from repro.cluster import ShardMap
from repro.faults import CRASH_DURABLE
from repro.metrics.stats import AbortReason
from repro.net.rpc import RpcTimeoutError
from repro.sim.rng import make_rng

from tests.harness import battery
from tests.harness.battery import (
    crash_at,
    fault,
    keys_at,
    keys_off,
    node_fingerprint,
    restart,
    rmw_plan,
    run_plan,
    run_txn,
)
from tests.harness.oracle import assert_psi, increment_client

NUM_NODES = 4
KEYS = battery.keys(16)
VICTIM = 2
#: Transactions driven concurrently after recovery (the "keep going"
#: phase of the headline scenario): 4 nodes x 2 clients x 40 txns.
POST_CLIENTS = 2
POST_TXNS = 40

SEEDS = battery.seeds("RECOVERY_SEEDS", "41,42")
PROTOCOLS = ("fwkv", "walter")

pytestmark = pytest.mark.recovery


def build(protocol, seed):
    return battery.build(
        seed, protocol,
        directory=ShardMap(range(NUM_NODES), NUM_NODES),
        durability=DurabilityConfig(wal_enabled=True),
    )


def post_recovery_client(cluster, node_id, client_id, seed):
    """A concurrent closed-loop client."""
    rng = make_rng(seed, "recovery-client", node_id, client_id)
    return increment_client(
        cluster, node_id, rng, KEYS, POST_TXNS, read_only=0.3,
        backoff=(50e-6, 250e-6), pause=100e-6, attempts=6,
    )


def run_decide_propagate_scenario(protocol, seed, *, crash):
    """The headline scenario, with or without the crash.

    Phases A/B are driven *sequentially* so the committed transaction
    sequence is identical with and without the fault -- that is what
    makes the recovered node's durable state comparable bit-for-bit
    against the never-crashed control at the post-recovery barrier.
    """
    cluster, nemesis = build(protocol, seed)
    rng = make_rng(seed, "recovery-scenario")
    survivor_keys = keys_off(cluster, VICTIM, KEYS)
    assert len(survivor_keys) < len(KEYS), "the victim must own keys"

    # Phase A: writes everywhere, victim included, so replay has real
    # version chains (not just clock records) to rebuild.
    run_plan(cluster, rmw_plan(rng, range(NUM_NODES), 20, KEYS))

    # The crash transaction: coordinator 0, victim uninvolved.  The
    # listener fires at coordinator 0's "commit" emit -- *after* its
    # Decide/Propagate fan-out left, *before* the victim's Propagate
    # delivers -- so the crash destroys exactly that in-flight advance.
    point = None
    if crash:
        point = crash_at(cluster, nemesis, VICTIM, "commit", node=0)
    crash_keys = survivor_keys[:2]
    ok, crash_txn = run_txn(cluster, 0, crash_keys)
    assert ok
    expected_lost = {0: [crash_txn.seq_no]} if crash else {}
    if point is not None:
        assert point.fired

    # Phase B (the down window): traffic that avoids the victim entirely,
    # so the only victim-bound messages are the Propagates it is missing.
    for txn in run_plan(cluster, rmw_plan(rng, (0, 1, 3), 8, survivor_keys)):
        if crash:
            expected_lost.setdefault(txn.node_id, []).append(txn.seq_no)

    window = None
    if crash:
        window = restart(cluster, nemesis, VICTIM)
        cluster.run()  # drain WAL replay + termination + catch-up

    fingerprint = node_fingerprint(cluster.nodes[VICTIM])

    # Phase C: 200+ further concurrent transactions over the full
    # keyspace; the merged pre/post-crash history must still be PSI.
    for node_id in range(NUM_NODES):
        for client_id in range(POST_CLIENTS):
            cluster.spawn(
                post_recovery_client(cluster, node_id, client_id, seed),
                name=f"post-client-{node_id}-{client_id}",
            )
    cluster.run()

    return SimpleNamespace(
        cluster=cluster,
        nemesis=nemesis,
        window=window,
        fingerprint=fingerprint,
        expected_lost={k: sorted(v) for k, v in expected_lost.items()},
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_between_decide_and_propagate(protocol, seed):
    crashed = run_decide_propagate_scenario(protocol, seed, crash=True)
    control = run_decide_propagate_scenario(protocol, seed, crash=False)

    # Bit-identical rebuild: store chains (vids included), siteVC, and
    # the coordinator sequence counter all match the never-crashed
    # control at the post-recovery barrier.
    assert crashed.fingerprint == control.fingerprint

    victim = crashed.cluster.nodes[VICTIM]
    assert victim.recovery.recoveries == 1
    assert crashed.cluster.metrics.counters["recoveries"] == 1
    assert crashed.nemesis.restart_count == 1

    # The down-window accounting names exactly the Propagates destroyed,
    # and anti-entropy advanced the clock exactly that many slots.
    window = crashed.window
    assert window.closed
    assert dict(window.lost_propagates) == crashed.expected_lost
    total_lost = sum(len(v) for v in crashed.expected_lost.values())
    assert crashed.cluster.metrics.counters["catchup_advances"] == total_lost
    assert set(window.drops_by_reason) == {"crash"}

    # 200+ transactions later, the merged history is still PSI and no
    # acknowledged write is missing anywhere.
    history = assert_psi(crashed.cluster, quiescent=True)
    assert len(history.committed_updates()) >= 200
    clocks = crashed.cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_mid_prepare_aborts_and_recovers(protocol):
    """A participant crashing between staging and voting leaves an
    in-doubt prepare whose recovery termination resolves *aborted*."""
    cluster, nemesis = build(protocol, SEEDS[0])
    rng = make_rng(SEEDS[0], "mid-prepare")
    run_plan(cluster, rmw_plan(rng, range(NUM_NODES), 8, KEYS))

    point = crash_at(cluster, nemesis, VICTIM, "prepare", node=VICTIM)
    keys = [keys_at(cluster, site, KEYS)[0] for site in (0, VICTIM)]
    ok, doomed = run_txn(cluster, 0, keys, attempts=1)
    assert point.fired
    assert not ok  # the vote never reached the coordinator

    window = restart(cluster, nemesis, VICTIM)
    cluster.run()

    victim = cluster.nodes[VICTIM]
    assert victim.recovery.recoveries == 1
    assert cluster.metrics.counters["indoubt_recovered"] >= 1
    assert cluster.metrics.counters["indoubt_aborted"] >= 1
    # The aborted transaction's writes exist nowhere.
    for node in cluster.nodes:
        for key in keys:
            if key in node.store:
                chain = node.store.chain(key)
                assert not any(v.writer_txn == doomed.txn_id for v in chain)
    assert not cluster.any_locks_held()
    assert window.closed

    # The keys are usable again: locks were rebuilt and then released.
    ok, _ = run_txn(cluster, 1, keys)
    assert ok
    assert_psi(cluster)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_mid_propagate_apply(protocol):
    """Crashing at the victim's own Propagate apply point loses the
    following advances; catch-up repairs them after restart."""
    cluster, nemesis = build(protocol, SEEDS[0])
    rng = make_rng(SEEDS[0], "mid-propagate")
    survivor_keys = keys_off(cluster, VICTIM, KEYS)
    run_plan(cluster, rmw_plan(rng, range(NUM_NODES), 8, KEYS))

    point = crash_at(cluster, nemesis, VICTIM, "propagate", node=VICTIM)
    run_plan(cluster, [(0, survivor_keys[:2])])
    assert point.fired  # victim applied the advance, then died

    run_plan(cluster, rmw_plan(rng, (0, 1, 3), 5, survivor_keys))

    window = restart(cluster, nemesis, VICTIM)
    cluster.run()

    victim = cluster.nodes[VICTIM]
    assert victim.recovery.recoveries == 1
    assert sum(len(v) for v in window.lost_propagates.values()) == 5
    assert cluster.metrics.counters["catchup_advances"] == 5
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)
    assert_psi(cluster)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_with_inflight_decide_recovers_commit(protocol):
    """The presumed-abort window, closed: a participant that crashed
    with the Decide in flight recovers the *committed* outcome via the
    termination query and reinstalls the writes it never applied."""
    cluster, nemesis = build(protocol, SEEDS[0])
    rng = make_rng(SEEDS[0], "indoubt-commit")
    run_plan(cluster, rmw_plan(rng, range(NUM_NODES), 8, KEYS))

    # Coordinator 0 commits across sites {0, victim}; the listener fires
    # at the coordinator's "commit" emit, when the victim's Decide has
    # been sent but not delivered.  The client sees ok=True.
    point = crash_at(cluster, nemesis, VICTIM, "commit", node=0)
    keys = [keys_at(cluster, site, KEYS)[0] for site in (0, VICTIM)]
    ok, txn = run_txn(cluster, 0, keys, attempts=1)
    assert ok and point.fired

    victim = cluster.nodes[VICTIM]
    victim_key = keys[1]
    # The crash destroyed the Decide: the write is not at the victim.
    assert not any(
        v.writer_txn == txn.txn_id for v in victim.store.chain(victim_key)
    )

    window = restart(cluster, nemesis, VICTIM)
    cluster.run()

    assert victim.recovery.recoveries == 1
    assert cluster.metrics.counters["indoubt_committed"] >= 1
    # The committed write reappeared, with its origin stamp intact.
    recovered = [
        v for v in victim.store.chain(victim_key)
        if v.writer_txn == txn.txn_id
    ]
    assert len(recovered) == 1
    assert recovered[0].origin == 0 and recovered[0].seq == txn.seq_no
    assert window.closed
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)
    assert_psi(cluster, quiescent=True)


def test_reannounced_decide_keeps_the_collected_antidependencies():
    """Alg. 5 lines 18-20 across a coordinator's durable crash: the
    Decide it re-announces from its logged decision must exclude the
    same read-only transactions the lost Decide would have.  (The
    DecisionRecord used to drop the collected set, so the participant
    installed the commit's version with an empty access set.)"""
    cluster, nemesis = build("fwkv", SEEDS[0])
    coordinator, participant = 0, 1
    key = keys_at(cluster, participant, KEYS)[0]
    holder = cluster.nodes[participant]

    # An open read-only transaction registers on the version the update
    # is about to overwrite; the participant's vote collects its id.
    reader_node = cluster.node(3)
    reader = reader_node.begin(is_read_only=True)
    cluster.run_process(reader_node.read(reader, key))
    assert reader.txn_id in holder.store.chain(key).latest.access_set

    # Crash the coordinator at its "commit" emit: the decision is logged
    # and the participant's Decide is on the wire, where the crash
    # destroys it.  Restart well inside the participant's 5 ms lease.
    point = crash_at(cluster, nemesis, coordinator, "commit", node=coordinator)
    node = cluster.node(coordinator)
    txn = node.begin(is_read_only=False)

    def update():
        value = yield from node.read(txn, key)
        node.write(txn, key, value + 1)
        return (yield from node.commit(txn))

    acked = cluster.spawn(update(), name="update")
    cluster.run(until=cluster.sim.now + 500e-6)
    assert point.fired and acked.value is True
    assert reader.txn_id in txn.collected_set
    assert holder.store.chain(key).latest.writer_txn != txn.txn_id

    restart(cluster, nemesis, coordinator)
    cluster.run()

    installed = holder.store.chain(key).latest
    assert installed.writer_txn == txn.txn_id
    assert reader.txn_id in installed.access_set
    assert not cluster.any_locks_held()


def test_down_window_accounting_is_exact():
    """Per-reason drop counters and lost Propagate seq_nos, exactly."""
    cluster, nemesis = build("fwkv", SEEDS[0])
    rng = make_rng(SEEDS[0], "accounting")
    run_plan(cluster, rmw_plan(rng, range(NUM_NODES), 4, KEYS))

    # Crash at a quiescent instant: nothing is in flight, so the window
    # contains *only* the three Propagates committed while it was open.
    fault(nemesis, CRASH_DURABLE, VICTIM)
    survivor_keys = keys_off(cluster, VICTIM, KEYS)
    txns = run_plan(cluster, rmw_plan(rng, (0,), 3, survivor_keys))
    expected = [txn.seq_no for txn in txns]

    window = restart(cluster, nemesis, VICTIM)
    cluster.run()

    assert dict(window.drops_by_reason) == {"crash": 3}
    assert dict(window.lost_propagates) == {0: sorted(expected)}
    assert nemesis.restart_count == 1
    assert nemesis.down_windows == [window]
    assert cluster.nodes[VICTIM].recovery.recoveries == 1


# ----------------------------------------------------------------------
# Composition: the hot key's home crashes with transactions in line
# ----------------------------------------------------------------------
def test_durable_crash_of_a_home_with_five_transactions_in_line():
    """FW-KV's line (DESIGN.md 4) is volatile advice: a durable crash of
    the home takes it, the waiters complete or time out cleanly, the
    rebuilt node starts with an empty line and nothing is left held."""
    cluster, nemesis = build("fwkv", SEEDS[0])
    hot = keys_at(cluster, VICTIM, KEYS)[0]
    home = cluster.node(VICTIM)
    outcomes = []

    def contender(node_id, delay):
        """A retry as ``client_loop`` runs it: ``hot`` first, in line."""
        node = cluster.node(node_id)
        yield cluster.sim.timeout(delay)
        for attempt in range(1, 9):
            txn = node.begin(is_read_only=False)
            try:
                value = yield from node.read(txn, hot, queue=True)
                node.write(txn, hot, value + 1)
                ok = yield from node.commit(txn)
            except RpcTimeoutError:
                node.abort(txn, AbortReason.RPC_TIMEOUT)
                ok = False
            if ok:
                outcomes.append((node_id, attempt))
                return
            yield cluster.sim.timeout(100e-6 * attempt)
        outcomes.append((node_id, None))

    seen = {}

    def nemesis_script():
        # 60 us in: the head has read and its prepare is on the wire, the
        # other four stand in line behind it.
        yield cluster.sim.timeout(60e-6)
        line = home.line
        seen["in_line"] = (
            line.lock_for(hot).is_locked, line.lock_for(hot).queue_length
        )
        fault(nemesis, CRASH_DURABLE, VICTIM)
        yield cluster.sim.timeout(3e-3)
        restart(cluster, nemesis, VICTIM)
        seen["rebuilt"] = home.line is not line and not home.line._locks

    contenders = [(0, 0.0), (1, 2e-6), (3, 4e-6), (0, 6e-6), (1, 8e-6)]
    for node_id, delay in contenders:
        cluster.spawn(contender(node_id, delay))
    cluster.spawn(nemesis_script())
    cluster.run()

    assert seen == {"in_line": (True, 4), "rebuilt": True}
    # Everyone finished, and an acknowledged increment is an installed one.
    assert len(outcomes) == len(contenders)
    committed = sum(1 for _node, attempt in outcomes if attempt is not None)
    assert committed >= 1
    assert home.store.chain(hot).latest.value == committed
    # The requests the crash swallowed timed out attempt by attempt and
    # were re-sent: the rebuilt node lined the survivors up afresh.
    assert cluster.network.stats.rpc_timeouts >= len(contenders)
    for protocol_node in cluster.nodes:
        assert protocol_node.node.rpc.pending_count == 0
        assert protocol_node.node.rpc.deadline_count == 0
    assert_psi(cluster, quiescent=True)

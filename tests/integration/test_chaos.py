"""Chaos suite: nemesis-driven crashes and partitions, safety must hold.

These tests deliberately break the paper's reliable-channel assumption
(Section 2.1) and check graceful degradation instead of liveness: under
crash-during-prepare, coordinator-crash, and partition-then-heal
schedules, transactions may abort, but

* every history passes the one oracle, no acknowledged write lost,
* the cluster quiesces with no lock held anywhere,
* no RPC endpoint leaks a pending request slot,

for all three protocols -- bar one pinned violation in Walter's
partition-then-heal run (DESIGN.md 7, "What the oracle found"), which
must keep its shape while the rest of the contract holds.  A final test
pins down that a faulty run is a pure function of its seed -- identical
seeds give identical histories and network statistics even with random
loss and duplication enabled.
"""

import pytest

from repro import DurabilityConfig, NetworkConfig, RpcConfig
from repro.cluster import ShardMap
from repro.faults import (
    HEAL,
    PARTITION,
    crash_cycle,
    durable_crash_cycle,
    partition_cycle,
)
from repro.harness.runner import client_loop
from repro.metrics import check_psi
from repro.sim.rng import make_rng
from repro.workloads import YCSBConfig, YCSBWorkload

from tests.harness import battery
from tests.harness.battery import (
    TracePoint,
    assert_one_clock,
    fault,
    keys_at,
    run_txn,
)
from tests.harness.oracle import assert_psi, increment_client

NUM_NODES = 4
KEYS = battery.keys(16)
CLIENTS_PER_NODE = 2
TXNS_PER_CLIENT = 20
#: A client abandons a transaction after this many timed-out/aborted
#: attempts; under a long-lived fault giving up is the only way to finish.
MAX_TXN_ATTEMPTS = 6

#: Faults strike while the workload is in full swing and heal well before
#: the (bounded) clients run out of transactions to inject.
FAULT_AT = 3e-3
FAULT_DURATION = 5e-3

SCHEDULES = {
    "participant_crash": crash_cycle(1, FAULT_AT, FAULT_DURATION),
    "coordinator_crash": crash_cycle(0, FAULT_AT, FAULT_DURATION),
    "partition_heal": partition_cycle(0, 2, FAULT_AT, FAULT_DURATION),
}

PROTOCOLS = ("fwkv", "walter", "2pc")


def build(protocol, seed, loss_rate=0.0, duplicate_rate=0.0, **config):
    """The battery's cluster with garbage collection on, lossy links if
    asked."""
    config.setdefault("gc_enabled", True)
    return battery.build(
        seed, protocol,
        directory=ShardMap(range(NUM_NODES), NUM_NODES),
        network=NetworkConfig(
            jitter=5e-6,
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            rpc=RpcConfig(request_timeout=1.5e-3, max_attempts=3),
        ),
        **config,
    )


def chaos_client(cluster, node_id, client_id, seed, txns=TXNS_PER_CLIENT):
    """A closed-loop client that survives fault-induced RPC timeouts.

    Unlike the fault-free nemesis client, every attempt is bounded: a read
    or commit whose retries are exhausted raises RpcTimeoutError, the
    transaction is rolled back, and after MAX_TXN_ATTEMPTS the client
    abandons the transaction entirely so the run always quiesces.
    """
    rng = make_rng(seed, "chaos-client", node_id, client_id)
    return increment_client(
        cluster, node_id, rng, KEYS, txns, read_only=0.4,
        backoff=(50e-6, 250e-6), pause=100e-6, attempts=MAX_TXN_ATTEMPTS,
    )


def run_chaos(protocol, schedule, seed, **config):
    """Every node's clients under ``schedule``, run to quiescence."""
    cluster, nemesis = build(protocol, seed, **config)
    nemesis.start(schedule)
    for node_id in range(NUM_NODES):
        for client_id in range(CLIENTS_PER_NODE):
            cluster.spawn(
                chaos_client(cluster, node_id, client_id, seed),
                name=f"chaos-client-{node_id}-{client_id}",
            )
    cluster.run()
    assert len(nemesis.applied) == len(schedule)
    return cluster, nemesis


def assert_safe_and_quiescent(cluster, pinned=None):
    """The graceful-degradation contract every chaotic run must honour;
    ``pinned(cluster)`` checks, in place of a clean verdict, the one
    violation a known gap leaves and returns the history."""
    # No RPC endpoint leaks pending request slots (timeouts retire them,
    # stale replies are dropped rather than matched).
    for protocol_node in cluster.nodes:
        assert protocol_node.node.rpc.pending_count == 0
    # No lock survives (presumed abort and the prepared-lock lease reclaim
    # them all), and nothing acknowledged is lost.
    if pinned is None:
        history = assert_psi(cluster, quiescent=True)
    else:
        history = pinned(cluster)
        assert not history.lost_writes, history.lost_writes[:5]
        assert not cluster.any_locks_held()
    # The fault window must not have starved the run entirely.
    assert len(history) > NUM_NODES * CLIENTS_PER_NODE


def effect_without_its_cause(cluster):
    """Found by the oracle (DESIGN.md 7): Walter's node 0 never gets the
    Propagates the partition dropped (healing is off), yet per-origin apply
    lets it take origin 1's commits, one of which read origin 2's write."""
    history = cluster.finalized_history()
    (violation,) = check_psi(history, cluster.version_catalog()).violations
    reader, cause, *effects = violation.cycle
    records = {record.txn_id: record for record in history}
    assert violation.kinds == ("cycle",) and records[reader].is_read_only
    assert records[reader].node_id == 0 and records[cause].node_id == 2
    stuck, caught_up = cluster.nodes[0].site_vc[2], cluster.nodes[1].site_vc[2]
    assert stuck < records[cause].seq_no <= caught_up
    assert all(records[effect].node_id != 2 for effect in effects)
    return history


#: (protocol, schedule) -> the check of the violation a known gap leaves.
PINNED = {("walter", "partition_heal"): effect_without_its_cause}


@pytest.mark.chaos
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
def test_chaos_safety(protocol, schedule_name):
    cluster, _ = run_chaos(protocol, SCHEDULES[schedule_name], seed=31)
    assert_safe_and_quiescent(cluster, PINNED.get((protocol, schedule_name)))


@pytest.mark.chaos
def test_crash_produces_timeout_aborts():
    """A mid-run crash surfaces as presumed-abort accounting, not wedging."""
    cluster, _ = run_chaos("fwkv", SCHEDULES["participant_crash"], seed=32)
    assert_safe_and_quiescent(cluster)
    stats = cluster.network.stats
    assert stats.drops_by_reason["crash"] > 0
    assert stats.rpc_timeouts > 0
    assert cluster.metrics.counters["aborted_timeout"] > 0


@pytest.mark.chaos
def test_partition_drops_then_heals():
    cluster, _ = run_chaos("fwkv", SCHEDULES["partition_heal"], seed=33)
    assert_safe_and_quiescent(cluster)
    assert cluster.network.stats.drops_by_reason["partition"] > 0
    # Healed: no directed link is cut at the end of the run.
    for a in range(NUM_NODES):
        for b in range(NUM_NODES):
            assert not cluster.network.is_partitioned(a, b)


@pytest.mark.chaos
def test_an_attempt_killed_by_a_partition_is_an_abort_not_a_rollback():
    """``client_loop`` under partition-then-heal: a read whose retries are
    exhausted is booked as an ``rpc_timeout`` abort -- it counts in the
    abort rate and in attempts per commit -- never as a business rollback,
    and the transaction is retried until it commits."""
    cluster, nemesis = build("fwkv", seed=34)
    workload = YCSBWorkload(YCSBConfig(num_keys=len(KEYS)))
    cluster.load_many(workload.load_items())
    attempts = []
    on_commit = cluster.metrics.on_commit
    cluster.metrics.on_commit = lambda txn, latency, n: (
        attempts.append(n), on_commit(txn, latency, n)
    )
    nemesis.start(SCHEDULES["partition_heal"])
    for node_id in range(NUM_NODES):
        cluster.spawn(client_loop(cluster, node_id, 0, workload, 12e-3))
    cluster.run()
    summary = cluster.metrics.summary()
    assert cluster.network.stats.drops_by_reason["partition"] > 0
    assert summary["rollbacks"] == 0
    timed_out = summary["aborts_by_reason"]["rpc_timeout"]
    assert timed_out > 0 and summary["aborted_timeout"] == timed_out
    # Every attempt is on the books: commits plus aborts.
    assert sum(attempts) == summary["commits"] + summary["aborts"]
    assert summary["abort_rate"] > 0
    assert_safe_and_quiescent(cluster)


def history_fingerprint(cluster):
    return [
        (
            record.txn_id,
            record.node_id,
            record.is_read_only,
            record.start_time,
            record.end_time,
            [(op.kind, op.key, op.vid, op.latest_vid_at_read)
             for op in record.ops],
        )
        for record in cluster.finalized_history()
    ]


@pytest.mark.chaos
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_chaos_runs_are_deterministic(protocol):
    """Same seed, same faults, same history -- loss and duplication too."""
    runs = [
        run_chaos(
            protocol,
            SCHEDULES["partition_heal"],
            seed=34,
            loss_rate=0.02,
            duplicate_rate=0.02,
        )[0]
        for _ in range(2)
    ]
    first, second = runs
    assert history_fingerprint(first) == history_fingerprint(second)
    assert first.network.stats == second.network.stats
    assert first.metrics.summary() == second.metrics.summary()
    assert first.network.stats.drops_by_reason["loss"] > 0
    assert first.network.stats.messages_duplicated > 0


# ----------------------------------------------------------------------
# In-doubt termination: a lost Decide does not lose the write
# ----------------------------------------------------------------------
def run_indoubt_decide_loss(durability=None):
    """Commit a cross-site transaction whose Decide is destroyed.

    A directed partition (coordinator -> participant) is installed at the
    participant's own prepare point -- the yes-vote still travels the
    reverse link, so the coordinator commits and its Decide drops.  The
    link heals well before the participant's prepared-lock lease fires,
    so the coordinator is alive and reachable when the participant must
    decide what to do with its in-doubt prepare.
    """
    cluster, nemesis = build(
        "fwkv", seed=35, durability=durability or DurabilityConfig()
    )
    # Coordinator 0, participant 1.
    keys = [keys_at(cluster, site, KEYS)[0] for site in (0, 1)]

    def cut_then_heal(_record):
        fault(nemesis, PARTITION, 0, 1)
        cluster.sim.call_later(2e-3, fault, nemesis, HEAL, 0, 1)

    point = TracePoint(cluster, "prepare", cut_then_heal, node=1)
    ok, txn = run_txn(cluster, 0, keys, attempts=1)
    assert point.fired
    assert ok  # the coordinator decided commit and acked the client
    return cluster, txn, keys


def committed_at(cluster, key, txn_id):
    node = cluster.nodes[cluster.directory.site(key)]
    return any(v.writer_txn == txn_id for v in node.store.chain(key))


def assert_decide_loss_lost_nothing(cluster, txn, keys):
    for key in keys:
        assert committed_at(cluster, key, txn.txn_id)
    assert cluster.metrics.counters["indoubt_committed"] == 1
    assert cluster.metrics.counters["lease_expirations"] == 0
    assert not cluster.any_locks_held()
    for protocol_node in cluster.nodes:
        assert protocol_node.node.rpc.pending_count == 0
        assert protocol_node.node.rpc.deadline_count == 0


@pytest.mark.chaos
def test_lease_expiry_asks_by_default_and_preserves_committed_write():
    """A lease and every other default: the participant whose Decide was
    lost asks the coordinator instead of presuming abort, and installs
    the write.  (Presume-first used to be the default, and dropped it.)"""
    cluster, txn, keys = run_indoubt_decide_loss()
    assert cluster.config.durability == DurabilityConfig()
    assert_decide_loss_lost_nothing(cluster, txn, keys)


@pytest.mark.chaos
def test_termination_query_preserves_committed_write():
    """The same answer from a logged decision: with the WAL on, what the
    coordinator's decision log holds is the record it forced."""
    cluster, txn, keys = run_indoubt_decide_loss(
        DurabilityConfig(wal_enabled=True)
    )
    assert cluster.nodes[0].in_doubt.log.by_txn[txn.txn_id].writes
    assert_decide_loss_lost_nothing(cluster, txn, keys)


# ----------------------------------------------------------------------
# Durable crash under a concurrent workload
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.recovery
@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_chaos_durable_crash_no_lost_commits(protocol):
    """A mid-workload durable crash (prepares in flight, coordinator
    alive) must not drop any acknowledged write at any site."""
    cluster, nemesis = run_chaos(
        protocol,
        durable_crash_cycle(1, FAULT_AT, FAULT_DURATION),
        seed=36,
        durability=DurabilityConfig(wal_enabled=True),
        gc_enabled=False,  # whole chains: the lost-write audit sees every key
    )
    assert_safe_and_quiescent(cluster)
    assert nemesis.restart_count == 1
    window = nemesis.down_windows[0]
    assert window.closed and window.node == 1
    assert cluster.nodes[1].recovery.recoveries == 1
    assert cluster.metrics.counters["recoveries"] == 1
    assert_one_clock(cluster)

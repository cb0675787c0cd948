"""Group-commit crash semantics: a crash between buffer and flush loses
exactly the unflushed WAL suffix, and never an acknowledged commit.

The flusher emits a ``wal_sync`` trace at the instant a sync *starts* --
after records joined the group buffer, before the fsync completes -- so
a trace-point crash there lands precisely in the window the tentpole's
recovery guarantee is about: every record past ``durable_lsn`` is
volatile and must vanish, while every commit the client saw acknowledged
had already waited for its Decision record's covering sync.
"""

import pytest

from repro import DurabilityConfig
from repro.cluster import ShardMap
from repro.faults import CRASH_DURABLE
from repro.sim.rng import make_rng
from repro.storage.wal import ApplyRecord, DecisionRecord, PropagateRecord

from tests.harness import battery
from tests.harness.battery import TracePoint, assert_one_clock, fault, restart
from tests.harness.oracle import assert_psi, increment_client

NUM_NODES = 4
VICTIM = 2

pytestmark = pytest.mark.recovery


def build(protocol, seed):
    return battery.build(
        seed, protocol,
        directory=ShardMap(range(NUM_NODES), NUM_NODES),
        durability=DurabilityConfig(wal_enabled=True, fsync_latency=50e-6),
    )


def client(cluster, node_id, client_id, *, txns=30):
    """Closed-loop client."""
    rng = make_rng(cluster.config.seed, "gc-recovery", node_id, client_id)
    return increment_client(
        cluster, node_id, rng, battery.keys(16), txns, read_only=0.3,
        backoff=(50e-6, 250e-6), pause=100e-6, attempts=6,
    )


def sync_group(wal, record):
    """The records a starting sync (its ``wal_sync`` trace) covers."""
    pending = record.details["pending"]
    start = record.details["cover"] - pending - wal.truncated
    return wal.records()[start:start + pending]


def run_crash_scenario(protocol, *, sync_count, when=None, seed=47):
    """Crash the victim at the start of its ``sync_count``-th wal_sync
    (of those satisfying ``when(group)``), restart it mid-run, and drive
    the workload to completion.

    Returns ``(cluster, loss_snapshot)`` where the snapshot captures the
    victim's exact volatile suffix at the crash instant.
    """
    cluster, nemesis = build(protocol, seed)
    victim = cluster.nodes[VICTIM]
    snapshot = {}

    def crash_action(record):
        # Captured before the fault applies: the volatile suffix the
        # freeze is about to drop.
        snapshot["expected_loss"] = victim.wal.tail_lsn - victim.wal.durable_lsn
        snapshot["durable_lsn"] = victim.wal.durable_lsn
        snapshot["group"] = sync_group(victim.wal, record)
        fault(nemesis, CRASH_DURABLE, VICTIM)

    point = TracePoint(
        cluster, "wal_sync", crash_action, node=VICTIM, count=sync_count,
        when=when and (lambda record: when(sync_group(victim.wal, record))),
    )

    def restarter():
        while not point.fired:
            if cluster.sim.now > 1.0:
                return  # workload long over; the assert below reports it
            yield cluster.sim.timeout(500e-6)
        yield cluster.sim.timeout(2e-3)
        restart(cluster, nemesis, VICTIM)

    for node_id in range(NUM_NODES):
        for client_id in range(2):
            cluster.spawn(client(cluster, node_id, client_id))
    cluster.spawn(restarter())
    cluster.run()

    assert point.fired, "workload never reached the chosen sync point"
    return cluster, snapshot


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_crash_between_buffer_and_flush_loses_exact_suffix(protocol):
    cluster, snapshot = run_crash_scenario(protocol, sync_count=25)
    victim = cluster.nodes[VICTIM]

    # The freeze dropped exactly the records past durable_lsn -- no
    # fewer (volatile records cannot survive) and no more (the durable
    # prefix is never touched).  A wal_sync emit guarantees at least one
    # record was pending, so the crash genuinely lost something.
    assert snapshot["expected_loss"] >= 1
    assert victim.wal.lost_on_crash == snapshot["expected_loss"]
    assert victim.recovery.recoveries == 1
    assert cluster.metrics.counters["recoveries"] == 1

    # Replay restarted from the surviving prefix: the records the crash
    # kept were re-read, none re-lost, and the flusher re-armed (the log
    # drained fully by quiescence).
    assert victim.wal.durable_lsn == victim.wal.tail_lsn
    assert victim.wal.tail_lsn >= snapshot["durable_lsn"]

    # No acknowledged commit vanished, and the history is PSI.
    assert_psi(cluster, quiescent=True)
    assert_one_clock(cluster)


def _mixes_forced_and_lazy(group):
    kinds = {type(record) for record in group}
    return DecisionRecord in kinds and bool(
        kinds & {ApplyRecord, PropagateRecord}
    )


def test_crash_at_a_sync_mixing_a_forced_decision_with_lazy_records():
    # A second crash point: the group on its way to disk holds a Decision
    # record its coordinator is blocked on *and* Apply/Propagate records
    # nobody waits for.  All of it dies; the decision was never
    # acknowledged, so its loss is presumed abort, not a lost commit.
    cluster, snapshot = run_crash_scenario(
        "fwkv", sync_count=2, when=_mixes_forced_and_lazy
    )
    victim = cluster.nodes[VICTIM]
    assert _mixes_forced_and_lazy(snapshot["group"])
    assert snapshot["expected_loss"] >= len(snapshot["group"]) >= 2
    assert victim.wal.lost_on_crash == snapshot["expected_loss"]
    assert victim.wal.durable_lsn == victim.wal.tail_lsn
    lost_decisions = {
        record.txn_id for record in snapshot["group"]
        if isinstance(record, DecisionRecord)
    }
    history = assert_psi(cluster, quiescent=True)
    committed = {record.txn_id for record in history.committed_updates()}
    assert lost_decisions and not lost_decisions & committed
    assert_one_clock(cluster)

"""The primary -> backup stream machinery: pump, ack wait, traffic budget.

Unit-level scenarios on small clusters, driven through the public hooks
(``note_apply``, ``replicate_decision``) and observed from outside:
``network.stats``, the metrics recorder, the tracer, and a
``delay_policy`` tap that sees every envelope at send time.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Cluster,
    ClusterConfig,
    DurabilityConfig,
    NetworkConfig,
    ReplicationConfig,
    RpcConfig,
    ShardingConfig,
)
from repro.core.wire import DecideBody
from repro.faults import Nemesis
from repro.faults.schedules import CRASH_DURABLE, RESTART, FaultEvent
from repro.healing.detector import ALIVE
from repro.net.message import MessageType
from repro.replication.backup import BackupState
from repro.replication import shard
from repro.replication.shard import RETRY_INTERVAL, SYNC_TIMEOUT, WINDOW, _AckLatch
from repro.storage.wal import ReplicationRecord

NUM_KEYS = 12
REPLICATE = MessageType.REPLICATE

pytestmark = pytest.mark.replication


def build(num_nodes=3, *, factor=2, rpc=None, wal=False, network=None):
    config = ClusterConfig(
        num_nodes=num_nodes,
        seed=7,
        network=NetworkConfig(rpc=rpc or RpcConfig(), **(network or {})),
        sharding=ShardingConfig(enabled=True, num_shards=NUM_KEYS),
        replication=ReplicationConfig(
            enabled=True, replication_factor=factor, mode="sync"
        ),
        durability=DurabilityConfig(wal_enabled=wal),
    )
    cluster = Cluster("fwkv", config)
    for i in range(NUM_KEYS):
        cluster.load(f"k{i}", 0)
    return cluster


def owned_key(cluster, node_id):
    return next(
        f"k{i}" for i in range(NUM_KEYS)
        if cluster.directory.site(f"k{i}") == node_id
    )


def stream_apply(cluster, node_id, key, seq_no):
    """One ``apply`` record from ``node_id`` to the backups of ``key``."""
    width = len(cluster.nodes)
    commit_vc = tuple(seq_no if i == node_id else 0 for i in range(width))
    cluster.node(node_id).replication.note_apply(
        DecideBody(1000 + seq_no, True, node_id, seq_no, commit_vc),
        {key: seq_no},
    )


def cut(cluster, a, b):
    cluster.network.partition(a, b)
    cluster.network.partition(b, a)


def replicate_count(cluster):
    return cluster.network.stats.messages_by_type[REPLICATE]


def live_timers(cluster, fn):
    """Uncancelled scheduler entries that would call ``fn``."""
    sim = cluster.sim
    return [
        entry for entry in list(sim._heap) + list(sim._ready)
        if not entry[2].cancelled
        and getattr(entry[3], "__func__", entry[3]) is fn
    ]


# ----------------------------------------------------------------------
# Traffic budget
# ----------------------------------------------------------------------
def run_mixed_traffic(cluster, count=60):
    """Serialized 2-key transactions, every third read-only; returns the
    update-commit count and a tap's view of the REPLICATE traffic.
    ``kinds`` also carries two sums over the update commits, taken at
    each coordinator: ``"decision budget"`` (``rf - 1`` homes plus the
    ``rf - 1`` backups of each own shard written) and ``"every stream"``
    (``len(_all_backups())``, what a decision cost before it was
    scoped)."""
    kinds = Counter()
    in_flight = Counter()
    peak = Counter()

    def tap(envelope):
        link = (envelope.src, envelope.dst)
        if envelope.msg_type == REPLICATE:
            entries = envelope.payload.entries
            kinds.update(entry.kind for entry in entries)
            kinds["batch of more than one"] += len(entries) > 1
            in_flight[link] += 1
            peak[link] = max(peak[link], in_flight[link])
        elif envelope.msg_type == MessageType.REPLICATE_ACK:
            in_flight[(envelope.dst, envelope.src)] -= 1
        return 0.0

    cluster.network.delay_policy = tap
    rng = random.Random(1)
    keys = [f"k{i}" for i in range(NUM_KEYS)]
    updates = [0]

    def driver():
        for n in range(count):
            node = cluster.node(n % 3)
            read_only = n % 3 == 2
            txn = node.begin(is_read_only=read_only)
            chosen = rng.sample(keys, 2)
            values = []
            for key in chosen:
                values.append((yield from node.read(txn, key)))
            if not read_only:
                for key, value in zip(chosen, values):
                    node.write(txn, key, value + 1)
                updates[0] += 1
                directory = cluster.directory
                own_shards = {
                    directory.shard_of(key) for key in chosen
                    if directory.site(key) == node.node_id
                }
                copies = cluster.config.replication.replication_factor - 1
                kinds["decision budget"] += copies * (1 + len(own_shards))
                kinds["every stream"] += len(node.replication._all_backups())
            assert (yield from node.commit(txn))
            yield cluster.sim.timeout(2e-4)

    cluster.run_process(driver())
    return updates[0], kinds, peak


def test_streams_carry_only_a_commits_own_records():
    """A stream carries ``prepare`` / ``abort`` / ``decision`` / ``apply``
    records and nothing else: a clock-only advance -- a Propagate, or a
    catch-up (recovery, gossip pull, join bootstrap) -- streams nothing.
    A 2-key update commit costs at most 6 REPLICATE messages on 3 nodes:
    prepare and apply to the <= 2 written shards' backups, decision to the
    coordinator's home and the backups of the own shards it wrote (<= 2
    streams here)."""
    cluster = build()
    updates, kinds, peak = run_mixed_traffic(cluster)
    cluster.run()
    sent = replicate_count(cluster)
    assert sent <= 6 * updates
    primary = cluster.node(0)
    cluster.run_process(primary.applier.advance_to(1, primary.site_vc[1] + 3))
    cluster.run()
    assert replicate_count(cluster) == sent
    records = {kind for kind in kinds if " " not in kind}  # not the sums
    assert {"prepare", "decision", "apply"} <= records
    assert records <= {"prepare", "abort", "decision", "apply"}
    # No record waits behind an unacknowledged batch while the window
    # has room: each leaves alone, at its enqueue, and the window is used.
    assert kinds["batch of more than one"] == 0
    assert 1 < max(peak.values()) <= WINDOW
    assert cluster.metrics.counters["replication_sync_degraded"] == 0
    assert cluster.network.stats.rpc_timeouts == 0


def test_backup_frontier_moves_only_with_apply_records():
    """``BackupState.frontier`` -- a promotion's re-stage floor -- is the
    primary's clock as the newest ``apply`` record carried it: a catch-up
    in between moves it at no backup, and the next ``apply`` carries it."""
    cluster = build()
    primary = cluster.node(0)
    key = owned_key(cluster, 0)
    (backup,) = cluster.replication.backups_for_key(key)
    stream_apply(cluster, 0, key, 1)
    cluster.run()
    state = cluster.node(backup).replication.backup_state[0]
    applied = primary.site_vc.to_tuple()
    assert state.frontier == applied and state.applied == 1

    cluster.run_process(primary.applier.advance_to(1, applied[1] + 3))
    cluster.run()
    assert primary.site_vc[1] == applied[1] + 3
    assert state.frontier == applied and state.applied == 1

    stream_apply(cluster, 0, key, 2)
    cluster.run()
    assert state.frontier == primary.site_vc.to_tuple() != applied
    assert state.applied == 2


@pytest.mark.parametrize("factor", [2, 3])
def test_decision_records_go_to_homes_and_written_own_shards(factor):
    """On five nodes a coordinator keeps 2-4 streams; its ``decision``
    record goes to ``rf - 1`` of them plus the backups of the own shards
    the commit wrote, not to all."""
    cluster = build(num_nodes=5, factor=factor)
    updates, kinds, _ = run_mixed_traffic(cluster)
    assert updates * (factor - 1) <= kinds["decision"]
    assert kinds["decision"] <= kinds["decision budget"] < kinds["every stream"]
    assert cluster.metrics.counters["replication_sync_degraded"] == 0


@settings(max_examples=60, deadline=None)
@given(
    num_nodes=st.integers(3, 8),
    num_shards=st.integers(4, 64),
    factor=st.integers(2, 3),
    data=st.data(),
)
def test_decision_targets_are_homes_plus_written_own_shards(
    num_nodes, num_shards, factor, data
):
    """The placement rule against a model written out longhand: the
    targets are the first ``rf - 1`` live backups met walking the
    coordinator's shards in order, plus every backup that staged the
    commit's self-coordinated ``prepare`` -- a function of ``(placement,
    shards_of(node), down, written keys)`` and of nothing else."""
    cluster = Cluster("fwkv", ClusterConfig(
        num_nodes=num_nodes,
        sharding=ShardingConfig(enabled=True, num_shards=num_shards),
        replication=ReplicationConfig(enabled=True, replication_factor=factor),
    ))
    coordinator = data.draw(st.integers(0, num_nodes - 1), label="coordinator")
    others = [n for n in range(num_nodes) if n != coordinator]
    down = data.draw(
        st.sets(st.sampled_from(others), max_size=num_nodes - 2), label="down"
    )
    picked = data.draw(st.sets(st.integers(0, 255), max_size=6), label="keys")
    rep = cluster.replication
    rep.down.update(down)
    rep.version += 1
    directory = cluster.directory
    node_rep = cluster.node(coordinator).replication
    writes = {
        f"k{i}": i for i in sorted(picked)
        if directory.site(f"k{i}") == coordinator
    }

    live = []
    for shard in directory.shards_of(coordinator):
        for backup in rep.placement[shard]:
            if backup not in down and backup not in live:
                live.append(backup)
    homes = set(live[: factor - 1])
    staged_on = {
        stream.backup for stream, _seq in node_rep._enqueue_by_key(
            writes, "prepare", txn_id=1, coordinator=coordinator, round=0
        )
    }
    every = set(node_rep._all_backups())
    targets = node_rep._decision_targets(writes)

    assert every == set(live)
    assert len(homes) == min(factor - 1, len(every))
    assert set(node_rep._decision_targets()) == homes
    assert set(targets) == homes | staged_on <= every
    assert len(set(targets)) == len(targets)
    rep.version += 1  # drop the cache: same inputs, same answer
    assert node_rep._decision_targets(writes) == targets


# ----------------------------------------------------------------------
# Ack wait
# ----------------------------------------------------------------------
def decision_wait(cluster, node_id, txn_id=900, seq_no=1):
    """Spawn one sync ``replicate_decision`` wait on ``node_id``; the
    returned dict fills with the waiter's wake-up count and finish time."""
    rep = cluster.node(node_id).replication
    width = len(cluster.nodes)
    report = {"wakeups": 0}

    def waiter():
        inner = rep.replicate_decision(
            txn_id, seq_no, tuple([0] * width), frozenset()
        )
        try:
            target = next(inner)
            while True:
                value = yield target
                report["wakeups"] += 1
                target = inner.send(value)
        except StopIteration:
            report["done_at"] = cluster.sim.now

    cluster.spawn(waiter(), name="ack-wait")
    return report


def test_sync_wait_over_several_streams_wakes_once():
    cluster = build(num_nodes=4, factor=3)
    rep = cluster.node(0).replication
    assert len(rep._all_backups()) == 3
    report = decision_wait(cluster, 0)
    cluster.run(until=1e-3)
    assert report["wakeups"] == 1
    assert report["done_at"] < 1e-4  # one round trip, not a timeout
    assert all(
        stream.acked == 1 and not stream.waiters
        for stream in rep.streams.values()
    )
    assert cluster.metrics.counters["replication_sync_degraded"] == 0
    assert not live_timers(cluster, _AckLatch.expire)


def test_sync_timeout_degrades_once_and_names_the_pending_backups():
    cluster = build(num_nodes=4, factor=3)
    cluster.tracer.enable("replication_degraded")
    cut(cluster, 0, 2)
    report = decision_wait(cluster, 0)
    cluster.run(until=5e-3)
    assert report["wakeups"] == 1
    assert report["done_at"] == pytest.approx(SYNC_TIMEOUT)
    assert cluster.metrics.counters["replication_sync_degraded"] == 1
    (record,) = cluster.tracer.of_kind("replication_degraded")
    assert record.node == 0 and record.details["backups"] == (2,)
    # The record stays queued for retransmission; only the wait is gone.
    stream = cluster.node(0).replication.streams[2]
    assert stream.outbox and not stream.waiters
    cluster.network.heal_all()
    cluster.run(until=10e-3)
    assert stream.acked == 1 and not stream.outbox


@pytest.mark.parametrize("release", ["backup_crash", "retire"])
def test_closing_stream_releases_the_waiter_before_the_timeout(release, monkeypatch):
    monkeypatch.setattr(shard, "SYNC_TIMEOUT", 50e-3)
    cluster = build(num_nodes=4, factor=3)
    cut(cluster, 0, 2)
    report = decision_wait(cluster, 0)
    if release == "backup_crash":
        # Noticed when the unacked batch comes up for retransmission.
        cluster.network.crash(2)
    else:
        cluster.sim.call_later(3e-4, cluster.node(0).replication.retire)
    cluster.run(until=10e-3)
    assert report["wakeups"] == 1
    assert report["done_at"] < 3e-3
    assert cluster.node(0).replication.streams[2].closed
    assert cluster.metrics.counters["replication_sync_degraded"] == 0
    assert not live_timers(cluster, _AckLatch.expire)


def test_acked_waits_leave_no_timer_behind(monkeypatch):
    """1k sync waits against a far-away ``SYNC_TIMEOUT``: every wait's
    timer is cancelled on its ack, and the scheduler compacts them."""
    monkeypatch.setattr(shard, "SYNC_TIMEOUT", 10.0)
    cluster = build(num_nodes=4, factor=3)
    rep = cluster.node(0).replication
    width = len(cluster.nodes)

    def driver():
        for n in range(1000):
            yield from rep.replicate_decision(
                n, n + 1, tuple([0] * width), frozenset()
            )

    cluster.run_process(driver())
    assert cluster.sim.now < 1.0
    assert not live_timers(cluster, _AckLatch.expire)
    assert cluster.sim.pending_count < 256
    assert cluster.metrics.counters["replication_sync_degraded"] == 0


@pytest.mark.parametrize("release", ["ack", "close"])
def test_after_acked_fires_once_on_the_last_ack_or_a_close_never_on_enqueue(
    release, monkeypatch,
):
    """S5's primitive: the callback waits for every listed record -- the
    slower stream's included -- or for that stream to close; with nothing
    pending it runs at once; no waiter or timer outlives it."""
    monkeypatch.setattr(shard, "SYNC_TIMEOUT", 50e-3)
    cluster = build(num_nodes=4, factor=3)
    rep = cluster.node(0).replication
    fired = []
    cut(cluster, 0, 2)
    targets = [
        (rep._stream(backup), rep._enqueue(backup, "apply", txn_id=backup))
        for backup in rep._all_backups()
    ]
    assert len(targets) == 3
    rep.after_acked(targets, lambda: fired.append(cluster.sim.now))
    assert not fired  # enqueued and sent, not acknowledged
    cluster.run(until=5e-4)
    assert not fired and rep.streams[1].acked == rep.streams[3].acked == 1
    if release == "ack":
        cluster.network.heal_all()
    else:
        cluster.network.crash(2)
    cluster.run(until=10e-3)
    assert len(fired) == 1 and fired[0] < 5e-3
    assert rep.streams[2].closed == (release == "close")
    assert not any(stream.waiters for stream in rep.streams.values())
    assert not live_timers(cluster, _AckLatch.expire)
    rep.after_acked(targets, lambda: fired.append("at once"))
    assert fired[1:] == ["at once"]
    assert cluster.metrics.counters["replication_sync_degraded"] == 0


# ----------------------------------------------------------------------
# Pump
# ----------------------------------------------------------------------
def test_lost_ack_retransmits_the_unacked_suffix_and_backup_dedups():
    cluster = build(num_nodes=2)
    key = owned_key(cluster, 0)
    batches = []

    def tap(envelope):
        if envelope.msg_type == REPLICATE:
            batches.append([entry.seq for entry in envelope.payload.entries])
        return 0.0

    cluster.network.delay_policy = tap
    stream_apply(cluster, 0, key, 1)
    stream = cluster.node(0).replication.streams[1]
    cluster.network.partition(1, 0)  # the batches arrive, their acks are lost
    cluster.run(until=5e-4)
    backup = cluster.node(1).replication.backup_state[0]
    assert backup.applied == 1 and stream.acked == 0
    stream_apply(cluster, 0, key, 2)  # leaves at once: the window has room
    assert batches == [[1], [2]]
    retry = RETRY_INTERVAL
    cluster.run(until=retry + 5e-4)  # one deadline, one strike
    assert cluster.network.stats.rpc_timeouts == 1
    assert backup.applied == 2 and stream.acked == 0
    cluster.network.heal_all()
    cluster.run(until=2 * retry + 5e-4)
    assert cluster.network.stats.rpc_timeouts == 1
    assert batches == [[1], [2], [1, 2]]  # the resend, from the ack
    assert stream.acked == 2 and not stream.outbox and not stream.flights
    assert stream.timer is None and backup.applied == 2
    # Records 1 and 2 arrived twice each and were installed once.
    values = [version.value for version in cluster.node(1).store.chain(key)]
    assert values == [0, 1, 2]


def test_a_lost_batch_on_a_live_link_is_resent_on_the_next_ack():
    """The first batch is lost, the second arrives past the gap: its ack
    shows no progress, so the stream resends from the ack at once -- one
    round trip, no deadline, no strike against a backup that answers."""
    cluster = build(num_nodes=2)
    key = owned_key(cluster, 0)
    batches = []
    cluster.network.delay_policy = lambda envelope: (
        envelope.msg_type == REPLICATE
        and batches.append([entry.seq for entry in envelope.payload.entries])
    ) or 0.0
    cluster.network.partition(0, 1)
    stream_apply(cluster, 0, key, 1)
    cluster.run(until=1e-4)  # dropped on arrival
    cluster.network.heal_all()
    stream_apply(cluster, 0, key, 2)
    stream = cluster.node(0).replication.streams[1]
    rtt = 2 * cluster.config.network.base_latency
    cluster.run(until=cluster.sim.now + 2 * rtt + 10e-6)
    assert batches == [[1], [2], [1, 2]]
    assert stream.acked == 2 and not stream.flights
    assert cluster.network.stats.rpc_timeouts == 0
    cluster.run(until=cluster.sim.now + 3 * RETRY_INTERVAL)
    assert cluster.network.stats.rpc_timeouts == 0 and len(batches) == 3


def test_closing_before_the_first_batch_refuses_it():
    """A node told to refuse a deposed primary before that primary's
    first batch reached it refuses the batch when it comes: ``-1``."""
    cluster = build(num_nodes=2)
    key = owned_key(cluster, 0)
    cluster.node(1).replication.close_backup_state(0)
    stream_apply(cluster, 0, key, 1)
    cluster.run()
    assert cluster.node(0).replication.streams[1].closed
    assert cluster.node(1).replication.backup_state[0].applied == 0
    assert [v.value for v in cluster.node(1).store.chain(key)] == [0]


def test_a_cut_link_strikes_once_per_deadline_not_once_per_batch():
    """Eight records into a cut link fill the window -- four batches on
    the wire, the rest queued -- and cost what one record does: a strike
    per deadline, then a resend of one batch from the ack."""
    cluster = build(num_nodes=2)
    key = owned_key(cluster, 0)
    cut(cluster, 0, 1)
    for seq_no in range(1, 9):
        stream_apply(cluster, 0, key, seq_no)
    stream = cluster.node(0).replication.streams[1]
    assert replicate_count(cluster) == WINDOW and stream.flights == [1, 2, 3, 4]
    retry = RETRY_INTERVAL
    cluster.run(until=4 * retry + 5e-4)
    assert cluster.network.stats.rpc_timeouts == 2
    assert replicate_count(cluster) == WINDOW + 2
    assert stream.flights == [8] and stream.window == 1
    cluster.network.heal_all()
    cluster.run(until=10e-3)
    assert stream.acked == 8 and not stream.flights and stream.timer is None
    assert stream.window == WINDOW
    assert cluster.node(1).replication.backup_state[0].applied == 8


def test_a_refusal_from_before_a_re_bootstrap_is_dropped():
    """The backup refuses a batch (its stream from us was closed), and
    the stream is re-bootstrapped while that ``-1`` is on the wire: the
    refusal carries the old incarnation and must not close the new one."""
    cluster = build(num_nodes=2)
    key = owned_key(cluster, 0)
    rep, backup = cluster.node(0).replication, cluster.node(1).replication
    stream_apply(cluster, 0, key, 1)
    cluster.run()
    backup.close_backup_state(0)
    stream_apply(cluster, 0, key, 2)
    stream = rep.streams[1]
    acks = cluster.network.stats.messages_by_type[MessageType.REPLICATE_ACK]
    cluster.run(until=cluster.sim.now + 30e-6)  # the -1 is on its way back
    assert cluster.network.stats.messages_by_type[
        MessageType.REPLICATE_ACK] == acks + 1
    rep.reset_stream(1)
    backup.adopt_stream(0, applied=stream.acked, frontier=None)
    cluster.run()
    assert not stream.closed and stream.incarnation == 1
    stream_apply(cluster, 0, key, 3)
    cluster.run()
    assert stream.acked == 3 and backup.backup_state[0].applied == 3


def test_a_backup_that_lost_acknowledged_records_refuses_the_stream():
    """A backup whose WAL replay rebuilt less than it had acknowledged
    sees a batch carrying the primary's higher ``acked`` and refuses it:
    the stream closes for a re-bootstrap instead of waiting on a gap no
    retransmission can fill."""
    cluster = build(num_nodes=2)
    key = owned_key(cluster, 0)
    for seq_no in (1, 2):
        stream_apply(cluster, 0, key, seq_no)
    cluster.run()
    stream = cluster.node(0).replication.streams[1]
    assert stream.acked == 2
    cluster.node(1).replication.on_recovered({0: BackupState(applied=1)})
    stream_apply(cluster, 0, key, 3)
    cluster.run(until=cluster.sim.now + 10 * RETRY_INTERVAL)
    assert stream.closed and not stream.outbox and stream.timer is None
    assert cluster.network.stats.rpc_timeouts == 0


def test_durable_primary_crash_orphans_the_inflight_batch():
    cluster = build(num_nodes=3, wal=True)
    nemesis = Nemesis(cluster)
    key = owned_key(cluster, 0)
    (backup,) = cluster.replication.backups_for_key(key)
    stream_apply(cluster, 0, key, 1)
    rep = cluster.node(0).replication
    stream = rep.streams[backup]
    assert stream.flights == [1] and stream.timer is not None
    incarnation = cluster.node(0)._incarnation
    nemesis.apply(FaultEvent(0.0, CRASH_DURABLE, 0))
    cluster.run(until=3e-4)
    nemesis.apply(FaultEvent(cluster.sim.now, RESTART, 0))
    assert cluster.node(0)._incarnation == incarnation + 1
    assert stream.closed and stream.incarnation == 1
    assert not stream.flights and stream.timer is None
    # The stream's deadline went with it: nothing is retransmitted,
    # struck or reopened.
    cluster.run(until=10e-3)
    assert replicate_count(cluster) == 1
    assert cluster.network.stats.rpc_timeouts == 0
    assert stream.closed and not stream.flights and not stream.outbox
    assert not live_timers(cluster, type(rep)._expire)
    assert not live_timers(cluster, type(rep)._resend)


@settings(max_examples=40, deadline=None)
@given(
    bursts=st.lists(
        st.tuples(st.integers(0, 800), st.integers(1, 24)),
        min_size=1, max_size=6,
    ),
    loss=st.sampled_from([0.0, 0.05, 0.3]),
    duplicate=st.sampled_from([0.0, 0.2]),
    cut_at=st.integers(0, 3000),
    cut_for=st.integers(0, 6000),
)
def test_the_stream_contract_holds_under_loss_duplication_and_a_partition(
    bursts, loss, duplicate, cut_at, cut_for
):
    """Bursts of records (a pause in us, then a count) into one stream,
    under per-message loss and duplication and one partition window (us)
    that heals: the backup applies exactly the enqueued sequence, each
    record once; every sync latch fires once; strikes come at least a
    ``RETRY_INTERVAL`` apart; and once the outbox drains nothing is
    pending, armed or unacknowledged."""
    cluster = build(
        num_nodes=2, wal=True,
        network={"loss_rate": loss, "duplicate_rate": duplicate},
    )
    sim = cluster.sim
    rep = cluster.node(0).replication
    rpc = cluster.node(0).node.rpc
    strikes, enqueued, latches, fired = [], [], [], Counter()
    strike = rpc.strike
    rpc.strike = lambda dst: (strikes.append(sim.now), strike(dst))
    if cut_for:
        sim.call_later(cut_at * 1e-6, cut, cluster, 0, 1)
        sim.call_later((cut_at + cut_for) * 1e-6, cluster.network.heal_all)

    def producer():
        for pause, count in bursts:
            yield sim.timeout(pause * 1e-6)
            stream = rep._stream(1)
            targets = []
            for _ in range(count):
                seq = rep._enqueue(1, "apply", txn_id=len(enqueued))
                enqueued.append(stream.outbox[-1])
                targets.append((stream, seq))
            latch = rep._latch(targets)
            if latch is not None:
                latches.append(latch)
                latch.add_callback(lambda latch: fired.update([latch]))

    cluster.spawn(producer(), name="producer")
    cluster.run(until=1.0)

    stream = rep.streams[1]
    applied = [
        record.entry for record in cluster.node(1).wal.records()
        if isinstance(record, ReplicationRecord)
    ]
    assert applied == enqueued
    assert cluster.node(1).replication.backup_state[0].applied == len(enqueued)
    assert latches and [fired[latch] for latch in latches] == [1] * len(latches)
    assert all(later - earlier >= RETRY_INTERVAL
               for earlier, later in zip(strikes, strikes[1:]))
    assert stream.acked == stream.next_seq - 1 == len(enqueued)
    assert not stream.outbox and not stream.flights and not stream.waiters
    assert stream.timer is None and stream.window == WINDOW
    for node in cluster.nodes:
        assert node.node.rpc.pending_count == node.node.rpc.deadline_count == 0
    for fn in (type(rep)._expire, type(rep)._resend, _AckLatch.expire):
        assert not live_timers(cluster, fn)


def test_timed_out_batch_strikes_the_detector_under_a_global_timeout():
    cluster = build(
        num_nodes=3, rpc=RpcConfig(request_timeout=1.5e-3, max_attempts=3)
    )
    key = owned_key(cluster, 0)
    (backup,) = cluster.replication.backups_for_key(key)
    detector = cluster.node(0).healing.detector
    assert cluster.node(0).node.rpc.detector is detector
    cut(cluster, 0, backup)
    stream_apply(cluster, 0, key, 1)
    retry = RETRY_INTERVAL
    # Deadline (a strike) + pause per attempt; two strikes make a suspect.
    cluster.run(until=4 * retry + 5e-4)
    assert cluster.network.stats.rpc_timeouts == 2
    assert replicate_count(cluster) == 3
    assert detector.state(backup) != ALIVE

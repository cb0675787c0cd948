"""Crash battery for the one-force commit path (DESIGN.md 5.10, C1-C4).

A participant votes without waiting for its ``PrepareRecord``'s sync, so
a durable crash can take the record of a vote the coordinator already
counted.  Every case here crashes a node at a protocol-chosen point with
such a record still volatile -- asserted, as each case's precondition,
from the victim's WAL at the crash instant -- and checks the rebuilt
cluster against a never-crashed control run of the same scenario:

(a) the vote was delivered, another participant's is outstanding: the
    recovering node's SYNC dooms the round, the coordinator re-prepares;
(b) the decision is durable, the Decide died with the crash: recovery
    re-stages the prepare from the coordinator and installs the commit;
(c) coordinator and participant crash together, restart in either order;
(d) a second crash after re-staging: the re-logged prepare is an
    ordinary in-doubt entry;
(e) a durable prepare with a lost apply and a lost prepare on one key:
    the chain replays first-committer-wins order.

The victim's disk is made slower than its peers' (a test-only poke at
its flusher) so the window each case needs is wide and deterministic.
The scaffold is ``tests.harness.battery``; seeds come from
``RECOVERY_SEEDS``, as for the rest of the suite.
"""

import pytest

from repro import DurabilityConfig
from repro.cluster import ShardMap
from repro.faults import CRASH_DURABLE
from repro.net.message import MessageType
from repro.sim.rng import make_rng
from repro.storage.wal import ApplyRecord, PrepareRecord

from tests.harness import battery
from tests.harness.battery import (
    TracePoint,
    assert_one_clock,
    fault,
    fingerprints,
    restart,
    rmw,
    rmw_plan,
    run_plan,
)
from tests.harness.oracle import assert_psi

NUM_NODES = 4
KEYS = battery.keys(16)
COORDINATOR = 0
OTHER = 1
VICTIM = 2
FSYNC = 50e-6
#: The victim's own sync time: long enough that its ``PrepareRecord`` is
#: still volatile when the coordinator's decision (one ``FSYNC`` after
#: the votes) is already durable.
SLOW_DISK = 500e-6

SEEDS = battery.seeds("RECOVERY_SEEDS", "41,42")
PROTOCOLS = ("fwkv", "walter")

pytestmark = pytest.mark.recovery


class Run:
    """One scenario run: the cluster, its nemesis, the crash instant."""

    def __init__(self, protocol, seed):
        self.cluster, self.nemesis = battery.build(
            seed, protocol,
            directory=ShardMap(range(NUM_NODES), NUM_NODES),
            durability=DurabilityConfig(wal_enabled=True, fsync_latency=FSYNC),
        )
        self.victim = self.cluster.nodes[VICTIM]
        self.victim.flusher.fsync_latency = SLOW_DISK
        self.rng = make_rng(seed, "restage-battery")
        #: Filled by :meth:`crash_victim` at the crash instant.
        self.at_crash = {}

    def key_at(self, site):
        return battery.keys_at(self.cluster, site, KEYS)[0]

    def txn(self, coordinator, keys, **kwargs):
        """Generator: :func:`battery.rmw` on this run's cluster."""
        return rmw(self.cluster, coordinator, keys, **kwargs)

    def warm_up(self, count=8):
        """Sequential commits everywhere, so replay has chains to rebuild."""
        run_plan(self.cluster, rmw_plan(self.rng, range(NUM_NODES), count, KEYS))
        self.cluster.run()

    def prepare_lsn(self, txn_id, node=None):
        """Absolute LSN of ``txn_id``'s newest PrepareRecord at ``node``."""
        wal = (node or self.victim).wal
        lsns = [
            wal.truncated + index + 1
            for index, record in enumerate(wal.records())
            if isinstance(record, PrepareRecord) and record.txn_id == txn_id
        ]
        return lsns[-1] if lsns else None

    def crash_victim(self, txn_id, node=VICTIM):
        """Durably crash ``node`` now, recording the precondition every
        case shares: ``txn_id``'s PrepareRecord there is still volatile."""
        crashed = self.cluster.nodes[node]
        self.at_crash.update(
            durable_lsn=crashed.wal.durable_lsn,
            prepare_lsn=self.prepare_lsn(txn_id, crashed),
            time=self.cluster.sim.now,
        )
        fault(self.nemesis, CRASH_DURABLE, node)

    def assert_prepare_was_volatile(self):
        assert self.at_crash, "the crash point was never reached"
        assert self.at_crash["prepare_lsn"] is not None
        assert self.at_crash["durable_lsn"] < self.at_crash["prepare_lsn"]

    def holds(self, node_id, key, txn_id):
        node = self.cluster.nodes[node_id]
        return key in node.store and any(
            v.writer_txn == txn_id for v in node.store.chain(key)
        )

    def counter(self, name):
        return self.cluster.metrics.counters[name]

    def sent(self, msg_type):
        return self.cluster.network.stats.messages_by_type[msg_type]

    def finish(self):
        """Keep going after the repair, then check the whole history."""
        cluster = self.cluster
        for node_id in range(NUM_NODES):
            cluster.spawn(self._client(node_id))
        cluster.run()
        assert_psi(cluster, quiescent=True)
        assert_one_clock(cluster)
        for node in cluster.nodes:
            assert not node._prepared and not node.in_doubt.rounds
            assert node.wal.durable_lsn == node.wal.tail_lsn

    def _client(self, node_id, txns=12):
        rng = make_rng(self.cluster.config.seed, "restage-client", node_id)
        for _ in range(txns):
            yield from self.txn(node_id, rng.sample(KEYS, 2), attempts=6)
            yield self.cluster.sim.timeout(rng.uniform(0, 100e-6))



def decide_dropped(protocol, seed, *, crash, recover=True):
    """Case (b).  T (coordinator 0; one key at node 1, one at the victim)
    commits and is acknowledged; the victim dies at the coordinator's
    ``commit`` emit, its Decide on the wire and its prepare volatile.
    ``recover=False`` leaves the victim down for the caller."""
    run = Run(protocol, seed)
    run.warm_up()
    keys = [run.key_at(OTHER), run.key_at(VICTIM)]
    process = run.cluster.spawn(run.txn(COORDINATOR, keys, attempts=1))
    if crash:
        point = TracePoint(
            run.cluster, "commit",
            lambda record: run.crash_victim(record.details["txn"]),
            node=COORDINATOR,
        )
    run.cluster.run()
    ok, txn = process.value
    assert ok
    run.txn_id, run.keys_written, run.seq_no = txn.txn_id, keys, txn.seq_no
    if crash:
        assert point.fired
        run.assert_prepare_was_volatile()
        assert not run.holds(VICTIM, keys[1], txn.txn_id)
    if crash and recover:
        syncs, queries = run.sent(MessageType.SYNC), run.sent(MessageType.TXN_STATUS)
        restart(run.cluster, run.nemesis, VICTIM)
        run.cluster.run()
        # One request per peer, none per transaction.
        assert run.sent(MessageType.SYNC) - syncs == NUM_NODES - 1
        assert run.sent(MessageType.TXN_STATUS) == queries
    run.barrier = fingerprints(run.cluster)
    return run


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lost_prepare_is_restaged_from_the_coordinators_decision(protocol, seed):
    crashed = decide_dropped(protocol, seed, crash=True)
    control = decide_dropped(protocol, seed, crash=False)
    assert crashed.barrier == control.barrier
    assert crashed.victim.recovery.recoveries == 1
    assert crashed.counter("prepares_restaged") == 1
    assert control.counter("prepares_restaged") == 0
    # Installed with its data under its own tick, never clock-only.
    key = crashed.keys_written[1]
    version = crashed.victim.store.chain(key).latest
    assert (version.writer_txn, version.origin, version.seq) == (
        crashed.txn_id, COORDINATOR, crashed.seq_no
    )
    applies = [
        record for record in crashed.victim.wal.records()
        if isinstance(record, ApplyRecord) and record.txn_id == crashed.txn_id
    ]
    assert [dict(record.writes) for record in applies] == [{key: version.value}]
    # ...and visible to a later read.
    ok, reader = crashed.cluster.run_process(crashed.txn(OTHER, [key]))
    assert ok and reader.read_versions[key] == version.vid
    crashed.finish()
    control.finish()


def vote_then_crash(protocol, seed, *, crash):
    """Case (a).  Node 1's key is write-locked by someone else for 800 us,
    so its vote is outstanding when the victim -- whose yes-vote has been
    delivered -- dies; the victim is back, and has asked, before node 1
    votes."""
    run = Run(protocol, seed)
    run.warm_up()
    cluster = run.cluster
    keys = [run.key_at(OTHER), run.key_at(VICTIM)]
    other = cluster.nodes[OTHER]

    def hold_others_key():
        granted = other.locks.lock_for(keys[0]).acquire_write("blocker")
        assert granted.triggered
        cluster.sim.call_later(800e-6, other.locks.release, keys[0], "blocker")

    process = cluster.spawn(
        run.txn(COORDINATOR, keys, attempts=1, before_commit=hold_others_key)
    )
    if crash:
        def after_the_vote_landed(record):
            txn_id = record.details["txn"]
            cluster.sim.call_later(40e-6, run.crash_victim, txn_id)
            cluster.sim.call_later(
                300e-6, restart, cluster, run.nemesis, VICTIM
            )

        TracePoint(cluster, "prepare", after_the_vote_landed, node=VICTIM)
    cluster.run()
    run.ok, txn = process.value
    run.txn_id, run.keys_written = txn.txn_id, keys
    run.barrier = fingerprints(run.cluster)
    return run


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_recovering_participant_dooms_the_round_it_voted_in(protocol, seed):
    crashed = vote_then_crash(protocol, seed, crash=True)
    control = vote_then_crash(protocol, seed, crash=False)
    crashed.assert_prepare_was_volatile()
    assert crashed.victim.recovery.recoveries == 1
    # The recovery was over before the round was: nothing to re-stage,
    # and node 1 was asked to prepare twice (round 0 doomed, round 1).
    assert crashed.counter("prepares_restaged") == 0
    prepares = [
        record for record in crashed.cluster.nodes[OTHER].wal.records()
        if isinstance(record, PrepareRecord)
        and record.txn_id == crashed.txn_id
    ]
    assert len(prepares) == 2
    # All or nothing, and the client was told which.
    held = [
        crashed.holds(site, key, crashed.txn_id)
        for site, key in zip((OTHER, VICTIM), crashed.keys_written)
    ]
    assert held == [crashed.ok, crashed.ok]
    assert crashed.ok and control.ok  # MAX_ATTEMPTS left room for a retry
    assert crashed.barrier == control.barrier
    crashed.finish()
    control.finish()


def crash_together(protocol, seed, *, first):
    """Case (c).  As (b), but the coordinator dies at the same instant,
    its decision durable and acknowledged, every Decide lost; ``first``
    names who restarts first (the other follows 2 ms later), ``None``
    is the control."""
    run = Run(protocol, seed)
    run.warm_up()
    cluster = run.cluster
    keys = [run.key_at(OTHER), run.key_at(VICTIM)]
    process = cluster.spawn(run.txn(COORDINATOR, keys, attempts=1))
    if first is not None:
        def both(record):
            run.crash_victim(record.details["txn"])
            fault(run.nemesis, CRASH_DURABLE, COORDINATOR)
            second = COORDINATOR if first == VICTIM else VICTIM
            cluster.sim.call_later(1e-3, restart, cluster, run.nemesis, first)
            cluster.sim.call_later(3e-3, restart, cluster, run.nemesis, second)

        TracePoint(cluster, "commit", both, node=COORDINATOR)
    cluster.run()
    ok, txn = process.value
    assert ok, "the decision was durable: the client was acknowledged"
    run.txn_id, run.keys_written = txn.txn_id, keys
    run.barrier = fingerprints(run.cluster)
    return run


@pytest.mark.parametrize("first", (COORDINATOR, VICTIM))
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_coordinator_and_participant_crash_together(protocol, seed, first):
    crashed = crash_together(protocol, seed, first=first)
    control = crash_together(protocol, seed, first=None)
    crashed.assert_prepare_was_volatile()
    for node_id in (COORDINATOR, VICTIM):
        assert crashed.cluster.nodes[node_id].recovery.recoveries == 1
    assert crashed.counter("prepares_restaged") == 1
    for site, key in zip((OTHER, VICTIM), crashed.keys_written):
        assert crashed.holds(site, key, crashed.txn_id)
    assert crashed.barrier == control.barrier
    crashed.finish()
    control.finish()


def crash_again_after_restaging(protocol, seed, *, crash):
    """Case (d).  As (b); then, with the re-staged PrepareRecord durable
    and its ApplyRecord on the way to disk, the victim dies again."""
    if not crash:
        return decide_dropped(protocol, seed, crash=False)
    run = decide_dropped(protocol, seed, crash=True, recover=False)
    cluster, victim, txn_id = run.cluster, run.victim, run.txn_id

    # A fast disk now, so the re-logged prepare is durable before the
    # install it precedes has finished charging its CPU time.
    victim.flusher.fsync_latency = 2e-6
    second = {}

    def applying(record):
        pending = record.details["pending"]
        start = record.details["cover"] - pending - victim.wal.truncated
        group = victim.wal.records()[start:start + pending]
        return any(
            isinstance(r, ApplyRecord) and r.txn_id == txn_id
            for r in group
        )

    def crash_again(_record):
        second.update(
            durable_lsn=victim.wal.durable_lsn,
            prepare_lsn=run.prepare_lsn(txn_id),
            restaged=run.counter("prepares_restaged"),
        )
        fault(run.nemesis, CRASH_DURABLE, VICTIM)

    point = TracePoint(
        cluster, "wal_sync", crash_again, node=VICTIM, when=applying
    )
    restart(cluster, run.nemesis, VICTIM)
    cluster.run()
    assert point.fired
    # The second crash kept the re-staged prepare and lost its apply.
    assert second["restaged"] == 1
    assert second["prepare_lsn"] is not None, "re-staging logged no prepare"
    assert second["prepare_lsn"] <= second["durable_lsn"]
    assert run.prepare_lsn(txn_id) == second["prepare_lsn"]
    assert not any(
        isinstance(r, ApplyRecord) and r.txn_id == txn_id
        for r in victim.wal.records()
    )
    recovered = run.counter("indoubt_recovered")
    restart(cluster, run.nemesis, VICTIM)
    cluster.run()
    run.indoubt_second_time = run.counter("indoubt_recovered") - recovered
    run.barrier = fingerprints(run.cluster)
    return run


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_restaged_prepare_survives_a_second_crash_as_an_in_doubt_entry(
    protocol, seed
):
    crashed = crash_again_after_restaging(protocol, seed, crash=True)
    control = crash_again_after_restaging(protocol, seed, crash=False)
    assert crashed.victim.recovery.recoveries == 2
    assert crashed.indoubt_second_time == 1
    assert crashed.counter("prepares_restaged") == 1  # not staged twice
    chain = crashed.victim.store.chain(crashed.keys_written[1])
    assert [v.writer_txn for v in chain].count(crashed.txn_id) == 1
    assert crashed.barrier == control.barrier
    crashed.finish()
    control.finish()


def lost_apply_then_lost_prepare(protocol, seed, *, crash):
    """Case (e).  T5 (coordinator 0) and then T9 (coordinator 3) write the
    victim's key K.  At the crash T5's prepare is on the victim's disk,
    its apply is not, and neither is T9's prepare -- which by C4 was only
    admitted once T5's prepare was durable."""
    run = Run(protocol, seed)
    run.warm_up()
    cluster, victim = run.cluster, run.victim
    key = run.key_at(VICTIM)
    processes = [
        cluster.spawn(
            run.txn(COORDINATOR, [run.key_at(OTHER), key], attempts=1)
        )
    ]
    # T9 starts the moment T5 is acknowledged, its Decides in flight.
    TracePoint(
        cluster, "commit",
        lambda _record: processes.append(cluster.spawn(run.txn(3, [key]))),
        node=COORDINATOR,
    )
    if crash:
        def at_t9s_commit(record):
            t5 = processes[0].value[1].txn_id
            run.crash_victim(record.details["txn"])
            run.at_crash.update(
                t5_prepare_lsn=run.prepare_lsn(t5),
                t5_applied=run.holds(VICTIM, key, t5),
                # Frozen already: a volatile ApplyRecord is gone.
                t5_apply_survived=any(
                    isinstance(r, ApplyRecord) and r.txn_id == t5
                    for r in victim.wal.records()
                ),
            )

        TracePoint(cluster, "commit", at_t9s_commit, node=3)
    cluster.run()
    (ok5, t5), (ok9, t9) = (process.value for process in processes)
    assert ok5 and ok9
    if crash:
        restart(cluster, run.nemesis, VICTIM)
        cluster.run()
    run.t5, run.t9, run.key = t5.txn_id, t9.txn_id, key
    run.barrier = fingerprints(run.cluster)
    return run


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lost_apply_and_lost_prepare_on_one_key_replay_in_commit_order(
    protocol, seed
):
    crashed = lost_apply_then_lost_prepare(protocol, seed, crash=True)
    control = lost_apply_then_lost_prepare(protocol, seed, crash=False)
    crashed.assert_prepare_was_volatile()  # T9's
    at_crash = crashed.at_crash
    assert at_crash["t5_prepare_lsn"] is not None, (
        "C4: T9 was admitted while T5's prepare was still volatile"
    )
    assert at_crash["t5_prepare_lsn"] <= at_crash["durable_lsn"]
    assert at_crash["t5_applied"] and not at_crash["t5_apply_survived"]
    assert crashed.counter("prepares_restaged") == 1
    assert crashed.counter("indoubt_committed") >= 1
    writers = [
        v.writer_txn for v in crashed.victim.store.chain(crashed.key)
        if v.writer_txn in (crashed.t5, crashed.t9)
    ]
    assert writers == [crashed.t5, crashed.t9]
    assert crashed.barrier == control.barrier
    crashed.finish()
    control.finish()

"""Crash battery for the one-wait replicated commit path (DESIGN.md 5.10,
S4-S6).

A participant votes without waiting for its ``prepare`` stream record's
ack, so a primary can die having voted for a commit its backup never
heard of.  Every case here crashes a primary at a protocol-chosen point
with such a record still on the wire -- asserted, as each case's
precondition, from the backup's ``applied`` mark at the crash instant --
and checks the failed-over cluster against a never-failed control run of
the same scenario (authoritative fingerprint, backups verbatim, zero
lost acknowledged commits, zero aborts, PSI checkers green):

(a) the coordinator has decided and hands out its Decides: promotion
    re-creates the write from the coordinator's listing (S4, S6);
(b) the coordinator sits in its decision wait: same;
(c) the round is still collecting its other vote: the promotion's
    re-stage round dooms it and it re-prepares at the successor;
(d) rf=3, participant primary and coordinator crash together, promoted
    in either order: the commit is re-created from a decision home's
    record, which carries the writes;
(e) a lost ``apply`` of ``T0`` and a lost ``prepare`` of ``T1`` on one
    key: the chain replays commit order (S5).

The victim's stream is made slow by a ``delay_policy`` tap (its fatal
REPLICATE is held back, and dies with it), so the window each case needs
is wide and deterministic.  The cluster is the failover battery's, built
and driven through ``tests.harness.battery``; seeds come from
``REPLICATION_SEEDS``.
"""

import pytest

from repro import RpcConfig
from repro.core.wire import VoteBody
from repro.faults import CRASH
from repro.net.message import MessageType
from repro.replication.shard import SYNC_TIMEOUT
from repro.sim.rng import make_rng

from tests.harness.battery import (
    SETTLE,
    assert_backups_verbatim,
    assert_converges,
    authoritative_fingerprint,
    drive,
    fault,
    keys_at,
    rmw_plan,
    settle,
)
from tests.harness.oracle import assert_psi
from tests.integration.test_replication_failover import KEYS, SEEDS, build

pytestmark = pytest.mark.replication

#: How long the victim's fatal REPLICATE is held back: past every crash
#: point (held traffic suppresses heartbeats on its link, but the victim
#: is dead by then anyway).
HOLD = 40e-3


class Tap:
    """A ``delay_policy`` that arms one scenario's fault and records what
    the acceptance criteria count: per promotion one SYNC per live peer
    asked *for* the dead site, and no TXN_STATUS at all."""

    def __init__(
        self, cluster, nemesis, victims, crash_on, *, lose=True, hold=HOLD
    ):
        self.cluster = cluster
        self.nemesis = nemesis
        self.victims = victims
        self.victim = victims[0]
        self.crash_on = crash_on
        self.lose = lose
        self.hold = hold
        #: (c): ``(lock table, key)`` write-locked when the fatal round's
        #: prepares leave, until a re-stage SYNC for the victim has landed.
        self.park_on = None
        self.armed = False
        #: (e): arm at the victim's next ``apply`` REPLICATE, so that what
        #: went before it (``T0``'s prepare) is delivered; ``(backup, seq)``.
        self.arm_on_apply = False
        self.held_apply = None
        self.prepare_seq = {}  # backup -> seq of the fatal prepare record
        self.at_crash = None
        self.restage_syncs = []
        self.status_queries = 0
        self.prepare_rounds = set()
        cluster.network.delay_policy = self

    def crash(self):
        self.armed = False
        self.at_crash = {
            node.node_id: node.replication.applied_from(self.victim)
            for node in self.cluster.nodes
        }
        for victim in self.victims:
            fault(self.nemesis, CRASH, victim)

    def __call__(self, envelope):
        kind, src = envelope.msg_type, envelope.src
        if kind == MessageType.TXN_STATUS:
            # Between live nodes: a crashed victim's expiring lease still
            # asks, and a survivor's asks its dead coordinator, in vain.
            self.status_queries += not {src, envelope.dst} & set(self.victims)
        elif kind == MessageType.SYNC and envelope.payload.body.site is not None:
            body = envelope.payload.body
            self.restage_syncs.append((body.site, src, envelope.dst))
            if self.park_on is not None:
                locks, key = self.park_on
                self.cluster.sim.call_later(200e-6, locks.release, key, "held")
                self.park_on = None
        elif kind == MessageType.PREPARE:
            self.prepare_rounds.add(envelope.payload.body.round)
            if self.armed and self.park_on and envelope.dst != self.victim:
                locks, key = self.park_on
                locks.lock_for(key).acquire_write("held")
        if kind == MessageType.REPLICATE:
            kinds = {e.kind for e in envelope.payload.entries}
            if self.arm_on_apply and src == self.victim and "apply" in kinds:
                self.arm_on_apply, self.armed = False, True
                self.held_apply = (
                    envelope.dst, envelope.payload.entries[0].seq
                )
        if not self.armed:
            return 0.0
        if kind == MessageType.REPLICATE:
            if src == self.victim and self.lose:
                for entry in envelope.payload.entries:
                    if entry.kind == "prepare":
                        self.prepare_seq[envelope.dst] = entry.seq
                return self.hold
            if self.crash_on == "decision" and "decision" in kinds:
                self.crash()
        elif (
            kind == MessageType.DECIDE and self.crash_on == "decide"
            and envelope.payload.outcome
        ):
            self.crash()
        elif (
            kind == MessageType.RPC_REPLY and src == self.victim
            and self.crash_on == "vote"
            and isinstance(envelope.payload.body, VoteBody)
        ):
            # Once the vote has been delivered: a crashed sender's
            # in-flight traffic dies with it.
            self.cluster.sim.call_later(100e-6, self.crash)
        return 0.0


def finish(cluster, tap, *, faulty, dead):
    """The assertions every case shares; returns the fingerprint."""
    metrics = cluster.metrics
    if faulty:
        assert tap.at_crash is not None, "the crash point was never reached"
        for victim in dead:
            assert not cluster.directory.shards_of(victim)
        live = len(cluster.nodes) - len(dead)
        promotions = {
            (record.details["dead"], record.node)
            for record in cluster.tracer.of_kind("failover_promoted")
        }
        # One SYNC per live peer per promotion, itself included.
        assert sorted(tap.restage_syncs) == sorted(
            (gone, successor, peer.node_id)
            for gone, successor in promotions for peer in cluster.nodes
            if peer.node_id not in dead
        ), tap.restage_syncs
        assert len(tap.restage_syncs) == live * len(promotions)
    assert tap.status_queries == 0
    assert metrics.aborts == 0, dict(metrics.aborts_by_reason)
    assert_psi(cluster, quiescent=True)
    assert_backups_verbatim(cluster, KEYS, skip=dead if faulty else ())
    return authoritative_fingerprint(cluster, KEYS)


def installed_by_promotion(cluster):
    return sum(
        record.details["staged_installed"]
        for record in cluster.tracer.of_kind("failover_promoted")
    )


# ----------------------------------------------------------------------
# (a)-(c): a remote participant's primary dies, its coordinator lives
# ----------------------------------------------------------------------
VICTIM = 1
COORDINATORS = (0, 2)


def run_lost_prepare(seed, *, faulty, crash_on, lose=True):
    """The victim votes for ``fatal`` and dies; ``crash_on`` says when.

    ``lose=False`` lets the ``prepare`` record through: nothing is lost,
    the stream staged it, and promotion must install it exactly once.
    """
    # (c) keeps a vote outstanding past failure detection: no RPC or lock
    # deadline may fire meanwhile, heartbeats alone attest the death.
    rpc = RpcConfig(request_timeout=60e-3, max_attempts=3)
    cluster, nemesis = build(seed, rpc=rpc if crash_on == "vote" else None)
    cluster.tracer.enable("failover_promoted")
    coordinator, other = COORDINATORS
    tap = Tap(cluster, nemesis, [VICTIM], crash_on, lose=lose)
    rng = make_rng(seed, "replication-restage")

    drive(cluster, rmw_plan(rng, COORDINATORS, 8, KEYS))
    fatal = [keys_at(cluster, VICTIM, KEYS)[0], keys_at(cluster, other, KEYS)[0]]
    tap.armed = faulty
    if faulty and crash_on == "vote":
        # The other participant's prepare parks on a lock the test holds
        # until the promotion's re-stage round has reached the coordinator.
        cluster.config.lock_timeout = 60e-3
        tap.park_on = (cluster.node(other).locks, fatal[1])
    drive(cluster, [(coordinator, fatal)], budget=0.3)
    settle(cluster, 50e-3)
    drive(cluster, rmw_plan(rng, COORDINATORS, 8, KEYS), budget=0.2)
    settle(cluster)

    if faulty:
        if lose:
            # The precondition: the vote left, its record had not arrived.
            assert tap.prepare_seq and all(
                tap.at_crash[backup] < seq
                for backup, seq in tap.prepare_seq.items()
            ), (tap.at_crash, tap.prepare_seq)
        assert cluster.metrics.counters["failovers_completed"] > 0
        # The fatal commit's one write at the victim: from the listing
        # when the stream lost it, from the stream when it did not, never
        # from both (and (c)'s doomed round installs nothing here at all).
        assert installed_by_promotion(cluster) == (crash_on != "vote")
        assert tap.prepare_rounds == ({0, 1} if crash_on == "vote" else {0})
    return finish(cluster, tap, faulty=faulty, dead={VICTIM})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "scenario",
    [
        {"crash_on": "decide"},  # (a)
        {"crash_on": "decision"},  # (b)
        {"crash_on": "vote"},  # (c)
        {"crash_on": "decide", "lose": False},
    ],
    ids=["decided", "decision_wait", "collecting_votes", "nothing_lost"],
)
def test_lost_prepare_is_restaged_from_the_coordinators_listing(seed, scenario):
    """S4 + S6: one acknowledged decision re-creates the staged writes."""
    assert_converges(run_lost_prepare, seed, **scenario)


# ----------------------------------------------------------------------
# (d): participant primary and coordinator die together (rf=3)
# ----------------------------------------------------------------------
def run_joint_crash(seed, *, faulty, participant, coordinator):
    """Both crash as the coordinator hands out its first Decide: the
    decision is acknowledged by its homes, the participant's ``prepare``
    record is not.  The lower id is promoted first (scan order)."""
    cluster, nemesis = build(seed, num_nodes=5, factor=3)
    cluster.tracer.enable("failover_promoted")
    tap = Tap(cluster, nemesis, [participant, coordinator], "decide")
    survivors = [n for n in range(5) if n not in (participant, coordinator)]
    rng = make_rng(seed, "replication-restage-joint")

    drive(cluster, rmw_plan(rng, [coordinator] + survivors[:2], 6, KEYS))
    # A key the coordinator does not back: the held REPLICATE must not sit
    # in front of the vote on the participant -> coordinator link.
    fatal = [
        next(
            k for k in keys_at(cluster, participant, KEYS)
            if coordinator not in cluster.replication.backups_for_key(k)
        ),
        keys_at(cluster, survivors[0], KEYS)[0],
    ]
    tap.armed = faulty
    drive(cluster, [(coordinator, fatal)])  # acknowledged
    settle(cluster, 60e-3)
    drive(cluster, rmw_plan(rng, survivors[:2], 6, KEYS), budget=0.2)
    settle(cluster)

    if faulty:
        assert tap.prepare_seq and all(
            tap.at_crash[backup] < seq
            for backup, seq in tap.prepare_seq.items()
        ), (tap.at_crash, tap.prepare_seq)
        assert installed_by_promotion(cluster) == 1
    return finish(
        cluster, tap, faulty=faulty, dead={participant, coordinator}
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "roles",
    [{"participant": 1, "coordinator": 3}, {"participant": 3, "coordinator": 1}],
    ids=["participant_first", "coordinator_first"],
)
def test_participant_and_coordinator_crash_together(seed, roles):
    """S4 at rf=3: a decision home's record alone re-creates the commit."""
    assert_converges(run_joint_crash, seed, **roles)


# ----------------------------------------------------------------------
# (e): lost apply of T0, lost prepare of T1, one key
# ----------------------------------------------------------------------
def run_lost_apply_then_lost_prepare(seed, *, faulty):
    """``T0``'s ``prepare`` is staged at the backup, its ``apply`` is not;
    ``T1`` rewrites the key and loses even its ``prepare``.  ``T1``'s
    coordinator has the lower id, so listing order alone would install
    it first: stream-then-listed is what replays commit order."""
    cluster, nemesis = build(seed)
    cluster.tracer.enable("failover_promoted")
    tap = Tap(cluster, nemesis, [VICTIM], "decide")
    rng = make_rng(seed, "replication-restage-order")

    drive(cluster, rmw_plan(rng, COORDINATORS, 8, KEYS))
    key = keys_at(cluster, VICTIM, KEYS)[0]
    tap.arm_on_apply = faulty
    drive(cluster, [(2, [key])])
    (t0,) = [r.txn_id for r in cluster.history if r.write_keys == (key,)]
    drive(cluster, [(0, [key])], budget=0.3)
    (t1,) = [
        r.txn_id for r in cluster.history
        if r.write_keys == (key,) and r.txn_id != t0
    ]
    settle(cluster, 50e-3)
    drive(cluster, rmw_plan(rng, COORDINATORS, 8, KEYS), budget=0.2)
    settle(cluster)

    if faulty:
        # T0's prepare reached the backup, its apply and all of T1 did not.
        backup, apply_seq = tap.held_apply
        assert tap.at_crash[backup] < apply_seq
        assert installed_by_promotion(cluster) == 2
    fingerprint = finish(cluster, tap, faulty=faulty, dead={VICTIM})
    writers = [stamp[5] for stamp in fingerprint[key]]
    assert writers.index(t1) == writers.index(t0) + 1
    return fingerprint


@pytest.mark.parametrize("seed", SEEDS)
def test_lost_apply_and_lost_prepare_on_one_key_replay_in_commit_order(seed):
    """S5: a prepare's locks outlive its ack, so what the stream lost of
    a key follows what it staged."""
    assert_converges(run_lost_apply_then_lost_prepare, seed)


@pytest.mark.parametrize("hold", [700e-6, HOLD], ids=["acked", "degraded"])
def test_a_committed_prepare_keeps_its_write_locks_until_its_record_is_acked(
    hold,
):
    """S5 itself, no crash: the install is not delayed, the lock release
    is -- to the ``prepare`` record's ack, or ``SYNC_TIMEOUT`` after the
    apply if the backup stays silent that long (nothing is counted)."""
    cluster, nemesis = build(SEEDS[0])
    tap = Tap(cluster, nemesis, [VICTIM], None, hold=hold)
    key = keys_at(cluster, VICTIM, KEYS)[0]
    victim = cluster.node(VICTIM)
    tap.armed = True
    start = cluster.sim.now
    drive(cluster, [(0, [key])], budget=400e-6)
    (txn_id,) = [record.txn_id for record in cluster.history]
    assert victim.store.chain(key).latest.writer_txn == txn_id
    assert victim.locks.lock_for(key).held_by(txn_id) == "w"
    cluster.run(until=start + min(hold, SYNC_TIMEOUT))
    assert victim.locks.lock_for(key).held_by(txn_id) == "w"
    cluster.run(until=start + min(hold, SYNC_TIMEOUT) + SETTLE / 2)
    assert not victim.locks.lock_for(key).is_locked
    assert cluster.metrics.counters["replication_sync_degraded"] == 0
    assert cluster.metrics.aborts == 0

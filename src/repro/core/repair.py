"""The repair toolkit shared by recovery, healing, membership and failover.

The paper's six algorithms assume reliable channels and immortal nodes.
What discharges those assumptions reduces to a few mechanisms, each
written once here and composed by its callers: the :class:`Fence`
requests park behind, the :class:`DecisionLog` of what this node
committed as coordinator, the :class:`InDoubtResolver` that settles a
yes-vote whose Decide never came and :func:`reannounce` (an origin's
decisions above a peer's frontier, as full Decides).  Runs of clock-only
ticks are :meth:`repro.core.apply.Applier.advance`.  Chain shipping
and the fenced handoff are :mod:`repro.cluster.handoff`; DESIGN.md
"Layer contracts" states what the protocol node guarantees to and
requires from all of them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.wire import (
    DecideBody,
    SyncReplyBody,
    TxnStatusReplyBody,
    TxnStatusRequestBody,
)
from repro.net.message import Envelope, MessageType
from repro.sim import ConditionVariable, wait_until
from repro.storage.wal import DecisionRecord

#: Rounds of TXN_STATUS a lease expiry, or of re-stage SYNC a recovery,
#: spends on an unreachable coordinator before it falls back to presumed
#: abort (the RPC layer retries within each round).
TERMINATION_ATTEMPTS = 5


class Fence:
    """What parks requests while the state under them is being repaired.

    Two levels, one condition variable, one wait routine.  ``node_wide``
    up (durable crash until recovery completes): no read is served and
    no prepare admitted -- the store is being rebuilt.
    A shard fenced (a handoff: migration, join, drain, promotion, backup
    bootstrap): no prepare touching a key of it is admitted -- a key
    first written mid-handoff included -- while reads continue; its
    chains are stable, only their owner is changing.  Each handoff lowers
    only what it raised, so a shard two handoffs fence stays fenced until
    both are done.  Decide and Propagate handlers never wait here.
    """

    __slots__ = ("node_wide", "shards", "changed", "_directory")

    def __init__(self, sim, directory) -> None:
        self.node_wide = False
        #: Fenced shard id -> the handoffs holding it.
        self.shards: Dict[int, int] = {}
        self.changed = ConditionVariable(sim)
        self._directory = directory

    def blocks(self, keys: Optional[Iterable] = None) -> bool:
        """Is the node-wide level up (``keys=None``), or the shard of any
        of ``keys`` fenced?"""
        if keys is None:
            return self.node_wide
        shards, directory = self.shards, self._directory
        return bool(shards) and any(directory.shard_of(k) in shards for k in keys)

    def wait(self, keys: Optional[Iterable] = None):
        """Generator subroutine: park until :meth:`blocks` turns false."""
        yield from wait_until(self.changed, lambda: not self.blocks(keys))

    def raise_node(self) -> None:
        self.node_wide = True

    def lower_node(self) -> None:
        self.node_wide = False
        self.changed.notify_all()

    def raise_shards(self, shards: Iterable[int]) -> None:
        for shard in shards:
            self.shards[shard] = self.shards.get(shard, 0) + 1

    def lower_shards(self, shards: Iterable[int]) -> None:
        for shard in shards:
            if self.shards[shard] == 1:
                del self.shards[shard]
            else:
                self.shards[shard] -= 1
        self.changed.notify_all()


class Round:
    """One commit round in flight at its coordinator: collecting votes
    (``lsn == 0``) or forcing the decision it appended at ``lsn``.  A
    query answered "not committed" while the votes were still coming in
    sets ``doomed``: ``commit()`` then may not decide this round."""

    __slots__ = ("sites", "doomed", "lsn")

    def __init__(self, sites) -> None:
        self.sites = sites  # the participants (``in`` is all it answers)
        self.doomed = False
        self.lsn = 0


class DecisionLog:
    """What this node committed as coordinator: the one store.

    One :class:`~repro.storage.wal.DecisionRecord` per commit, indexed by
    transaction (status queries, recovery) and by sequence number
    (:func:`reannounce`); on WAL runs the record is the one appended.
    Where a participant can lose a staged prepare (WAL, replication) the
    record carries the round's writes (C1, S4).  No entry means no Decide
    was sent: aborted, never decided, or pruned below the floor every
    peer has applied (``CheckpointManager.maybe_truncate``).
    """

    __slots__ = ("node", "enabled", "keeps_writes", "by_txn", "by_seq")

    def __init__(self, node) -> None:
        config = node.shared.config
        self.node = node
        #: Can anyone ever ask how a commit ended?  Recovery and restage
        #: (WAL), promotion (replication), the gossip push, an expiring
        #: prepared lease.  If not, :meth:`record` retains nothing.
        self.enabled = (
            config.durability.wal_enabled
            or config.replication.enabled
            or config.healing.anti_entropy_interval is not None
            or config.prepared_lease is not None
        )
        self.keeps_writes = (
            config.durability.wal_enabled or config.replication.enabled
        )
        self.by_txn: Dict[int, DecisionRecord] = {}
        self.by_seq: Dict[int, DecisionRecord] = {}

    def record(self, decide: DecideBody, by_site) -> int:
        """``commit()`` decided to commit: put it on record before any
        Decide leaves the node.  On WAL runs the record is appended and
        the LSN its round now forces is returned (else 0)."""
        if not self.enabled:
            return 0
        wal = self.node.wal
        record = DecisionRecord(
            decide.txn_id, decide.seq_no, decide.commit_vc, decide.collected,
            () if not self.keeps_writes else tuple(
                (site, key, value)
                for site, writes in by_site.items()
                for key, value in writes.items()
            ),
        )
        self.by_txn[record.txn_id] = self.by_seq[record.seq_no] = record
        return 0 if wal is None else wal.append(record)

    def decide(self, txn_id: int):
        """The Decide ``txn_id``'s participants were sent, or ``False``."""
        record = self.by_txn.get(txn_id)
        return record is not None and _decide(self.node.node_id, record)

    def restore(self, by_txn: Mapping[int, DecisionRecord]) -> None:
        """Adopt the decisions a WAL replay rebuilt (all else is lost)."""
        self.by_txn = dict(by_txn)
        self.by_seq = {record.seq_no: record for record in by_txn.values()}

    def prune(self, floor: int) -> None:
        """Forget commits every peer has applied (``seq_no <= floor``)."""
        for seq_no in [seq_no for seq_no in self.by_seq if seq_no <= floor]:
            del self.by_txn[self.by_seq.pop(seq_no).txn_id]


class InDoubtResolver:
    """Both ends of the in-doubt termination protocol at one node: the
    coordinator's in-flight :class:`Round` table and :class:`DecisionLog`
    answer, a participant whose Decide never came asks."""

    def __init__(self, node) -> None:
        self.node = node
        #: Coordinator side: txn_id -> the commit round in flight here,
        #: entered and removed by ``commit()``; lost with a wipe.
        self.rounds: Dict[int, Round] = {}
        #: Coordinator side: how every round that committed ended.
        self.log = DecisionLog(node)

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    def _exactly(self, rounds: Iterable[Round], answer) -> None:
        """Call ``answer()`` once its "not committed" cannot turn false.

        C2 (DESIGN.md 5.10): a round still collecting votes is doomed --
        ``commit()`` aborts and re-prepares it -- and a decision being
        forced is waited out (prefix durability: the highest LSN covers
        the rest).  A crash in that wait answers nothing; the asker
        retries against the recovered log.
        """
        lsn = 0
        for rnd in rounds:
            if rnd.lsn:
                lsn = max(lsn, rnd.lsn)
            else:
                rnd.doomed = True
        if lsn:
            self.node.flusher.after_durable(
                lsn, lambda durable: durable and answer()
            )
        else:
            answer()

    def on_txn_status(self, envelope: Envelope) -> None:
        """Answer a termination query from our decision log.

        No commit decision on record means no Decide was sent and, once
        :meth:`_exactly` has run, that none will be: ``committed=False``
        is definitive -- the presumed-abort rule, safe to act on.
        """
        node = self.node
        txn_id = node.node.rpc.body_of(envelope).txn_id

        def answer():
            record = self.log.by_txn.get(txn_id)
            node.node.rpc.reply(
                envelope,
                TxnStatusReplyBody(txn_id, False, node.node_id)
                if record is None else _status(node.node_id, record),
            )

        rnd = self.rounds.get(txn_id)
        self._exactly(() if rnd is None else (rnd,), answer)

    def on_restage(self, envelope: Envelope, request) -> None:
        """Answer a recovering peer's SYNC (C3), or a promoted backup's
        for the dead primary ``request.site`` (S6): our clock, and every
        commit we decided above its frontier of our origin that wrote
        there, with its share of the writes -- exact, so unlisted means
        aborted.  Read from the decision log: our own fence may be up."""
        node = self.node
        peer = request.requester if request.site is None else request.site

        def answer():
            listed = tuple(
                _status(node.node_id, record, writes)
                for record in self.log.by_txn.values()
                if record.seq_no > request.restage_above
                and (writes := tuple(
                    (key, value) for site, key, value in record.writes
                    if site == peer
                ))
            )
            node.node.rpc.reply(
                envelope, SyncReplyBody(node.site_vc.to_tuple(), listed)
            )

        self._exactly(
            [rnd for rnd in self.rounds.values() if peer in rnd.sites], answer
        )

    # ------------------------------------------------------------------
    # Participant side
    # ------------------------------------------------------------------
    def outcome(
        self, txn_id: int, coordinator: int, attempts: int = 1, entry=None,
    ):
        """Generator: how ``coordinator`` recorded ``txn_id``.

        Returns the commit's Decide, ``False`` when no decision is on
        record -- abort is then exact, not a guess -- and ``None`` when
        the coordinator stayed unreachable for ``attempts`` rounds, or
        ``entry`` left the prepared table meanwhile (a racing Decide
        won).  A multi-round query paces its rounds by the prepared
        lease; a single-shot caller keeps its own cadence.  Every round
        is bounded like a gossip digest (``NodeHealing._rpc_config``):
        the paper-model ``request_timeout=None`` cannot hang an asker on
        a dead coordinator.
        """
        node = self.node
        if coordinator == node.node_id:
            rnd = self.rounds.get(txn_id)
            if rnd is not None and not rnd.lsn:
                rnd.doomed = True  # C2 binds an answer to ourselves too
            return self.log.decide(txn_id)
        round_wait = node.shared.config.prepared_lease or 1e-3
        for _attempt in range(attempts):
            if entry is not None and node._prepared.get(txn_id) is not entry:
                return None
            ok, reply = yield from node.node.rpc.call_settled(
                coordinator,
                MessageType.TXN_STATUS,
                TxnStatusRequestBody(txn_id),
                config=node.healing._rpc_config,
            )
            if ok:
                return reply.committed and _decide(reply.origin, reply)
            if attempts > 1:
                yield node.sim.timeout(round_wait)
        return None

    def settle(self, txn_id: int, entry, *, attempts: int = 1, via: str):
        """Generator: resolve one prepared entry through its coordinator.

        Returns the committed Decide for the caller to apply through
        ``_apply_committed_decide`` (inline, or spawned by ``Applier.claim``
        so no clock-only tick passes it first); ``False`` once the
        entry is resolved without a commit -- aborted here and its locks
        released, or a racing Decide or a wipe got there first; ``None``
        while the coordinator is unreachable and the entry still
        prepared.
        """
        outcome = yield from self.outcome(
            txn_id, entry.coordinator, attempts, entry
        )
        if self.node._prepared.get(txn_id) is not entry:
            return False
        if outcome is None:
            return None
        return self.resolve(txn_id, entry, outcome, via)

    def resolve(self, txn_id: int, entry, outcome, via: str):
        """Record how a prepared entry ended (a Decide, or ``False``: then
        it is unstaged here).  Returns ``outcome``."""
        node = self.node
        committed = outcome is not False
        node.metrics.count(
            "indoubt_committed" if committed else "indoubt_aborted"
        )
        if node.tracer._enabled:
            node.tracer.emit(
                node.node_id, "indoubt", txn=txn_id, committed=committed,
                via=via,
            )
        if not committed:
            node._abort_prepared(txn_id, entry)
        return outcome

    def terminate(self, txn_id: int, entry):
        """The one lease rule: a prepared lease that expires asks first.

        The coordinator's answer is definitive either way (C2).  Only when
        it stays unreachable past the whole budget does the participant
        fall back to presumed abort rather than hold the locks forever --
        which can still drop a commit whose coordinator is merely cut off
        for longer than that.
        """
        node = self.node
        decide = yield from self.settle(
            txn_id, entry, attempts=TERMINATION_ATTEMPTS, via="lease"
        )
        if decide:
            yield from node._apply_committed_decide(decide)
        elif decide is None:
            node._abort_prepared(txn_id, entry)
            node.tracer.emit(node.node_id, "lease_expire", txn=txn_id)


def _status(origin: int, record, writes=()) -> TxnStatusReplyBody:
    """A recorded commit as a status answer (``writes``: re-stage only)."""
    return TxnStatusReplyBody(
        record.txn_id, True, origin, record.seq_no, record.commit_vc,
        record.collected, writes,
    )


def _decide(origin: int, record) -> DecideBody:
    """The Decide a commit's participants were (or should have been)
    sent, built from what was logged of it: a ``DecisionRecord``, a
    replicated ``decision`` stream entry, or a TXN_STATUS reply."""
    return DecideBody(
        txn_id=record.txn_id,
        outcome=True,
        origin=origin,
        seq_no=record.seq_no,
        commit_vc=record.commit_vc,
        collected=record.collected,
    )


def reannounce(
    node, origin: int, by_seq: Mapping[int, object],
    frontiers: Mapping[int, int], upto: int, limit: Optional[int] = None,
) -> List[int]:
    """Send each peer the Decides of ``origin`` above its frontier.

    ``frontiers`` maps peer -> newest sequence number of the origin it is
    known to have applied; ``by_seq`` is what was logged of the origin's
    commits (``DecisionLog.by_seq``, or a dead origin's replicated
    ``decision`` entries), each Decide built from it as it is sent;
    ``upto`` is the origin's frontier.  Always a *full* Decide, never a
    clock-only Propagate: a peer still holding the prepared writes must
    install them under the clock tick.  Always safe: the apply path
    skips sequence numbers at or below the receiver's clock.
    Pruned sequence numbers are skipped (every peer had applied them when
    they were pruned); ``limit`` bounds how many are announced per call.
    Returns those announced.
    """
    announced: List[int] = []
    if not frontiers:
        return announced
    send = node.node.send
    for seq_no in range(min(frontiers.values()) + 1, upto + 1):
        if limit is not None and len(announced) >= limit:
            break
        record = by_seq.get(seq_no)
        if record is None:
            continue
        decision = _decide(origin, record)
        for peer, frontier in frontiers.items():
            if frontier < seq_no:
                send(peer, MessageType.DECIDE, decision)
        announced.append(seq_no)
    return announced

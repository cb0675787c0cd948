"""The repair toolkit shared by recovery, healing, membership and failover.

The paper's six algorithms assume reliable channels and immortal nodes.
What discharges those assumptions reduces to a few mechanisms, each
written once here and composed by its callers: the :class:`Fence`
requests park behind, the :class:`InDoubtResolver` that settles a
yes-vote whose Decide never came, :func:`reannounce` (an origin's
decisions above a peer's frontier, as full Decides) and :func:`catch_up`
(a run of clock-only ticks).  Chain shipping is
:mod:`repro.healing.transfer`, the fenced handoff
:mod:`repro.cluster.handoff`; DESIGN.md "Layer contracts" states what
the protocol node guarantees to and requires from all of them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.wire import (
    DecideBody,
    TxnStatusReplyBody,
    TxnStatusRequestBody,
)
from repro.net.message import Envelope, MessageType
from repro.sim import ConditionVariable, wait_until

#: Rounds of TXN_STATUS a lease expiry or a recovery spends on an
#: unreachable coordinator before it falls back to presumed abort (the
#: RPC layer retries within each round).
TERMINATION_ATTEMPTS = 5


class Fence:
    """What parks requests while the state under them is being repaired.

    Two levels, one condition variable, one wait routine.  ``node_wide``
    up (durable crash, recovery, checkpoint install): no read is served
    and no prepare admitted -- the store is being rebuilt or replaced.
    A key fenced, individually or through ``every_key`` (handoff, drain,
    promotion): no prepare touching it is admitted while reads of it
    continue -- its chains are stable, only their owner is changing.
    Decide and Propagate handlers never wait here.
    """

    __slots__ = ("node_wide", "keys", "every_key", "changed")

    def __init__(self, sim) -> None:
        self.node_wide = False
        #: Keys mid-handoff (migration, join, promotion, re-bootstrap).
        self.keys: set = set()
        #: Drain: every local key is moving (decommission).
        self.every_key = False
        self.changed = ConditionVariable(sim)

    def blocks(self, keys: Optional[Iterable] = None) -> bool:
        """Is the node-wide level up (``keys=None``), or any of ``keys``
        fenced at the key-scoped level?"""
        if keys is None:
            return self.node_wide
        if self.every_key:
            return True
        fenced = self.keys
        return bool(fenced) and any(key in fenced for key in keys)

    def wait(self, keys: Optional[Iterable] = None):
        """Generator subroutine: park until :meth:`blocks` turns false."""
        yield from wait_until(self.changed, lambda: not self.blocks(keys))

    def raise_node(self) -> None:
        self.node_wide = True

    def lower_node(self) -> None:
        self.node_wide = False
        self.changed.notify_all()

    def raise_keys(self, keys: Iterable) -> None:
        self.keys.update(keys)

    def lower_keys(self, keys: Iterable) -> None:
        """Scoped: a migration releases only its own keys, leaving a
        concurrent drain or migration fence intact."""
        before = len(self.keys)
        self.keys.difference_update(keys)
        if len(self.keys) != before:
            self.changed.notify_all()

    def raise_every_key(self) -> None:
        self.every_key = True

    def lower_every_key(self) -> None:
        """View commit: lift the drain fence and every keyed one."""
        if self.keys or self.every_key:
            self.keys.clear()
            self.every_key = False
            self.changed.notify_all()


class InDoubtResolver:
    """Both ends of the in-doubt termination protocol at one node."""

    def __init__(self, node) -> None:
        self.node = node

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    def on_txn_status(self, envelope: Envelope) -> None:
        """Answer a termination query from our decision log.

        No commit decision on record means no Decide was ever sent (the
        decision is logged first), so ``committed=False`` is definitive
        -- the presumed-abort rule, safe to act on.
        """
        node = self.node
        request: TxnStatusRequestBody = node.node.rpc.body_of(envelope)
        decision = node._decisions.get(request.txn_id)
        if decision is not None:
            reply = TxnStatusReplyBody(
                txn_id=request.txn_id,
                committed=True,
                origin=decision.origin,
                seq_no=decision.seq_no,
                commit_vc=decision.commit_vc,
                collected=decision.collected,
            )
        else:
            reply = TxnStatusReplyBody(
                txn_id=request.txn_id, committed=False, origin=node.node_id
            )
        node.node.rpc.reply(envelope, reply)

    # ------------------------------------------------------------------
    # Participant side
    # ------------------------------------------------------------------
    def outcome(
        self, txn_id: int, coordinator: int, attempts: int = 1,
        rpc_config=None, entry=None,
    ):
        """Generator: how ``coordinator`` recorded ``txn_id``.

        Returns the commit's Decide, ``False`` when no decision is on
        record -- abort is then exact, not a guess -- and ``None`` when
        the coordinator stayed unreachable for ``attempts`` rounds, or
        ``entry`` left the prepared table meanwhile (a racing Decide
        won).  A multi-round query paces its rounds by the prepared
        lease; a single-shot caller keeps its own cadence.
        """
        node = self.node
        if coordinator == node.node_id:
            return node._decisions.get(txn_id, False)
        round_wait = node.shared.config.prepared_lease or 1e-3
        for _attempt in range(attempts):
            if entry is not None and node._prepared.get(txn_id) is not entry:
                return None
            ok, reply = yield from node.node.rpc.call_settled(
                coordinator,
                MessageType.TXN_STATUS,
                TxnStatusRequestBody(txn_id),
                config=rpc_config,
            )
            if ok:
                return reply.committed and _decide(reply.origin, reply)
            if attempts > 1:
                yield node.sim.timeout(round_wait)
        return None

    def settle(
        self, txn_id: int, entry, *, attempts: int = 1, rpc_config=None,
        presume_abort: bool = False, via: str,
    ):
        """Generator: resolve one prepared entry through its coordinator.

        Returns the committed Decide for the caller to apply through
        ``_apply_committed_decide`` (inline, or spawned with its sequence
        number reserved against :func:`catch_up`); ``False`` once the
        entry is resolved without a commit -- aborted here and its locks
        released, or a racing Decide or a wipe got there first; ``None``
        while the coordinator is unreachable and the entry still
        prepared, which ``presume_abort`` (recovery, behind its fence)
        treats as not-on-record.
        """
        node = self.node
        outcome = yield from self.outcome(
            txn_id, entry.coordinator, attempts, rpc_config, entry
        )
        if node._prepared.get(txn_id) is not entry:
            return False
        if outcome is None:
            if not presume_abort:
                return None
            outcome = False
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
        """Prepared-lease expiry under ``termination_query``: ask first.

        The coordinator logs commit decisions *before* sending any
        Decide, so its answer is definitive.  Only when it stays
        unreachable past the whole budget does the participant fall back
        to presumed abort rather than hold the locks forever.
        """
        node = self.node
        decide = yield from self.settle(
            txn_id, entry, attempts=TERMINATION_ATTEMPTS, via="lease"
        )
        if decide:
            yield from node._apply_committed_decide(decide)
        elif decide is None:
            node._presume_abort(txn_id, entry)


def _decide(origin: int, record) -> DecideBody:
    """The Decide a commit's participants were (or should have been)
    sent, rebuilt from what was logged of it: a WAL ``DecisionRecord``,
    a replicated ``decision`` stream entry, or a TXN_STATUS reply."""
    return DecideBody(
        txn_id=record.txn_id,
        outcome=True,
        origin=origin,
        seq_no=record.seq_no,
        commit_vc=record.commit_vc,
        collected=record.collected,
    )


def decision_table(origin: int, records: Iterable) -> Dict[int, DecideBody]:
    """``seq_no -> Decide`` of an origin's logged decisions: the table
    :func:`reannounce` reads and TXN_STATUS answers come from."""
    return {record.seq_no: _decide(origin, record) for record in records}


def reannounce(
    node, decisions: Mapping[int, DecideBody], frontiers: Mapping[int, int],
    upto: int, limit: Optional[int] = None,
) -> List[int]:
    """Send each peer the Decides of one origin above its frontier.

    ``frontiers`` maps peer -> newest sequence number of the origin it is
    known to have applied; ``decisions`` is the origin's ``seq_no ->
    Decide`` table, ``upto`` its own frontier.  Always a *full* Decide,
    never a clock-only Propagate: a peer still holding the prepared
    writes must install them under the clock tick.  Always safe: the
    apply path skips sequence numbers at or below the receiver's clock.
    Pruned sequence numbers are skipped (a peer below the pruned floor
    needs a checkpoint transfer); ``limit`` bounds how many are
    announced per call.  Returns those announced.
    """
    announced: List[int] = []
    if not frontiers:
        return announced
    send = node.node.send
    for seq_no in range(min(frontiers.values()) + 1, upto + 1):
        if limit is not None and len(announced) >= limit:
            break
        decision = decisions.get(seq_no)
        if decision is None:
            continue
        for peer, frontier in frontiers.items():
            if frontier < seq_no:
                send(peer, MessageType.DECIDE, decision)
        announced.append(seq_no)
    return announced


def catch_up(node, origin: int, target: int, reserved=frozenset()):
    """Generator: advance ``siteVC[origin]`` to ``target``, tick by tick.

    For sequence numbers whose Propagate this node will never see (lost
    while it was down, partitioned away, or predating its join).  They
    carry no data for this node -- anything with data had it as a 2PC
    participant, hence prepared -- except those in ``reserved``, which
    belong to in-doubt commits being applied: this process waits for the
    applier to make that transition instead of stealing it (the applier
    must install the writes under the same tick).  Regular Propagate
    handlers may race harmlessly; both sides re-check the clock before
    each advance.
    """
    site_vc = node.site_vc
    incarnation = node._incarnation
    advanced = 0
    while site_vc[origin] < target:
        seq_no = site_vc[origin] + 1
        if seq_no in reserved:
            yield from wait_until(
                node.site_vc_changed,
                lambda bound=seq_no: site_vc[origin] >= bound,
            )
            if node._incarnation != incarnation:
                return
            continue
        node._advance_clock(origin, seq_no)
        advanced += 1
    if advanced:
        node.metrics.count("catchup_advances", advanced)
        node.tracer.emit(
            node.node_id, "catchup", origin=origin, advanced=advanced,
            target=target,
        )

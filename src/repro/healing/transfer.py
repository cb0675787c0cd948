"""Chain shipping: offer -> chunks -> installed, for both of its uses.

One wire protocol (``SNAPSHOT_OFFER`` / ``SNAPSHOT_CHUNK`` /
``SNAPSHOT_ACK``) moves fingerprinted version chains between nodes in
bounded chunks, all-or-nothing at the final chunk.  Its two modes differ
only in what the receiver does with the verified chains.  A
**checkpoint** (anti-entropy) is the sender's newest WAL checkpoint,
repairing a peer below its truncation floor: taken only if it regresses
no origin, installed behind the node-wide fence, the receiver keeps the
chains it owns and runs its clock up to the checkpoint's.  A **shard**
(handoff) is the chains of keys whose ownership is moving *to* the
receiver: authoritative, so no staleness gate; the receiver's own keys
stay servable (no fence) and its clock is untouched -- the origins'
commits reach it through the normal fan-out, and advancing the clock
here could skip a locally prepared transaction's install.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.vector_clock import VectorClock
from repro.core.wire import (
    SnapshotAckBody,
    SnapshotChunkBody,
    SnapshotOfferBody,
)
from repro.net.message import Envelope, MessageType
from repro.storage.wal import (
    CheckpointMismatchError,
    CheckpointRecord,
    build_checkpoint,
    verify_checkpoint,
)


@dataclass(slots=True, eq=False)
class _Inbound:
    """Receiver-side state of the one transfer in progress."""

    offer: SnapshotOfferBody
    #: The node incarnation the transfer (and its fence) belongs to.
    incarnation: int
    #: Watchdog period, re-armed while chunks keep arriving.
    deadline: float
    #: Chunks received so far, flattened, in index order.
    chains: List = field(default_factory=list)
    #: Chunks seen (= the next index expected).
    activity: int = 0


class ChainTransfer:
    """Both ends of chain shipping at one node (``healing.transfer``)."""

    def __init__(self, owner, healing) -> None:
        self.owner = owner
        self.healing = healing
        self.sim = owner.sim
        self.node_id = owner.node_id
        self.config = healing.config.snapshot
        self.metrics = owner.metrics
        self.tracer = owner.tracer
        #: Per-node transfer id counter (deterministic, never reused).
        self._ids = 0
        #: The inbound transfer in progress, if any (at most one at a
        #: time; a second offer is rejected as busy).
        self.inbound: Optional[_Inbound] = None
        #: Transfers installed at this node (test probe).
        self.installs = 0

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------
    def ship_shard(self, peer: int, keys, incarnation: int):
        """Ship the chains of ``keys`` to their new owner verbatim.

        The caller (:func:`repro.cluster.handoff.fenced_handoff`) has
        fenced the keys and drained their write locks, so the chains are
        stable for the duration of the transfer.
        """
        owner = self.owner
        store = owner.store
        record = build_checkpoint(
            ((key, *store.snapshot(key)) for key in sorted(keys, key=repr)
             if key in store),
            owner.site_vc,
            owner.curr_seq_no,
        )
        return (yield from self.ship(peer, record, incarnation, shard=True))

    def ship(
        self, peer: int, record: CheckpointRecord, incarnation: int,
        shard: bool = False,
    ):
        """Generator: offer ``record``'s chains, stream them, await install.

        True iff the receiver verified the fingerprint and installed.
        The offer carries the clock and fingerprint so the receiver can
        reject before bulk data moves; chunks go in index order.  Any
        rejection or lost reply -- or this sender being wiped or fenced
        mid-way -- abandons the transfer: the receiver installed nothing,
        and the caller re-offers (next gossip round) or fails its handoff.
        """
        owner = self.owner
        rpc = owner.node.rpc
        rpc_config = self.healing._rpc_config
        chunk_size = max(1, self.config.chunk_records)
        chains = record.chains
        total = max(1, (len(chains) + chunk_size - 1) // chunk_size)
        self._ids += 1
        snapshot_id = self._ids
        self.tracer.emit(
            self.node_id, "shard_offer" if shard else "snapshot_offer",
            peer=peer, snapshot_id=snapshot_id, chunks=total,
            keys=len(chains), frontier=record.site_vc[self.node_id],
        )
        def messages():
            yield MessageType.SNAPSHOT_OFFER, SnapshotOfferBody(
                sender=self.node_id,
                site_vc=record.site_vc,
                curr_seq_no=record.curr_seq_no,
                fingerprint=record.fingerprint,
                total_chunks=total,
                snapshot_id=snapshot_id,
                shard=shard,
            )
            for index in range(total):
                yield MessageType.SNAPSHOT_CHUNK, SnapshotChunkBody(
                    snapshot_id=snapshot_id,
                    index=index,
                    total=total,
                    chains=chains[index * chunk_size:(index + 1) * chunk_size],
                )

        reply = None
        for msg_type, body in messages():
            ok, reply = yield from rpc.call_settled(
                peer, msg_type, body, config=rpc_config
            )
            if owner._incarnation != incarnation or owner.fence.node_wide:
                return False
            if not ok or not reply.accepted:
                self.metrics.count("snapshot_rejected")
                return False
            if msg_type == MessageType.SNAPSHOT_CHUNK:
                self.metrics.count("snapshot_chunks")
                self.metrics.count("snapshot_chains", len(body.chains))
        if not reply.installed:
            return False
        if self.tracer._enabled:
            self.tracer.emit(
                self.node_id, "shard_shipped" if shard else "snapshot_shipped",
                peer=peer, snapshot_id=snapshot_id, keys=len(chains),
                frontier=record.site_vc[self.node_id],
            )
        return True

    def on_ack(self, envelope: Envelope) -> None:
        """One-way install confirmation: harvest as frontier evidence.

        Redundant with the final chunk's RPC reply when that reply
        arrives, but this path survives a lost reply -- the sender still
        learns the receiver holds its origin through the checkpoint.
        """
        body: SnapshotAckBody = envelope.payload
        if body.site_vc is not None:
            self.healing.note_peer_frontier(
                envelope.src, self.healing._own_entry(body.site_vc)
            )

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def on_offer(self, envelope: Envelope) -> None:
        """Admit or reject a transfer before any bulk data moves.

        Decide and Propagate handlers stay live throughout -- concurrent
        commits are exactly what the install-time dominance re-check
        guards against.
        """
        owner = self.owner
        offer: SnapshotOfferBody = owner.node.rpc.body_of(envelope)
        reason = self._refusal(offer)
        if reason is None:
            self._admit(offer)
        owner.node.rpc.reply(
            envelope,
            SnapshotAckBody(
                offer.snapshot_id, accepted=reason is None, reason=reason
            ),
        )

    def _refusal(self, offer: SnapshotOfferBody) -> Optional[str]:
        owner = self.owner
        if not offer.shard and owner.wal is None:
            return "disabled"
        if self.inbound is not None:
            return "busy"
        if owner.fence.node_wide:
            return "recovering"
        if not offer.shard and (
            self._regresses(offer.site_vc)
            or offer.site_vc[offer.sender] <= (
                owner.site_vc[offer.sender]
                if offer.sender < len(owner.site_vc) else 0
            )
        ):
            # An offer that does not even advance the sender's own
            # frontier fixes nothing -- wait for a fresher checkpoint.
            return "stale"
        return None

    def _regresses(self, site_vc) -> bool:
        """Would adopting ``site_vc`` move any origin backwards here?
        (An origin the checkpoint lacks counts as zero.)"""
        return not self.owner.site_vc.leq(VectorClock(site_vc))

    def _admit(self, offer: SnapshotOfferBody) -> None:
        owner = self.owner
        # Watchdog: a sender that dies mid-transfer must not leave the
        # fence up forever.  Re-armed while chunks keep arriving.
        timeout = owner.node.rpc.config.request_timeout
        if timeout is None:
            timeout = self.healing.config.digest_timeout
        inbound = _Inbound(offer, owner._incarnation, 4 * timeout)
        self.inbound = inbound
        if not offer.shard:
            # Requests served against the store mid-replacement could
            # observe a fractured snapshot.
            owner.fence.raise_node()
        self.sim.call_later(inbound.deadline, self._watch, inbound, 0)
        if self.tracer._enabled:
            self.tracer.emit(
                self.node_id, "snapshot_accept", sender=offer.sender,
                snapshot_id=offer.snapshot_id, chunks=offer.total_chunks,
            )

    def _watch(self, inbound: _Inbound, activity: int) -> None:
        """Abandon a stalled inbound transfer so the fence comes down."""
        if self.inbound is not inbound:
            return
        if inbound.activity != activity:
            self.sim.call_later(
                inbound.deadline, self._watch, inbound, inbound.activity
            )
            return
        self._abandon("timeout")

    def _abandon(self, reason: str) -> None:
        """Drop the inbound transfer and lower the fence it raised.

        The fence is only lowered when no durable crash retook it in the
        meantime (it then belongs to recovery, which wiped the transfer
        anyway).
        """
        inbound = self.inbound
        if inbound is None:
            return
        self.inbound = None
        owner = self.owner
        if not inbound.offer.shard and owner._incarnation == inbound.incarnation:
            owner.fence.lower_node()
        self.tracer.emit(
            self.node_id, "snapshot_abandon", sender=inbound.offer.sender,
            snapshot_id=inbound.offer.snapshot_id, reason=reason,
        )

    def on_chunk(self, envelope: Envelope):
        """Collect one chunk; the final chunk triggers the install."""
        rpc = self.owner.node.rpc
        chunk: SnapshotChunkBody = rpc.body_of(envelope)
        inbound = self.inbound
        if (
            inbound is None
            or inbound.offer.snapshot_id != chunk.snapshot_id
            or inbound.offer.sender != envelope.src
            or inbound.activity != chunk.index
        ):
            # Out-of-order, duplicated, or stale chunk: refuse; the
            # sender abandons and simply re-offers next gossip round.
            rpc.reply(
                envelope,
                SnapshotAckBody(
                    chunk.snapshot_id, accepted=False, reason="unexpected"
                ),
            )
            return
        inbound.activity += 1
        inbound.chains.extend(chunk.chains)
        if chunk.index + 1 < inbound.offer.total_chunks:
            rpc.reply(
                envelope, SnapshotAckBody(chunk.snapshot_id, accepted=True)
            )
            return
        installed = yield from self._install(inbound)
        rpc.reply(
            envelope,
            SnapshotAckBody(
                chunk.snapshot_id,
                accepted=installed,
                installed=installed,
                reason=None if installed else "stale",
            ),
        )
        if installed:
            # One-way confirmation: even if the chunk reply above is
            # lost, the sender still learns this node now holds its
            # origin through the checkpoint (truncation evidence).
            self.owner.node.send(
                envelope.src,
                MessageType.SNAPSHOT_ACK,
                SnapshotAckBody(
                    chunk.snapshot_id,
                    accepted=True,
                    installed=True,
                    site_vc=self.owner.site_vc.to_tuple(),
                ),
            )

    def _install(self, inbound: _Inbound):
        """Verify and adopt a fully received chain set.

        Generator subroutine returning True on success.  The adoption
        itself is synchronous (no yields between the final check and the
        post-install checkpoint), so no message delivery can observe the
        store mid-replacement -- unless the clock run reaches a seq an
        applier holds (``Applier.advance``), which it waits out.
        """
        owner = self.owner
        offer = inbound.offer

        def superseded() -> bool:
            return (
                owner._incarnation != inbound.incarnation
                or self.inbound is not inbound
            )

        # Drain in-flight Decide appliers: a transaction between its
        # version install and its ApplyRecord lives in neither the
        # incoming chains nor our log -- replacing the store under it
        # would lose the commit.  Decides that arrive during the drain
        # finish before the loop exits.
        while owner._applying:
            yield self.sim.timeout(1e-6)
            if superseded():
                return False
        if superseded():
            return False
        if not offer.shard and self._regresses(offer.site_vc):
            # A concurrent Decide advanced us past the checkpoint while
            # the chunks streamed; installing now would regress.  The
            # suffix we are missing still arrives via the normal push.
            self._abandon("stale")
            return False
        record = CheckpointRecord(
            site_vc=tuple(offer.site_vc),
            # The sender's counter participates in the fingerprint; it
            # is verified, never adopted (see below).
            curr_seq_no=offer.curr_seq_no,
            chains=tuple(inbound.chains),
            in_doubt=(),
            decisions=(),
            fingerprint=offer.fingerprint,
        )
        try:
            verify_checkpoint(record)
        except CheckpointMismatchError:
            self._abandon("fingerprint")
            return False
        # A shard transfer carries only keys moving to this node, so all
        # are adopted (a stale leftover chain from an earlier epoch is
        # overwritten by the authoritative copy).  A checkpoint holds the
        # *sender's* store: keep only the chains this node is the
        # preferred site for -- usually none for a healed straggler, its
        # share of the data for a replacement node rebuilding from
        # nothing.  Foreign chains must not be kept: this node would
        # answer reads for keys it does not own the moment the directory
        # routed one here.
        adopted = 0
        for key, base_vid, versions in record.chains:
            if offer.shard or owner.directory.place(key) == self.node_id:
                owner.store.adopt(key, base_vid, versions)
                adopted += 1
        self.inbound = None
        if not offer.shard:
            vc, applier = owner.site_vc, owner.applier
            applier.see(len(offer.site_vc) - 1)
            for origin, target in enumerate(offer.site_vc):
                yield from applier.advance(origin, range(vc[origin] + 1, target + 1))
            if owner._incarnation != inbound.incarnation:
                return False  # wiped while waiting out a held seq
            # Never adopt the sender's coordinator counter: our own
            # assigned sequence numbers are bounded by our clock entry,
            # which the dominance check just proved the checkpoint covers.
            owner.curr_seq_no = max(owner.curr_seq_no, vc[self.node_id])
            owner.fence.lower_node()
        # Durability: our WAL's surviving prefix replays to the *old*
        # state, so immediately checkpoint the adopted state -- replay
        # resets at the newest checkpoint, making the install durable.
        if owner.wal is not None:
            self.healing.checkpoints.checkpoint_now()
        self.installs += 1
        self.tracer.emit(
            self.node_id, "snapshot_install", sender=offer.sender,
            snapshot_id=offer.snapshot_id, chains=len(record.chains),
            adopted=adopted, shard=offer.shard,
            frontier=offer.site_vc[offer.sender],
        )
        return True

"""Chain shipping for a shard handoff: offer -> chunks -> installed.

One wire protocol (``SNAPSHOT_OFFER`` / ``SNAPSHOT_CHUNK``) moves the
fingerprinted version chains of keys whose ownership is moving *to* the
receiver, in bounded chunks, all-or-nothing at the final chunk.  The
chains are authoritative, so there is no staleness gate; the receiver's
own keys stay servable (no fence) and its clock is untouched -- the
origins' commits reach it through the normal fan-out, and advancing the
clock here could skip a locally prepared transaction's install.  The
caller is :func:`repro.cluster.handoff.fenced_handoff`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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

#: Store chains per ``SNAPSHOT_CHUNK`` message (flow control: a chain set
#: is streamed, never shipped as one unbounded payload).
CHUNK_RECORDS = 64


@dataclass(slots=True, eq=False)
class _Inbound:
    """Receiver-side state of the one transfer in progress."""

    offer: SnapshotOfferBody
    #: The node incarnation the transfer belongs to.
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
        return (yield from self.ship(peer, record, incarnation))

    def ship(self, peer: int, record: CheckpointRecord, incarnation: int):
        """Generator: offer ``record``'s chains, stream them, await install.

        True iff the receiver verified the fingerprint and installed.
        The offer carries the fingerprint so the receiver can refuse
        before bulk data moves; chunks go in index order.  Any refusal or
        lost reply -- or this sender being wiped or fenced mid-way --
        abandons the transfer: the receiver installed nothing, and the
        caller fails its handoff.
        """
        owner = self.owner
        rpc = owner.node.rpc
        rpc_config = self.healing._rpc_config
        chunk_size = CHUNK_RECORDS
        chains = record.chains
        total = max(1, (len(chains) + chunk_size - 1) // chunk_size)
        self._ids += 1
        snapshot_id = self._ids
        self.tracer.emit(
            self.node_id, "shard_offer",
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
                self.node_id, "shard_shipped",
                peer=peer, snapshot_id=snapshot_id, keys=len(chains),
                frontier=record.site_vc[self.node_id],
            )
        return True

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def on_offer(self, envelope: Envelope) -> None:
        """Admit or refuse a transfer before any bulk data moves.

        Decide and Propagate handlers stay live throughout: the shipped
        keys are fenced at the donor, and the install drains in-flight
        Decide appliers first.
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
        if self.inbound is not None:
            return "busy"
        if self.owner.fence.node_wide:
            return "recovering"
        return None

    def _admit(self, offer: SnapshotOfferBody) -> None:
        owner = self.owner
        # Watchdog: a sender that dies mid-transfer must not leave this
        # node busy forever.  Re-armed while chunks keep arriving.
        timeout = owner.node.rpc.config.request_timeout
        if timeout is None:
            timeout = self.healing.config.digest_timeout
        inbound = _Inbound(offer, owner._incarnation, 4 * timeout)
        self.inbound = inbound
        self.sim.call_later(inbound.deadline, self._watch, inbound, 0)
        if self.tracer._enabled:
            self.tracer.emit(
                self.node_id, "snapshot_accept", sender=offer.sender,
                snapshot_id=offer.snapshot_id, chunks=offer.total_chunks,
            )

    def _watch(self, inbound: _Inbound, activity: int) -> None:
        """Abandon a stalled inbound transfer so the next offer is taken."""
        if self.inbound is not inbound:
            return
        if inbound.activity != activity:
            self.sim.call_later(
                inbound.deadline, self._watch, inbound, inbound.activity
            )
            return
        self._abandon("timeout")

    def _abandon(self, reason: str) -> None:
        """Drop the inbound transfer; its chunks are discarded."""
        inbound = self.inbound
        if inbound is None:
            return
        self.inbound = None
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
            # sender abandons and its handoff fails.
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
                reason=None if installed else "abandoned",
            ),
        )

    def _install(self, inbound: _Inbound):
        """Verify and adopt a fully received chain set.

        Generator subroutine returning True on success.  The adoption
        itself is synchronous (no yields between the final check and the
        post-install checkpoint), so no message delivery can observe the
        chains half-adopted.
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
        record = CheckpointRecord(
            site_vc=tuple(offer.site_vc),
            # The sender's clock and counter participate in the
            # fingerprint; they are verified, never adopted.
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
        # The transfer carries only keys moving to this node, so all are
        # adopted (a stale leftover chain from an earlier epoch is
        # overwritten by the authoritative copy).
        for key, base_vid, versions in record.chains:
            owner.store.adopt(key, base_vid, versions)
        self.inbound = None
        # Durability: our WAL's surviving prefix replays to the *old*
        # state, so immediately checkpoint the adopted state -- replay
        # resets at the newest checkpoint, making the install durable.
        if owner.wal is not None:
            self.healing.checkpoints.checkpoint_now()
        self.installs += 1
        self.tracer.emit(
            self.node_id, "snapshot_install", sender=offer.sender,
            snapshot_id=offer.snapshot_id, chains=len(record.chains),
            frontier=offer.site_vc[offer.sender],
        )
        return True

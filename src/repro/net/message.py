"""Message envelopes and the protocol message vocabulary."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class MessageType:
    """String labels for every message in the FW-KV/Walter/2PC protocols.

    Kept as plain strings (not an enum) so the network's per-type delay
    injection table stays trivially configurable from experiment code.
    """

    READ_REQUEST = "ReadRequest"
    READ_RETURN = "ReadReturn"
    PREPARE = "Prepare"
    VOTE = "Vote"
    DECIDE = "Decide"
    PROPAGATE = "Propagate"
    REMOVE = "Remove"
    RPC_REPLY = "RpcReply"
    #: In-doubt termination query (participant -> coordinator RPC).
    TXN_STATUS = "TxnStatus"
    #: Anti-entropy digest exchange (RPC): recovery catch-up and the
    #: periodic background gossip both speak it.
    SYNC = "Sync"
    #: Failure-detector liveness beacon (one-way, background channel).
    HEARTBEAT = "Heartbeat"
    #: Shard handoff: the donor ships the fingerprinted chains of the
    #: keys moving to the receiver; the reply says whether it installed
    #: them (RPC).
    SHARD_SHIPMENT = "ShardShipment"
    #: Per-shard primary-backup replication stream (one-way): a primary
    #: ships a batch of prepare/decision/apply records to one backup ...
    #: Foreground, not background: in sync mode commit acknowledgements
    #: wait on these acks.
    REPLICATE = "Replicate"
    #: ... which answers every batch with its cumulative applied sequence.
    REPLICATE_ACK = "ReplicateAck"
    #: Membership view change, phase one: the view coordinator proposes
    #: an epoch-numbered membership view to every member (one-way) ...
    VIEW_PROPOSE = "ViewPropose"
    #: ... members answer with an epoch-gated accept/reject (one-way) ...
    VIEW_ACK = "ViewAck"
    #: ... and the coordinator fans out the commit that applies the view
    #: (one-way; idempotent, epoch-gated, re-sent by anti-entropy).
    VIEW_COMMIT = "ViewCommit"

    #: Message types delivered on the background channel.  Asynchronous
    #: traffic (commit propagation, VAS garbage collection, liveness
    #: beacons) must not delay or be delayed by the transaction critical
    #: path, matching the paper's "asynchronous messages, sent outside the
    #: transaction critical path".
    BACKGROUND = frozenset({PROPAGATE, REMOVE, HEARTBEAT})


@dataclass(slots=True)
class Envelope:
    """One message in flight between two nodes."""

    msg_type: str
    src: int
    dst: int
    payload: Any
    send_time: float = 0.0
    deliver_time: float = 0.0
    msg_id: int = field(default=-1)

    @property
    def latency(self) -> float:
        """One-way delivery latency of this envelope."""
        return self.deliver_time - self.send_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.msg_type} {self.src}->{self.dst} "
            f"sent={self.send_time:.6f} deliver={self.deliver_time:.6f}>"
        )

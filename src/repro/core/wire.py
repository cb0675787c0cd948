"""Wire formats for protocol messages.

Bodies carry plain tuples/dicts (snapshots), never live coordinator
objects, so a storage node cannot mutate a remote transaction's state --
the same discipline a real message-passing deployment enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Optional, Tuple

#: The one empty collected set: a Decide, vote or record that collected
#: no read-only id holds this, not an empty set of its own.
NOTHING_COLLECTED: FrozenSet[int] = frozenset()


@dataclass(slots=True)
class ReadRequestBody:
    """Coordinator -> storage node, one key (FW-KV and Walter)."""

    txn_id: int
    is_read_only: bool
    key: Hashable
    vc: Tuple[int, ...]
    has_read: Tuple[bool, ...]
    #: FW-KV retry: read the key in line at its home (DESIGN.md 4).
    queue: bool = False


@dataclass(slots=True)
class ReadReturnBody:
    """Storage node -> coordinator reply."""

    value: object
    #: Visibility bound to merge into ``T.VC`` (Alg. 2 line 9); ``None``
    #: for Walter, whose snapshot never advances after begin.
    max_vc: Optional[Tuple[int, ...]]
    vid: int
    #: Newest vid at the serving node when the read executed; powers the
    #: freshness metric and the history checker.
    latest_vid: int
    #: The key's place in line was someone else's, who commits first.
    spoken_for: bool = False


@dataclass(slots=True)
class PrepareBody:
    """2PC phase one: the writes this participant must lock and validate."""

    txn_id: int
    coordinator: int
    writes: Dict[Hashable, object]
    vc: Tuple[int, ...]
    #: For written keys the transaction also *read*: the vid it observed.
    #: Validation requires the key's latest version to still be exactly
    #: that vid (first-committer-wins against the snapshot actually used).
    #: The paper's clock-only rule (Alg. 5 line 29) admits a lost update
    #: when ``T.VC`` has outrun the per-key read snapshot; see
    #: MVCCNode._validate.
    read_vids: Dict[Hashable, int] = field(default_factory=dict)
    #: Prepare round within one commit attempt.  A coordinator whose
    #: prepare straddled a membership handoff ("moved" vote) aborts the
    #: round and re-prepares against the refreshed directory under
    #: ``round + 1``; participants use the round to supersede a stale
    #: prepared entry and to ignore a stale round's abort.
    round: int = 0


@dataclass(slots=True)
class VoteBody:
    """2PC phase one reply."""

    ok: bool
    #: FW-KV only: read-only transaction ids harvested from the VAS of the
    #: versions about to be overwritten (Alg. 5 lines 8-10).
    collected: FrozenSet[int] = NOTHING_COLLECTED
    reason: Optional[str] = None
    #: The key a ``validation`` no-vote failed on: what the retry reads
    #: first, and in line.
    lost: Optional[Hashable] = None


@dataclass(slots=True)
class DecideBody:
    """2PC phase two (one-way)."""

    txn_id: int
    outcome: bool
    origin: int
    seq_no: Optional[int]
    commit_vc: Optional[Tuple[int, ...]]
    #: FW-KV only: merged anti-dependency set to propagate into the new
    #: versions (Alg. 5 line 19).
    collected: FrozenSet[int] = NOTHING_COLLECTED
    #: Matches :attr:`PrepareBody.round`; an abort decide only cancels the
    #: prepared entry of the *same* round (a moved-retry's abort must not
    #: cancel the successor round's prepare).
    round: int = 0


@dataclass(slots=True)
class PropagateBody:
    """Asynchronous commit propagation to uninvolved nodes (Alg. 6): one
    per uninvolved site per commit (Alg. 4 line 27)."""

    origin: int
    seq_no: int


@dataclass(slots=True)
class RemoveBody:
    """FW-KV read-only cleanup (Alg. 6 lines 5-10).

    The paper sends one Remove per read key; since the handler erases a
    transaction id from *every* VAS at the node anyway, identifiers are
    batched per destination node and flushed on a short timer -- identical
    semantics (cleanup delayed by at most the flush interval), far fewer
    messages.
    """

    txn_ids: Tuple[int, ...]


@dataclass(slots=True)
class TxnStatusRequestBody:
    """In-doubt termination query: participant -> coordinator.

    Sent when a prepared-lock lease expires with the termination
    protocol enabled, and by anti-entropy before it advances a clock
    past a prepare it holds.  (Crash recovery asks once per peer
    instead: :class:`SyncRequestBody` with ``restage_above``.)
    """

    txn_id: int


@dataclass(slots=True)
class TxnStatusReplyBody:
    """Coordinator's definitive answer to a status query.

    ``committed=False`` is exact because the coordinator makes it true
    before answering (DESIGN.md 5.10, C2): it dooms a round still
    collecting votes and waits out a decision being forced, so "no
    commit decision on record" means no Decide was sent *and none will
    be*.  ``writes`` is filled only inside a re-stage reply
    (:class:`SyncReplyBody`): the asking node's share of the commit.
    """

    txn_id: int
    committed: bool
    origin: int
    seq_no: Optional[int] = None
    commit_vc: Optional[Tuple[int, ...]] = None
    collected: FrozenSet[int] = NOTHING_COLLECTED
    writes: Tuple[Tuple[Hashable, object], ...] = ()


@dataclass(slots=True)
class SyncRequestBody:
    """Anti-entropy digest: a recovering node's catch-up request, or one
    side of the periodic background gossip exchange.

    ``site_vc`` (gossip only) is the requester's own applied frontier; the
    handler records ``site_vc[handler]`` as the requester's durable
    knowledge of the handler's origin, the evidence WAL truncation waits
    on.  A recovering node omits it -- a half-rebuilt clock is evidence
    of nothing -- and sends ``restage_above`` instead, its replayed
    frontier of the *handler's* origin: what did you commit here since?
    A promoted backup asks the same *for* the dead primary (``site``),
    above its replicated frontier of the handler's origin.
    """

    requester: int
    site_vc: Optional[Tuple[int, ...]] = None
    restage_above: Optional[int] = None
    site: Optional[int] = None


@dataclass(slots=True)
class SyncReplyBody:
    """A peer's current ``siteVC``: the per-origin commit frontier it has
    applied.  The recovering node advances toward the element-wise max
    over all replies -- every sequence number at or below a peer's entry
    either had the recoverer as a 2PC participant (then its coordinator
    lists it in ``decisions``, or it aborted) or carried no data for it
    (clock-only Propagate), so the advance is always safe.  ``decisions``
    answers ``restage_above``: the handler's durable commits above that
    frontier that wrote at the requester, each with the requester's writes.
    """

    site_vc: Tuple[int, ...]
    decisions: Tuple[TxnStatusReplyBody, ...] = ()


@dataclass(slots=True)
class ShardShipmentBody:
    """A shard handoff's chains, donor -> new owner, in one RPC.

    The reply is ``None`` once the receiver verified the fingerprint and
    adopted the chains, else the refusal: ``"recovering"``,
    ``"abandoned"``, ``"fingerprint"`` or ``"stale"``.
    """

    sender: int
    #: Per-sender shipment id: each is decided once at the receiver.
    snapshot_id: int
    #: The donor's clock and coordinator counter at build time: covered
    #: by the fingerprint, never adopted (the origins' commits reach the
    #: receiver through the normal fan-out).
    site_vc: Tuple[int, ...]
    curr_seq_no: int
    #: sha256 digest over the chains, clock and counter.
    fingerprint: str
    #: ``(key, base_vid, versions)`` per chain, as ``CheckpointRecord.chains``.
    chains: Tuple[object, ...]


@dataclass(slots=True)
class ReplicationEntry:
    """One record on a primary -> backup replication stream.

    Streams are per-(primary, backup) FIFOs with dense sequence numbers;
    the backup applies records strictly in ``seq`` order and
    acknowledges cumulatively, so an unacknowledged suffix simply
    retransmits after a partition or backup restart.  ``kind`` selects
    the payload:

    * ``"prepare"`` -- stage ``writes`` of an in-flight 2PC participant
      (``txn_id``, ``coordinator``, ``round``); promotion resolves
      staged entries through one re-stage round of the coordinators.
    * ``"abort"`` -- drop the staged entry for ``txn_id``.
    * ``"decision"`` -- the primary, as coordinator, committed
      ``txn_id`` at (``origin``, ``seq_no``) with ``commit_vc``;
      ``writes`` is the whole round's, as ``(site, key, value)``, so it
      alone re-creates every participant's staged writes.  Backs a
      promotion's re-stage and decision re-announce.
    * ``"apply"`` -- the primary installed ``writes`` at (``origin``,
      ``seq_no``); the backup installs them verbatim, in stream order,
      never touching its own clock.

    ``frontier`` (apply records) is the primary's ``siteVC`` snapshot
    after the install; a promotion re-stages what lies above it.
    """

    seq: int
    kind: str
    txn_id: Optional[int] = None
    coordinator: Optional[int] = None
    origin: Optional[int] = None
    seq_no: Optional[int] = None
    commit_vc: Optional[Tuple[int, ...]] = None
    writes: Tuple = ()
    collected: FrozenSet[int] = NOTHING_COLLECTED
    frontier: Optional[Tuple[int, ...]] = None
    round: int = 0


@dataclass(slots=True)
class ReplicateBody:
    """Primary -> backup stream batch (one-way); ``acked`` is the
    primary's cumulative ack as it left (a backup below it lost state)."""

    primary: int
    incarnation: int
    acked: int
    entries: Tuple[ReplicationEntry, ...]


@dataclass(slots=True)
class ReplicateAckBody:
    """Backup -> primary answer to a batch (one-way), echoing its stream
    ``incarnation``: every record at or below ``applied`` has been
    applied.  ``-1`` refuses the stream: a failover deposed the sender,
    or the backup lost state; the primary stops pumping it."""

    incarnation: int
    applied: int


@dataclass(slots=True)
class ViewProposeBody:
    """Membership view change, phase one: coordinator -> every member.

    Carries the complete proposed view (not a delta) so acceptance is a
    pure epoch comparison and a re-sent propose is idempotent.
    """

    epoch: int
    #: (node_id, state) pairs -- the full proposed membership view.
    members: Tuple[Tuple[int, str], ...]
    #: (site, final_seq) pairs for decommissioned sites: each one's final
    #: commit frontier; the entry pins the clock width (docs/membership.md).
    retired: Tuple[Tuple[int, int], ...]
    proposer: int


@dataclass(slots=True)
class ViewAckBody:
    """A member's epoch-gated verdict on a proposed view.

    ``ok`` is false when the member has already committed an epoch at or
    past the proposal's -- the proposer must re-read the current view and
    retry from there.
    """

    epoch: int
    member: int
    ok: bool
    #: The acker's committed epoch, for proposer diagnostics on reject.
    current_epoch: int = -1


@dataclass(slots=True)
class ViewCommitBody:
    """Phase two: apply the view (one-way fan-out, idempotent).

    A member applies the commit iff ``epoch`` is newer than its committed
    epoch; stale or duplicate commits are ignored, so the coordinator and
    the anti-entropy layer may both (re-)send it freely.
    """

    epoch: int
    members: Tuple[Tuple[int, str], ...]
    retired: Tuple[Tuple[int, int], ...]


@dataclass(slots=True)
class HeartbeatBody:
    """Failure-detector beacon (one-way, background channel).

    Carries the sender's ``siteVC`` so receivers harvest per-peer frontier
    evidence (for WAL truncation) from liveness traffic for free.
    """

    site_vc: Tuple[int, ...]


# ----------------------------------------------------------------------
# 2PC-baseline wire formats (single-version store)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class SimpleReadRequestBody:
    txn_id: int
    key: Hashable


@dataclass(slots=True)
class SimpleReadReturnBody:
    value: object
    version: int


@dataclass(slots=True)
class SimplePrepareBody:
    """Read validation plus write intent for one participant."""

    txn_id: int
    #: key -> version the transaction read; participant re-checks equality.
    reads: Dict[Hashable, int]
    writes: Dict[Hashable, object]


@dataclass(slots=True)
class SimpleVoteBody:
    ok: bool
    #: Version each written key will receive if the commit decides yes
    #: (stable while the write lock is held); used for history recording.
    install_versions: Dict[Hashable, int] = field(default_factory=dict)
    reason: Optional[str] = None


@dataclass(slots=True)
class SimpleDecideBody:
    txn_id: int
    outcome: bool

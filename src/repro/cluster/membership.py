"""Elastic membership: epoch-numbered views and per-node view state.

The cluster's membership is an explicitly versioned *view*: the sorted
member ids plus the final commit frontiers of decommissioned sites.
Who owns a key is the :class:`~repro.cluster.directory.ShardMap`'s
business alone; a view says who is in the fan-out.  A view change is
one commit, made by the reconfiguration drivers
(:mod:`repro.cluster.reconfig`): they derive the target view from the
newest committed one and have a live member fan out ``VIEW_COMMIT`` --
the complete view, never a delta (one-way, idempotent).  Applying a
commit widens the node's ``siteVC`` to the view's clock width, resets
the failure detector's memory of removed peers, and logs a committed
:class:`~repro.storage.wal.ViewChangeRecord` so crash recovery restores
the view; it never touches a fence.  Stale or duplicate commits are
ignored, which lets the anti-entropy layer re-send the current view
every gossip round for free: that is how a member the fan-out missed
learns it.

A joiner enters the view before its shards reach it, and a leaving
member leaves it only after its shards went.  A removed member's
``retired`` entry records its final frontier and pins the clock width,
which is ``1 + max(member and retired ids)`` and never decreases (see
``docs/membership.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.wire import ViewCommitBody
from repro.net.message import MessageType
from repro.storage.wal import ViewChangeRecord

#: Handoffs a reconfiguration driver tries before it gives up; also the
#: prepare rounds a commit spends regrouping across handoffs and
#: failovers before it aborts.
MAX_ATTEMPTS = 5
#: The drivers' poll tick: how often a wait on a joiner's view apply,
#: a bootstrap or a handoff's drain re-checks (a driver must never hang
#: on a crashed member).
POLL_TICK = 2e-3
#: Deadline for a joiner's view apply and bootstrap (the join is
#: abandoned past it) and for a handoff's drain of write locks.
HANDOFF_TIMEOUT = 200e-3


class MembershipView:
    """An immutable epoch-numbered membership view."""

    __slots__ = ("epoch", "members", "retired")

    def __init__(
        self,
        epoch: int,
        members: Iterable[int],
        retired: Dict[int, int] | Iterable[Tuple[int, int]] = (),
    ) -> None:
        self.epoch = epoch
        #: Member ids, sorted: the commit, Propagate and gossip fan-out.
        self.members: Tuple[int, ...] = tuple(sorted(members))
        #: Decommissioned site -> its final frontier (a rejoined site
        #: keeps its entry until it leaves again).
        self.retired: Dict[int, int] = dict(retired)

    @classmethod
    def initial(cls, node_ids: Iterable[int]) -> "MembershipView":
        """Epoch zero: the static seed membership."""
        return cls(0, node_ids)

    @property
    def clock_width(self) -> int:
        """Vector-clock width this view requires; retired sites keep
        their entry (a node's clock only ever widens)."""
        ids = set(self.members) | set(self.retired)
        return (max(ids) + 1) if ids else 0

    def to_triple(self) -> Tuple[int, Tuple, Tuple]:
        """``(epoch, members, retired)`` -- the wire, WAL and checkpoint
        encoding (the leading fields of every view message and record);
        ``MembershipView(*triple)`` reads it back."""
        return (self.epoch, self.members, tuple(sorted(self.retired.items())))

    # ------------------------------------------------------------------
    # Derivation (drivers build target views from the committed one)
    # ------------------------------------------------------------------
    def with_member(self, node_id: int) -> "MembershipView":
        return MembershipView(self.epoch + 1, self.members + (node_id,), self.retired)

    def without_member(
        self, node_id: int, final_seq: Optional[int] = None
    ) -> "MembershipView":
        """Drop ``node_id``; record its final frontier when given.

        ``final_seq=None`` is the abandoned-join form: the site never
        committed anything, so no retired entry is needed.
        """
        retired = dict(self.retired)
        if final_seq is not None:
            retired[node_id] = final_seq
        members = (member for member in self.members if member != node_id)
        return MembershipView(self.epoch + 1, members, retired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<View e{self.epoch} {list(self.members)} retired={self.retired}>"


class NodeMembership:
    """One node's membership state machine.

    Owns the committed view and the view-commit handler.  A view commit
    never touches the node's :class:`~repro.core.repair.Fence`: every
    ownership change raises and lowers its own shard fences
    (:mod:`repro.cluster.handoff`).
    """

    def __init__(self, owner) -> None:
        self.owner = owner
        self.node_id = owner.node_id
        self.view = MembershipView.initial(owner.shared.config.node_ids)

    def commit(self, view: MembershipView) -> None:
        """Fan out the commit (one-way, idempotent) and apply it locally."""
        for member in view.members:
            if member != self.node_id:
                self.send_commit_to(member, view)
        self.apply_commit(view)

    def send_commit_to(
        self, peer: int, view: Optional[MembershipView] = None
    ) -> None:
        """Send one peer a committed view -- by default ours, re-sent as
        gossip's piggyback."""
        view = view or self.view
        self.owner.node.send(
            peer, MessageType.VIEW_COMMIT, ViewCommitBody(*view.to_triple())
        )

    def on_view_commit(self, envelope) -> None:
        body = envelope.payload
        self.apply_commit(MembershipView(body.epoch, body.members, body.retired))

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def apply_commit(self, view: MembershipView) -> bool:
        """Apply a committed view; stale/duplicate epochs are no-ops."""
        if view.epoch <= self.view.epoch:
            return False
        owner = self.owner
        owner.site_vc.widen(view.clock_width)
        previous = self.view
        self.view = view
        if owner.wal is not None:
            owner.wal.append(ViewChangeRecord(*view.to_triple()))
        # Forget removed peers: the failure detector must not carry a
        # dead site's suspicion (or a rejoining site's stale history)
        # into the new view.
        for peer in previous.members:
            if peer != self.node_id and peer not in view.members:
                owner.healing.detector.forget(peer)
        epoch, members, retired = view.to_triple()
        owner.tracer.emit(
            self.node_id, "view_commit", epoch=epoch, members=members,
            retired=retired,
        )
        return True

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def restore(
        self, view_triple: Optional[Tuple[int, Tuple, Tuple]]
    ) -> None:
        """Reinstall the replayed view after a crash (no re-logging).

        The shared directory is live cluster state -- the survivors kept
        mutating it while this node was down -- so recovery only restores
        the node's *view knowledge*; gossip's commit piggyback delivers
        any epochs committed during the outage.
        """
        if view_triple is not None:
            view = MembershipView(*view_triple)
            if view.epoch > self.view.epoch:
                self.view = view
                self.owner.site_vc.widen(view.clock_width)

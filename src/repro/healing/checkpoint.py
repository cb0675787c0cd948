"""WAL checkpointing and distributed-evidence truncation.

A checkpoint is a :class:`~repro.storage.wal.CheckpointRecord` -- a
fingerprinted snapshot of the node's durable state -- appended to the WAL
so replay resets to it and only consumes the suffix.  Locally that makes
truncating everything below the newest checkpoint state-preserving by
construction; *distributed* safety needs one more condition:

    every peer has applied this node's own commit frontier as of the
    checkpoint.

Until then a peer (or this node recovering on a truncated log) might
still need a below-checkpoint DecisionRecord re-announced: a Decide or
Propagate lost to a fault is repaired from the decision log, and the
decision log below the checkpoint survives only inside the snapshot.
The evidence is the per-peer frontier map the healing daemon harvests
from heartbeats and anti-entropy digests; once the floor of that map
reaches the checkpoint's own-origin frontier, no peer can ever again ask
about anything below it (a TxnStatus query is only sent by a node still
holding the prepare, and applying the sequence number resolves the
prepare first), so the same evidence also lets the in-memory decision
log be pruned -- precise GC for both the log and the table.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.wal import (
    CheckpointRecord,
    PrepareRecord,
    build_checkpoint,
)

#: Skip an automatic checkpoint unless at least this many WAL records
#: accumulated since the previous one (avoids checkpoint spam on idle
#: nodes).
MIN_RECORDS = 32


class CheckpointManager:
    """Checkpoint/truncation policy for one node's WAL."""

    def __init__(self, owner, healing) -> None:
        self.owner = owner
        self.healing = healing
        self.config = healing.config.checkpoint
        #: Cumulative WAL append count as of the previous checkpoint
        #: (survives truncation, which only shifts the record list).
        self._last_logical = 0
        #: Own-origin frontier captured by the newest checkpoint; the
        #: truncation evidence must reach it.  ``None`` = nothing pending.
        self._stable_required: Optional[int] = None
        #: Checkpoints taken at this node (test probe).
        self.taken = 0
        #: Own-origin sequence numbers at or below this were pruned from
        #: the in-memory decision log (and the WAL below the matching
        #: checkpoint truncated).  A peer whose frontier sits below it
        #: can no longer be repaired record by record -- the trigger for
        #: snapshot transfer (see NodeHealing).
        self.pruned_floor = 0
        #: The newest CheckpointRecord this node holds (taken here, or
        #: recovered from the WAL); the payload a snapshot offer ships.
        self._latest: Optional[CheckpointRecord] = None

    def _logical_length(self) -> int:
        """Records ever appended (list length plus truncated prefix)."""
        wal = self.owner.wal
        return len(wal) + wal.truncated

    # ------------------------------------------------------------------
    # Taking checkpoints
    # ------------------------------------------------------------------
    def maybe_checkpoint(self) -> bool:
        """Take a checkpoint if enough records accumulated; True if taken."""
        if self._logical_length() - self._last_logical < MIN_RECORDS:
            return False
        return self.checkpoint_now() is not None

    def checkpoint_now(self) -> Optional[CheckpointRecord]:
        """Snapshot the node's durable state into the WAL immediately.

        Returns ``None`` (and takes nothing) while any Decide applier is
        between installing its versions and logging its ApplyRecord
        (``owner._applying``): in that window the live store holds
        versions the log does not yet explain, so a snapshot of it would
        not equal replay-of-prefix -- the invariant the whole scheme
        rests on.  The window is a few simulated microseconds; the next
        attempt succeeds.
        """
        owner = self.owner
        if owner.wal is None or owner.wal.frozen or owner.fence.node_wide:
            return None
        if owner._applying:
            return None
        in_doubt = [
            PrepareRecord(txn_id, entry.coordinator, tuple(entry.writes.items()))
            for txn_id, entry in sorted(owner._prepared.items())
        ]
        membership = owner.membership
        view = None
        if membership.view.epoch > 0:
            # Stamp the committed view so replay-from-checkpoint restores
            # membership even after the ViewChangeRecords are truncated.
            # Epoch-0 (static) runs keep the historical record layout.
            view = membership.view.to_triple()
        record = build_checkpoint(
            owner.store.snapshots(),
            owner.site_vc,
            owner.curr_seq_no,
            in_doubt=in_doubt,
            decisions=owner.in_doubt.log.by_txn.values(),
            records_below=len(owner.wal),
            view=view,
        )
        owner.wal.append(record)
        self._last_logical = self._logical_length()
        self._stable_required = owner.site_vc[owner.node_id]
        self._latest = record
        self.taken += 1
        owner.tracer.emit(
            owner.node_id, "checkpoint",
            records_below=record.records_below,
            in_doubt=len(in_doubt),
            own_frontier=self._stable_required,
        )
        return record

    def latest_checkpoint(self) -> Optional[CheckpointRecord]:
        """The newest checkpoint on record (cached, else a WAL scan).

        The WAL scan covers the node that recovered from a checkpointed
        log without ever taking a fresh checkpoint itself: the record is
        still the durable payload a snapshot offer must ship.
        """
        if self._latest is not None:
            return self._latest
        wal = self.owner.wal
        if wal is None:
            return None
        for record in reversed(wal.records()):
            if isinstance(record, CheckpointRecord):
                self._latest = record
                return record
        return None

    # ------------------------------------------------------------------
    # Truncation
    # ------------------------------------------------------------------
    def stable_floor(self) -> Optional[int]:
        """The own-origin frontier every *retained* peer has applied.

        ``None`` until evidence from every peer has arrived -- with a
        peer unheard from, nothing is provably stable.  A single-node
        cluster has no peers and everything is trivially stable.

        With ``max_peer_lag`` set (bounded retention), a peer whose
        evidence lags our frontier beyond the bound -- or that has never
        reported while our frontier exceeds the bound -- is stranded:
        dropped from the floor so truncation is not held hostage by one
        long-partitioned node.  A stranded peer lands below the pruned
        floor and is repaired by snapshot transfer instead of the
        record-by-record push.  Nothing supersedes the decisions pruned
        with the rest: the offer carries none, so a commit the peer holds
        prepared has no decision on record (a lease's query presumes it
        aborted) and the install ticks the peer's clock past it -- a lost
        write, pinned in ``tests/integration/test_healing.py``.  When
        *every* peer is stranded the floor is our own frontier.
        """
        peers = self.healing.peers
        own = self.owner.site_vc[self.owner.node_id]
        if not peers:
            return own
        max_lag = self.config.max_peer_lag
        frontiers = self.healing.peer_frontiers
        floor = None
        for peer in peers:
            frontier = frontiers.get(peer)
            if frontier is None:
                if max_lag is not None and own > max_lag:
                    continue  # stranded: never heard from, bound exceeded
                return None
            if max_lag is not None and own - frontier > max_lag:
                continue  # stranded: beyond bounded retention
            if floor is None or frontier < floor:
                floor = frontier
        return own if floor is None else floor

    def maybe_truncate(self) -> int:
        """Truncate below the newest checkpoint once it is stable.

        Returns the number of records dropped (0 when disabled, when no
        checkpoint is pending, or when the evidence has not caught up).
        Also prunes the in-memory decision log below the stable floor --
        the same evidence proves no TxnStatus query or gossip stream can
        ever need those entries again.
        """
        owner = self.owner
        if (
            owner.wal is None
            or owner.wal.frozen
            or self._stable_required is None
        ):
            return 0
        floor = self.stable_floor()
        if floor is None or floor < self._stable_required:
            return 0
        dropped = owner.wal.truncate_to_checkpoint()
        self._stable_required = None
        if floor > self.pruned_floor:
            self.pruned_floor = floor
        owner.in_doubt.log.prune(floor)
        if dropped:
            owner.tracer.emit(
                owner.node_id, "truncate", dropped=dropped, floor=floor
            )
        return dropped

"""Backup-side state of one replication stream, and its one interpreter.

:meth:`BackupState.apply` is the only place the stream's record kinds
(:class:`~repro.core.wire.ReplicationEntry`) are given meaning: the
live REPLICATE handler (``NodeReplication.on_replicate``) and the WAL
replay of a restarted backup (``storage.wal.replay``) both call it, so a
replayed backup cannot drift from the one that never crashed.  The
module imports nothing from ``repro.storage.wal`` or ``repro.
replication.shard``: both import it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.vector_clock import VectorClock
from repro.core.wire import ReplicationEntry


class BackupState:
    """Backup-side state of one primary's stream at this node."""

    __slots__ = (
        "applied", "frontier", "staged", "decisions", "buffer", "closed",
    )

    def __init__(
        self,
        applied: int = 0,
        frontier: Optional[Tuple[int, ...]] = None,
    ) -> None:
        #: Cumulative applied high-water mark (the ack we return).
        self.applied = applied
        #: The primary's ``siteVC`` as of the newest applied ``apply``
        #: record -- a promotion's re-stage floor.
        self.frontier = frontier
        #: txn_id -> prepare entry for staged, undecided participants.
        self.staged: Dict[int, ReplicationEntry] = {}
        #: txn_id -> decision entry (commits the primary coordinated).
        self.decisions: Dict[int, ReplicationEntry] = {}
        #: Out-of-order arrivals waiting for their predecessors.
        self.buffer: Dict[int, ReplicationEntry] = {}
        #: Closed after the primary was failed over: any straggling
        #: retransmission from a deposed (restarted) primary is refused
        #: with ``applied = -1`` instead of double-installing versions
        #: the promotion already resolved.
        self.closed = False

    def apply(
        self, entry: ReplicationEntry, store, installed_at: float = 0.0
    ) -> None:
        """Apply the stream's next record; the caller has checked that
        ``entry.seq`` is above :attr:`applied` (duplicates are dropped
        by sequence, never re-applied)."""
        kind = entry.kind
        if kind == "prepare":
            self.staged[entry.txn_id] = entry
        elif kind == "abort":
            staged = self.staged.get(entry.txn_id)
            if staged is not None and staged.round == entry.round:
                del self.staged[entry.txn_id]
        elif kind == "decision":
            self.decisions[entry.txn_id] = entry
        elif kind == "apply":
            self.staged.pop(entry.txn_id, None)
            # One frozen clock per commit, as at the primary (``Version.vc``).
            commit_vc = entry.writes and VectorClock.frozen(entry.commit_vc)
            for key, value in entry.writes:
                # Verbatim install, in stream order: per-key conflicts
                # were lock-serialized at the primary, so the backup's
                # chains -- including their vids -- replay the
                # primary's exactly.  The backup's own clock is never
                # touched; it advances through the normal Propagate/
                # Decide traffic like any other node.
                store.install(
                    key, value, commit_vc, origin=entry.origin, seq=entry.seq_no,
                    writer_txn=entry.txn_id, installed_at=installed_at,
                )
            if entry.frontier is not None:
                self.frontier = entry.frontier
        self.applied = entry.seq

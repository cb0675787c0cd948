"""Execution histories for offline consistency checking.

When history recording is enabled, every committed transaction leaves a
:class:`TxnRecord` with the versions it read and wrote and the real-time
interval it spanned.  The oracle (:mod:`repro.metrics.psi_checker`) builds
its dependency graph from these records and the version catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple


@dataclass
class OpRecord:
    """One read or write observed by a committed transaction."""

    kind: str  # "r" or "w"
    key: Hashable
    vid: int  # version identifier read or installed
    #: vid of the newest version where a read chose its version: the
    #: freshness witness.  None on writes.
    latest_vid_at_read: Optional[int] = None


@dataclass
class TxnRecord:
    """A committed transaction in the history."""

    txn_id: int
    node_id: int
    is_read_only: bool
    start_time: float
    end_time: float
    ops: List[OpRecord] = field(default_factory=list)
    seq_no: Optional[int] = None
    commit_vc: Optional[Tuple[int, ...]] = None
    profile: Optional[str] = None
    #: Keys written, recorded at commit (vids: ``resolve_write_vids``).
    write_keys: Tuple[Hashable, ...] = ()

    def writes(self) -> List[OpRecord]:
        """The write operations of this transaction."""
        return [op for op in self.ops if op.kind == "w"]


class History(list):
    """Append-only log of committed transactions: a list of records."""

    #: ``(txn_id, key)`` of committed writes found in no store at the last
    #: resolution -- lost, on a run driven to quiescence.
    lost_writes: Sequence[Tuple[int, Hashable]] = ()

    def committed_updates(self) -> List[TxnRecord]:
        """All committed update transactions."""
        return [r for r in self if not r.is_read_only]

    def committed_read_only(self) -> List[TxnRecord]:
        """All committed read-only transactions."""
        return [r for r in self if r.is_read_only]

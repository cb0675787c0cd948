"""Transaction descriptors and their lifecycle metadata."""

from __future__ import annotations

import enum
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.vector_clock import VectorClock


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """Coordinator-side state of one transaction attempt.

    Fields mirror the paper's metadata (Section 4.1): ``vc`` is ``T.VC``
    (the visibility bound), ``has_read`` is ``T.hasRead`` (per-site frozen
    flags, FW-KV only), ``writeset`` the lazy-update buffer, ``read_keys``
    the keys a read-only transaction must send ``Remove`` for, and
    ``collected_set`` the anti-dependency identifiers gathered during 2PC.

    A retried transaction is a *new* ``Transaction`` with a fresh id; the
    client loop owns retry accounting.
    """

    __slots__ = (
        "txn_id",
        "node_id",
        "is_read_only",
        "vc",
        "has_read",
        "writeset",
        "read_keys",
        "collected_set",
        "seq_no",
        "commit_vc",
        "status",
        "start_time",
        "end_time",
        "profile",
        "ops",
        "read_cache",
        "read_versions",
        "_has_read_tuple",
        "lost_key",
        "in_line",
    )

    def __init__(
        self,
        txn_id: int,
        node_id: int,
        num_sites: int,
        is_read_only: bool,
        start_time: float = 0.0,
        profile: Optional[str] = None,
    ) -> None:
        self.txn_id = txn_id
        self.node_id = node_id
        self.is_read_only = is_read_only
        # Interned: every MVCC protocol replaces this with a snapshot copy
        # in its begin hook, and the interned instance rejects mutation.
        self.vc = VectorClock.zero(num_sites)
        self.has_read: List[bool] = [False] * num_sites
        # Cached tuple(has_read) for wire envelopes; invalidated by
        # note_read_site.  Reads between site contacts reuse one tuple.
        self._has_read_tuple: Optional[Tuple[bool, ...]] = None
        self.writeset: Dict[Hashable, object] = {}
        self.read_keys: Set[Hashable] = set()
        self.collected_set: Set[int] = set()
        self.seq_no: Optional[int] = None
        self.commit_vc: Optional[VectorClock] = None
        self.status = TransactionStatus.ACTIVE
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.profile = profile
        #: (kind, key, vid, latest_vid) tuples for history recording.
        self.ops: List[tuple] = []
        #: Coordinator-side cache so a re-read of the same key returns the
        #: version already observed (keeps the snapshot stable without a
        #: second visible-read registration).
        self.read_cache: Dict[Hashable, object] = {}
        #: key -> version observed by this transaction's reads: the scalar
        #: record version under the 2PC baseline, the vid under the MVCC
        #: protocols.  Commit validation compares it against the current
        #: latest (first-committer-wins).
        self.read_versions: Dict[Hashable, int] = {}
        #: FW-KV's line (DESIGN.md 4): the key this attempt lost or will
        #: lose (a validation no-vote named it, or it was spoken for when
        #: read), which the retry reads first and in line at its home ...
        self.lost_key: Optional[Hashable] = None
        self.in_line = False  # ... and whether this attempt is such a retry

    @property
    def is_update(self) -> bool:
        return not self.is_read_only

    @property
    def first_read_done(self) -> bool:
        """True once any site has been read (``T.hasRead`` has a true bit)."""
        return any(self.has_read)

    def note_read_site(self, site: int) -> bool:
        """Set ``has_read[site]``; returns True on the first contact.

        Grows the flag list on demand: a transaction begun before a view
        change can be routed to a site past the static width it was born
        with (elastic membership).
        """
        has_read = self.has_read
        if site >= len(has_read):
            has_read.extend([False] * (site + 1 - len(has_read)))
        first = not has_read[site]
        if first:
            has_read[site] = True
            self._has_read_tuple = None
        return first

    def has_read_tuple(self) -> Tuple[bool, ...]:
        """``tuple(has_read)``, cached between site contacts."""
        cached = self._has_read_tuple
        if cached is None:
            cached = self._has_read_tuple = tuple(self.has_read)
        return cached

    def buffered_write(self, key: Hashable):
        """The value this transaction wrote for ``key``, if any.

        Returns a ``(found, value)`` pair so ``None`` values are writable.
        """
        if key in self.writeset:
            return True, self.writeset[key]
        return False, None

    def mark_committed(self, now: float) -> None:
        self.status = TransactionStatus.COMMITTED
        self.end_time = now

    def mark_aborted(self, now: float) -> None:
        self.status = TransactionStatus.ABORTED
        self.end_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ro" if self.is_read_only else "up"
        return f"<Txn {self.txn_id} {kind}@{self.node_id} {self.status.value}>"


class PreparedTxn:
    """Participant-side state between a yes-vote and the Decide message."""

    __slots__ = (
        "writes", "locked_keys", "vote", "coordinator", "round", "lsn", "acks",
        "logged",
    )

    def __init__(
        self,
        writes: Dict[Hashable, object],
        locked_keys,
        vote,
        coordinator: int,
        round: int = 0,
    ) -> None:
        self.writes = writes
        #: Empty for an entry transplanted by a failover promotion: the
        #: dead primary's locks died with it.
        self.locked_keys = list(locked_keys)
        #: The vote returned for this prepare, replayed verbatim if a
        #: retried/duplicated Prepare arrives again (idempotency).
        self.vote = vote
        #: Who to ask when the in-doubt window must be terminated.
        self.coordinator = coordinator
        #: Prepare round (moved-retry); a newer round supersedes this
        #: entry, and an abort Decide only cancels a matching round.
        self.round = round
        #: LSN of this vote's ``PrepareRecord`` (0: no WAL, or replayed
        #: from it): the locks outlive its sync (DESIGN.md 5.10, C4).
        self.lsn = 0
        #: ``(stream, seq)`` of this vote's ``prepare`` stream records:
        #: the locks outlive their acks too (S5).
        self.acks = ()
        #: ``writes`` as its ``PrepareRecord`` logged them, for the ``ApplyRecord``.
        self.logged = ()

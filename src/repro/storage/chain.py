"""Per-key version chains."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.vector_clock import VectorClock
from repro.storage.version import Version

#: One version inside a chain snapshot:
#: ``(value, vc_tuple, origin, seq, writer_txn, installed_at)``.
SnapshotVersion = Tuple[object, Tuple[int, ...], int, int, Optional[int], float]

#: The MVCC nodes' garbage-collection policy (:meth:`VersionChain.
#: collect_garbage`): once a chain outgrows ``GC_TRIGGER_LENGTH``, the
#: versions beyond the newest ``GC_KEEP_VERSIONS`` installed more than
#: ``GC_MIN_AGE`` virtual seconds ago go.  The age must comfortably exceed
#: the longest transaction lifetime (the standard MVCC vacuuming rule).
GC_KEEP_VERSIONS = 16
GC_TRIGGER_LENGTH = 32
GC_MIN_AGE = 0.05


class VersionChain:
    """All committed versions of one key, ordered by ascending ``vid``.

    A chain holding one version -- every loaded key until its first
    overwrite, and again once GC has dropped its history -- is just
    ``_latest``; the list appears at the second install.  Because vids
    are assigned densely (``latest.vid + 1``) and garbage collection only
    drops a contiguous prefix, a vid maps to the list offset
    ``vid - _history[0].vid``; ``by_vid`` is O(1) regardless of chain
    length.  Neither the chain nor its versions name their key: the
    store's entry for the key does.  A leading positional argument is
    ignored (``benchmarks/ledger/micro.py`` still passes a key).
    """

    __slots__ = ("_latest", "_history")

    def __init__(self, _key: object = None, latest: Optional[Version] = None) -> None:
        #: Newest version (None until the first install).
        self._latest = latest
        #: Every version, oldest first, once there are two; else None.
        self._history: Optional[List[Version]] = None

    def install(
        self,
        value: object,
        vc: VectorClock,
        origin: int,
        seq: int,
        writer_txn: Optional[int] = None,
        installed_at: float = 0.0,
    ) -> Version:
        """Append a new latest version and return it."""
        latest = self._latest
        version = Version(
            value, vc, 0 if latest is None else latest.vid + 1, origin, seq,
            writer_txn, installed_at,
        )
        history = self._history
        if history is not None:
            history.append(version)
        elif latest is not None:
            self._history = [latest, version]
        self._latest = version
        return version

    @property
    def latest(self) -> Version:
        version = self._latest
        if version is None:
            raise LookupError("the chain has no versions")
        return version

    def __len__(self) -> int:
        return len(self._history or self.newest_first())

    def __iter__(self) -> Iterator[Version]:
        return iter(self._history or self.newest_first())

    def newest_first(self):
        """Iterate versions from freshest to oldest (selection order)."""
        history = self._history
        if history is not None:
            return reversed(history)
        return () if self._latest is None else (self._latest,)

    def by_vid(self, vid: int) -> Version:
        """Fetch a specific version by identifier, in O(1).

        Raises :class:`LookupError` both for vids never issued and for
        vids already reclaimed by garbage collection.
        """
        history = self._history
        if history is not None:
            index = vid - history[0].vid
            if 0 <= index < len(history):
                return history[index]
        elif self._latest is not None and self._latest.vid == vid:
            return self._latest
        raise LookupError(f"the chain has no version #{vid}")

    def collect_garbage(self, keep_last: int, min_age: float, now: float) -> int:
        """Drop reclaimable old versions from the cold end of the chain.

        A version is reclaimable when all hold: it is not among the newest
        ``keep_last`` versions; it was installed more than ``min_age`` of
        virtual time ago (so no in-flight snapshot can still select it,
        assuming transactions are much shorter than ``min_age``); and its
        version-access-set is empty (no registered read-only reader).
        Dropping stops at the first non-reclaimable version, preserving a
        contiguous chain.  Returns the number of versions dropped.
        """
        if keep_last < 1:
            raise ValueError("must keep at least the latest version")
        history = self._history
        if history is None:
            return 0
        horizon = now - min_age
        reclaimable = 0
        for version in history[:max(len(history) - keep_last, 0)]:
            if version.installed_at > horizon or version.vas:
                break
            reclaimable += 1
        if reclaimable:
            kept = history[reclaimable:]
            self._history = kept if len(kept) > 1 else None
        return reclaimable

    def snapshot(self) -> Tuple[int, Tuple[SnapshotVersion, ...]]:
        """``(base_vid, versions)``: the chain's exact layout -- the vid
        of its oldest retained version, then every version's payload."""
        held = tuple(self)
        return (held[0].vid if held else 0), tuple(
            (v.value, v.vc.to_tuple(), v.origin, v.seq, v.writer_txn,
             v.installed_at)
            for v in held
        )

    @classmethod
    def restore(
        cls, base_vid: int, versions: Iterable[SnapshotVersion]
    ) -> "VersionChain":
        """Rebuild the chain a :meth:`snapshot` captured (``install``
        always starts at vid 0; this resumes the dense sequence).  Each
        clock is frozen over the captured tuple, not copied."""
        history = [
            Version(value, VectorClock.frozen(vc), vid, origin, seq, writer, at)
            for vid, (value, vc, origin, seq, writer, at)
            in enumerate(versions, base_vid)
        ]
        chain = cls(latest=history[-1] if history else None)
        if len(history) > 1:
            chain._history = history
        return chain

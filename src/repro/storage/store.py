"""The per-node multi-version data repository."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

from repro.core.vector_clock import VectorClock
from repro.storage.chain import SnapshotVersion, VersionChain
from repro.storage.version import Version

#: A loaded version's snapshot row after its value and clock.
_LOADED = (0, 0, None, 0.0)
#: Virtual seconds a removed read-only id stays tombstoned: far beyond
#: any propagation delay, so no in-flight Decide can still carry it.
TOMBSTONE_TTL = 0.1


class MultiVersionStore:
    """All version chains held by one node, plus the VAS reverse index.

    The paper's ``Remove`` handler (Alg. 6 lines 5-10) erases a read-only
    transaction's identifier from *every* version-access-set at the node,
    including entries propagated there by concurrent update commits.  A
    literal scan of all chains would be O(store); we maintain a reverse
    index ``txn_id -> versions`` so removal costs O(entries), with the same
    semantics.  All VAS mutations must therefore go through
    :meth:`vas_add` / :meth:`vas_extend` / :meth:`vas_remove_txn`.

    **Tombstones.**  A Remove races with in-flight update commits whose
    Decide still carries the removed identifier in its collected set; a
    late install would resurrect the entry forever.  Since a removed
    transaction has finished and will never read again, its identifier is
    tombstoned: later insertions are ignored.  Ids are dense (one counter
    per cluster, or one stride per socket host), so the tombstones are a
    byte window over ids, spanning exactly the oldest to the newest: byte
    ``id - base`` is 1 while ``id`` is tombstoned.  They expire after
    :data:`TOMBSTONE_TTL` of virtual time, in one batch per distinct
    ``now`` (per ``Remove`` message), queued in columns: the ids, and per
    batch its time and the end of its ids.  A head index passes expired
    batches; they are cut once they hold over half the ids.

    **Loaded keys.**  A key :meth:`create_many` loaded and nothing has
    touched since is held as its value alone; its one version (vid 0,
    origin/seq 0, the load clock ``_load_vc``) is implied.  Its first
    :meth:`chain` or :meth:`install` builds exactly that version and its
    chain in place; :meth:`snapshot` reads it without building it.
    """

    def __init__(self) -> None:
        #: key -> its chain, or the value of a loaded, untouched key.
        self._chains: Dict[Hashable, object] = {}
        self._load_vc: Optional[VectorClock] = None
        self._vas_index: Dict[int, Set[Version]] = {}
        self._tombstones = bytearray()
        self._tombstone_base = 0
        self._expiring_ids, self._expiry_ends = array("q"), array("q")
        self._expiry_times, self._expiry_head = array("d"), 0

    # ------------------------------------------------------------------
    # Chains
    # ------------------------------------------------------------------
    def create(self, key: Hashable, value: object, vc: VectorClock) -> Version:
        """Load an initial version (vid 0, origin/seq 0) for a fresh key."""
        if key in self._chains:
            raise KeyError(f"key {key!r} already exists")
        return self.install(key, value, vc, origin=0, seq=0)

    def create_many(self, items: Iterable[Tuple[Hashable, object]], vc: VectorClock) -> int:
        """Bulk :meth:`create` for the initial data load: each key is held
        as its value, and ``vc`` once, as the store's one load clock."""
        if self._load_vc is None:
            self._load_vc = vc
        elif vc != self._load_vc:
            raise ValueError(f"load clock {vc!r} differs from {self._load_vc!r}")
        chains = self._chains
        count = 0
        for key, value in items:
            if key in chains:
                raise KeyError(f"key {key!r} already exists")
            chains[key] = value
            count += 1
        return count

    def chain(self, key: Hashable) -> VersionChain:
        """``key``'s chain -- built here on a loaded key's first touch."""
        try:
            entry = self._chains[key]
        except KeyError:
            raise KeyError(f"key {key!r} is not stored on this node") from None
        if entry.__class__ is not VersionChain:
            version = Version(entry, self._load_vc, 0, 0, 0)
            entry = self._chains[key] = VersionChain(latest=version)
        return entry

    def snapshot(self, key: Hashable) -> Tuple[int, Tuple[SnapshotVersion, ...]]:
        """``key``'s :meth:`VersionChain.snapshot`, building nothing."""
        entry = self._chains[key]
        if entry.__class__ is VersionChain:
            return entry.snapshot()
        return 0, ((entry, self._load_vc.to_tuple()) + _LOADED,)

    def snapshots(self) -> Iterator[Tuple[Hashable, int, Tuple[SnapshotVersion, ...]]]:
        """``(key, base_vid, versions)`` for every key, building nothing."""
        return ((key, *self.snapshot(key)) for key in self._chains)

    def adopt(
        self, key: Hashable, base_vid: int, versions: Tuple[SnapshotVersion, ...]
    ) -> None:
        """Hold the chain a :meth:`snapshot` captured as ``key``'s whole
        history, replacing any entry; an untouched key's goes back to
        its value."""
        if base_vid == 0 and len(versions) == 1 and versions[0][2:] == _LOADED:
            value, vc = versions[0][:2]
            if self._load_vc is None and vc and not any(vc):
                self._load_vc = VectorClock.zero(len(vc))
            if self._load_vc is not None and vc == self._load_vc.to_tuple():
                self._chains[key] = value
                return
        self._chains[key] = VersionChain.restore(base_vid, versions)

    def install(
        self,
        key: Hashable,
        value: object,
        vc: VectorClock,
        origin: int,
        seq: int,
        writer_txn: Optional[int] = None,
        installed_at: float = 0.0,
    ) -> Version:
        """Install a new committed version as the latest for ``key``."""
        chain = self._chains.get(key)
        if chain.__class__ is not VersionChain:
            if key in self._chains:
                chain = self.chain(key)
            else:
                chain = self._chains[key] = VersionChain()
        return chain.install(value, vc, origin, seq, writer_txn, installed_at)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._chains

    def __len__(self) -> int:
        return len(self._chains)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._chains)

    # ------------------------------------------------------------------
    # Version-access-set maintenance (FW-KV visible reads)
    # ------------------------------------------------------------------
    def vas_add(self, version: Version, txn_id: int) -> None:
        """Record that read-only transaction ``txn_id`` read ``version``."""
        offset = txn_id - self._tombstone_base
        if 0 <= offset < len(self._tombstones) and self._tombstones[offset]:
            return
        vas = version.vas
        if vas is None:
            version.vas = {txn_id}
        else:
            vas.add(txn_id)
        self._vas_index.setdefault(txn_id, set()).add(version)

    def vas_extend(self, version: Version, txn_ids: Iterable[int]) -> None:
        """Propagate a collected anti-dependency set into ``version``."""
        for txn_id in txn_ids:
            self.vas_add(version, txn_id)

    def vas_remove_txn(self, txn_id: int, now: float = 0.0) -> int:
        """Erase ``txn_id`` from every VAS on this node (Remove handler).

        Returns the number of entries erased.  The identifier is
        tombstoned against late re-insertion by in-flight commits.
        """
        window, ids = self._tombstones, self._expiring_ids
        times, ends = self._expiry_times, self._expiry_ends
        if not window or txn_id < self._tombstone_base:
            window[:0] = bytes(self._tombstone_base - txn_id if window else 0)
            self._tombstone_base = txn_id
        offset = txn_id - self._tombstone_base
        if offset >= len(window):
            window.extend(bytes(offset + 1 - len(window)))
        if not window[offset]:
            window[offset] = 1
            ids.append(txn_id)
            if not times or times[-1] != now:
                times.append(now)
                ends.append(0)
            ends[-1] = len(ids)
        head, horizon = self._expiry_head, now - TOMBSTONE_TTL
        if times[head] <= horizon:
            base, start = self._tombstone_base, ends[head - 1] if head else 0
            head = bisect_right(times, horizon, head)
            for expired in ids[start:ends[head - 1]]:
                window[expired - base] = 0
            # Cut the window back to the oldest and newest id still held.
            del window[window.rfind(1) + 1:]
            start = max(window.find(1), 0)
            del window[:start]
            self._tombstone_base = base + start
            cut = ends[head - 1]
            if 2 * cut > len(ids):
                del ids[:cut], times[:head], ends[:head]
                self._expiry_ends = array("q", [end - cut for end in ends])
                head = 0
            self._expiry_head = head
        versions = self._vas_index.pop(txn_id, None)
        if not versions:
            return 0
        for version in versions:
            vas = version.vas
            vas.discard(txn_id)
            if not vas:
                version.vas = None
        return len(versions)

    def vas_total_entries(self) -> int:
        """Total VAS entries on this node (metrics/invariant checks)."""
        return sum(len(versions) for versions in self._vas_index.values())

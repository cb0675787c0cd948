"""Key-to-preferred-site lookup.

The paper (Section 2.2): "every shared key can be stored in an arbitrary
preferred site. For object reachability, FW-KV implements a local look-up
function using consistent hashing."  All directory variants below are pure
local functions of the key, exactly as in the paper -- no directory service
is contacted at runtime.  Only :class:`ShardMap` ever changes: it is the one
directory the membership drivers and the rebalancer flip.  ``site`` memoises
the uncached ``place`` from a key's first look-up; bulk scans use ``place``.
"""

from __future__ import annotations

import bisect
import zlib
from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Sequence


class Directory(ABC):
    """Maps every key to its preferred site (node id)."""

    @abstractmethod
    def place(self, key: Hashable) -> int:
        """The preferred node for ``key``, computed afresh."""

    def site(self, key: Hashable) -> int:
        """The preferred node for ``key`` (memoised where it pays)."""
        return self.place(key)


def _stable_hash(value: str) -> int:
    """A hash stable across processes (unlike ``hash()`` with PYTHONHASHSEED).

    CRC32 is fast and deterministic; 32 bits of spread is ample for key
    placement.  A second pass decorrelates short sequential suffixes.
    """
    raw = value.encode("utf-8")
    return (zlib.crc32(raw) * 0x9E3779B1 + zlib.crc32(raw[::-1])) & 0xFFFFFFFF


class ConsistentHashDirectory(Directory):
    """Classic consistent-hash ring with virtual nodes.

    With the default 64 virtual nodes per physical node, key ownership is
    close to uniform, matching the paper's "keys are evenly distributed
    across nodes".  The ring is static, the paper's local look-up
    function; elastic clusters re-place keys through :class:`ShardMap`.
    """

    def __init__(self, node_ids: Sequence[int], virtual_nodes: int = 64) -> None:
        if not node_ids:
            raise ValueError("at least one node required")
        if virtual_nodes <= 0:
            raise ValueError("virtual_nodes must be positive")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("duplicate node ids")
        ring = sorted(
            (_stable_hash(f"node:{node_id}:{replica}"), node_id)
            for node_id in node_ids
            for replica in range(virtual_nodes)
        )
        self._ring_positions = [position for position, _ in ring]
        self._ring_owners = [owner for _, owner in ring]
        # Placement is a pure function of the key, so lookups are memoised;
        # the cache is bounded by the keys the run routes and turns two
        # CRC32 passes plus a bisect into one dict hit on the hot path.
        self._cache: Dict[Hashable, int] = {}

    def place(self, key: Hashable) -> int:
        index = bisect.bisect_right(self._ring_positions, _stable_hash(f"key:{key!r}"))
        return self._ring_owners[index % len(self._ring_owners)]

    def site(self, key: Hashable) -> int:
        owner = self._cache.get(key)
        if owner is None:
            owner = self._cache[key] = self.place(key)
        return owner


class ShardMap(Directory):
    """Key → shard → owner placement with epoch-versioned atomic flips.

    Where :class:`ConsistentHashDirectory` derives ownership from ring
    geometry, a shard map makes it explicit state: the keyspace is
    partitioned into ``num_shards`` fixed shards by stable hash, and an
    owner table maps each shard to one node.  Ownership moves at shard
    granularity -- a rebalancer or a join/leave driver streams shards'
    chains to a new owner and flips table entries.  Every flip bumps
    ``epoch``, mirroring membership views, so tests and traces can name
    the placement version a lookup was served under.
    ``ShardMap(range(n), n)`` is one shard per node: key ``k`` sits at
    ``_stable_hash(f"key:{k!r}") % n``.

    All mutations keep two invariants the property suite pins down:
    ownership is total and unique (every shard has exactly one owner,
    always drawn from ``node_ids``), and no lookup ever returns a
    retired node -- ``remove_node`` reassigns every shard before the
    node leaves the table.
    """

    def __init__(self, node_ids: Sequence[int], num_shards: int = 64) -> None:
        if not node_ids:
            raise ValueError("at least one node required")
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("duplicate node ids")
        self.num_shards = num_shards
        self.epoch = 0
        self.node_ids: list = list(node_ids)
        self.retired: set = set()
        # Initial placement strides shards across the given node order --
        # exact balance (counts differ by at most one), no hashing needed.
        self._owners: list = [
            node_ids[shard % len(node_ids)] for shard in range(num_shards)
        ]
        # key -> shard is a pure function of the key (ownership flips
        # never invalidate it), so it is memoised on a key's first lookup.
        self._shard_cache: Dict[Hashable, int] = {}

    def hash_shard(self, key: Hashable) -> int:
        """``shard_of`` computed afresh, leaving the memo alone."""
        return _stable_hash(f"key:{key!r}") % self.num_shards

    def shard_of(self, key: Hashable) -> int:
        shard = self._shard_cache.get(key)
        if shard is None:
            shard = self._shard_cache[key] = self.hash_shard(key)
        return shard

    def owner_of(self, shard: int) -> int:
        return self._owners[shard]

    def place(self, key: Hashable) -> int:
        return self._owners[self.hash_shard(key)]

    def site(self, key: Hashable) -> int:
        return self._owners[self.shard_of(key)]

    def owners(self) -> tuple:
        """The full owner table (index = shard id), as an immutable copy."""
        return tuple(self._owners)

    def shards_of(self, node_id: int) -> tuple:
        return tuple(
            shard
            for shard, owner in enumerate(self._owners)
            if owner == node_id
        )

    def assign(self, shard: int, owner: int) -> bool:
        """Atomically flip one shard's owner; bump the epoch.

        This is the cutover instant of a live migration: the caller has
        already streamed the shard's chains to ``owner`` and holds the
        fence, so the flip is a single table write.  Assigning a shard
        to its current owner is a no-op (no epoch bump) so retried
        cutovers stay idempotent.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range")
        if owner not in self.node_ids:
            raise ValueError(f"node {owner} is not a member")
        if self._owners[shard] == owner:
            return False
        self._owners[shard] = owner
        self.epoch += 1
        return True

    def add_node(self, node_id: int) -> None:
        """Admit a node and steal it a fair share of shards.

        Deterministic greedy: while the newcomer holds fewer than
        ``num_shards // n`` shards, take the highest-numbered shard from
        the currently most-loaded owner (ties broken toward the lowest
        node id).  One epoch bump covers the whole membership change,
        like a view commit.
        """
        if node_id in self.node_ids:
            raise ValueError(f"node {node_id} is already a member")
        self.node_ids.append(node_id)
        self.retired.discard(node_id)
        counts = {n: 0 for n in self.node_ids}
        for owner in self._owners:
            counts[owner] += 1
        target = self.num_shards // len(self.node_ids)
        while counts[node_id] < target:
            donor = max(
                (n for n in self.node_ids if n != node_id),
                key=lambda n: (counts[n], -n),
            )
            if counts[donor] <= counts[node_id] + 1:
                break  # already balanced to within one shard
            shard = max(
                s for s, owner in enumerate(self._owners) if owner == donor
            )
            self._owners[shard] = node_id
            counts[donor] -= 1
            counts[node_id] += 1
        self.epoch += 1

    def remove_node(self, node_id: int) -> None:
        """Retire a node, handing each of its shards to the least-loaded
        survivor (ties toward the lowest id) in ascending shard order."""
        if node_id not in self.node_ids:
            raise ValueError(f"node {node_id} is not a member")
        if len(self.node_ids) == 1:
            raise ValueError("cannot remove the last node")
        self.node_ids.remove(node_id)
        self.retired.add(node_id)
        counts = {n: 0 for n in self.node_ids}
        for owner in self._owners:
            if owner != node_id:
                counts[owner] += 1
        for shard, owner in enumerate(self._owners):
            if owner != node_id:
                continue
            heir = min(self.node_ids, key=lambda n: (counts[n], n))
            self._owners[shard] = heir
            counts[heir] += 1
        self.epoch += 1

    def with_nodes(self, node_ids: Sequence[int]) -> "ShardMap":
        """A shard map over a different node set, derived from this one.

        Applies removals then additions in sorted order via the same
        incremental ops the live map uses, so the membership drivers'
        precomputed ownership (``with_nodes`` before the handoff) agrees
        exactly with the later in-place ``add_node``/``remove_node``
        flip.  When the target set is disjoint from the current one,
        additions run first so the map is never empty mid-derivation.
        """
        target = list(node_ids)
        if not target:
            raise ValueError("at least one node required")
        if len(set(target)) != len(target):
            raise ValueError("duplicate node ids")
        clone = ShardMap.__new__(ShardMap)
        clone.num_shards = self.num_shards
        clone.epoch = self.epoch
        clone.node_ids = list(self.node_ids)
        clone.retired = set(self.retired)
        clone._owners = list(self._owners)
        clone._shard_cache = self._shard_cache  # pure function of the key
        wanted = set(target)
        to_remove = sorted(set(clone.node_ids) - wanted)
        to_add = sorted(wanted - set(clone.node_ids))
        if len(to_remove) == len(clone.node_ids):
            for node_id in to_add:
                clone.add_node(node_id)
            for node_id in to_remove:
                clone.remove_node(node_id)
        else:
            for node_id in to_remove:
                clone.remove_node(node_id)
            for node_id in to_add:
                clone.add_node(node_id)
        return clone


class ExplicitDirectory(Directory):
    """Fixed key placement, for scenario tests that script exact layouts."""

    def __init__(self, placement: Dict[Hashable, int]) -> None:
        self._placement = dict(placement)

    def place(self, key: Hashable) -> int:
        if key in self._placement:
            return self._placement[key]
        raise KeyError(f"no placement for key {key!r}")


class CallableDirectory(Directory):
    """Placement computed by an arbitrary function of the key.

    Used by the TPC-C port to give every warehouse's object tree a single
    preferred site (the paper's hierarchical access pattern).
    """

    def __init__(self, fn: Callable[[Hashable], int]) -> None:
        self._fn = fn

    def place(self, key: Hashable) -> int:
        return self._fn(key)

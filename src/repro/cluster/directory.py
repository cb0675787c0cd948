"""Key-to-preferred-site lookup.

The paper (Section 2.2): "every shared key can be stored in an arbitrary
preferred site. For object reachability, FW-KV implements a local look-up
function using consistent hashing."  All directory variants below are pure
local functions of the key, exactly as in the paper -- no directory service
is contacted at runtime.  Only :class:`ShardMap` ever changes: it is the one
directory a handoff flips.  ``site`` memoises the uncached ``place`` from a
key's first look-up; a bulk load places a chunk of keys with ``place_many``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Sequence
from zlib import crc32

#: Items a bulk load pulls per pass: it holds one chunk, never the keyspace.
LOAD_CHUNK = 4096
_REVERSED = itemgetter(slice(None, None, -1))


class Directory(ABC):
    """Maps every key to its preferred site (node id)."""

    #: Owner flips so far; only a :class:`ShardMap` ever flips one.
    epoch = 0

    @abstractmethod
    def place(self, key: Hashable) -> int:
        """The preferred node for ``key``, computed afresh."""

    def site(self, key: Hashable) -> int:
        """The preferred node for ``key`` (memoised where it pays)."""
        return self.place(key)

    def place_many(self, keys: Iterable[Hashable]) -> List[int]:
        """``place`` of every key, in order."""
        return list(map(self.place, keys))


def _mix(forward: int, backward: int) -> int:
    """A text's hash, stable across processes (unlike ``hash()``), from the
    CRC32s of its bytes and of them reversed (decorrelating short suffixes)."""
    return (forward * 0x9E3779B1 + backward) & 0xFFFFFFFF


def _stable_hash(value: str) -> int:
    raw = value.encode()
    return _mix(crc32(raw), crc32(raw[::-1]))


def _key_hashes(keys: Iterable[Hashable]) -> Iterator[int]:
    """``_stable_hash(f"key:{key!r}")`` of every key, the CRC32s in C loops."""
    raws = [f"key:{key!r}".encode() for key in keys]
    return map(_mix, map(crc32, raws), map(crc32, map(_REVERSED, raws)))


class ConsistentHashDirectory(Directory):
    """Classic consistent-hash ring with virtual nodes: with the default 64
    per node, ownership is close to uniform, matching the paper's "keys are
    evenly distributed across nodes".  The ring is static, the paper's local
    look-up function; sharded clusters place keys through :class:`ShardMap`.
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
        # A hash past the last point wraps round to the first point's owner.
        self._ring_owners = [owner for _, owner in ring] + [ring[0][1]]
        # Placement is a pure function of the key, so lookups are memoised:
        # one dict hit for two CRC32 passes and a bisect, per routed key.
        self._cache: Dict[Hashable, int] = {}

    def place(self, key: Hashable) -> int:
        return self._ring_owners[bisect_right(self._ring_positions, _stable_hash(f"key:{key!r}"))]

    def place_many(self, keys: Iterable[Hashable]) -> List[int]:
        owners, positions = self._ring_owners, self._ring_positions
        return [owners[bisect_right(positions, digest)] for digest in _key_hashes(keys)]

    def site(self, key: Hashable) -> int:
        owner = self._cache.get(key)
        if owner is None:
            owner = self._cache[key] = self.place(key)
        return owner


class ShardMap(Directory):
    """Key → shard → owner placement with epoch-versioned atomic flips
    (docs/sharding.md section 1): ``num_shards`` fixed shards by stable
    hash, and an owner table, total and unique over the fixed ``node_ids``,
    whose entries only a failover promotion's :meth:`assign` flips, each
    flip bumping ``epoch`` so a participant knows a key may have moved.
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
        # Shards stride across the given node order: counts differ by <= 1.
        self._owners: list = [node_ids[shard % len(node_ids)] for shard in range(num_shards)]
        # key -> shard is a pure function of the key (ownership flips
        # never invalidate it), so it is memoised on a key's first lookup.
        self._shard_cache: Dict[Hashable, int] = {}

    def hash_shard(self, key: Hashable) -> int:
        """``shard_of`` computed afresh, leaving the memo alone."""
        return _stable_hash(f"key:{key!r}") % self.num_shards

    def hash_shards(self, keys: Iterable[Hashable]) -> List[int]:
        """``hash_shard`` of every key, in order."""
        return [digest % self.num_shards for digest in _key_hashes(keys)]

    def shard_of(self, key: Hashable) -> int:
        shard = self._shard_cache.get(key)
        if shard is None:
            shard = self._shard_cache[key] = self.hash_shard(key)
        return shard

    def owner_of(self, shard: int) -> int:
        return self._owners[shard]

    def place(self, key: Hashable) -> int:
        return self._owners[self.hash_shard(key)]

    def place_many(self, keys: Iterable[Hashable]) -> List[int]:
        return list(map(self._owners.__getitem__, self.hash_shards(keys)))

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

        This is the flip of a failover promotion: ``owner`` already holds
        the shard's replicated chains and the caller holds the fence, so
        the flip is a single table write.  Assigning a shard to its
        current owner is a no-op (no epoch bump) so retried flips stay
        idempotent.
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

"""Vector clocks (Mattern-style logical time) for PSI concurrency control."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class VectorClock:
    """A vector of per-site logical timestamps, one entry per site.

    Entry ``j`` of a node's clock is "the last transaction from node ``N_j``
    that was committed at this site" (paper Section 4.1).  Transaction and
    version clocks are snapshots of node clocks, so they share this type.

    The sites are fixed (paper Section 2.1), so every clock in a cluster
    is exactly ``num_nodes`` wide from birth and the algebra below pairs
    entries up with no width checks.

    Clock algebra runs on every message a node serves, so the methods below
    are written for the CPython fast path: plain loops with early exits, no
    intermediate list allocations, and direct ``_entries`` access instead
    of the container protocol.  Hot callers may read :attr:`entries` to
    bind the underlying list locally; they must never mutate it.
    """

    __slots__ = ("_entries", "_tuple")

    def __init__(self, entries: Iterable[int]) -> None:
        self._entries: List[int] = list(entries)
        # Cached to_tuple() result; every mutator resets it to None.  Wire
        # envelopes serialize the same committed version clock once per
        # reader, so the cache collapses repeated tuple() materializations
        # of clocks that are stamped once and never change again.
        self._tuple: Optional[Tuple[int, ...]] = None

    @classmethod
    def zeros(cls, size: int) -> "VectorClock":
        if size <= 0:
            raise ValueError("vector clock size must be positive")
        vc = cls.__new__(cls)
        vc._entries = [0] * size
        vc._tuple = None
        return vc

    @classmethod
    def zero(cls, size: int) -> "VectorClock":
        """The interned all-zero clock of ``size`` entries.

        Initial-data loads stamp every seeded version with the zero clock;
        interning one :meth:`frozen` instance per size turns millions of
        list allocations into dictionary hits.
        """
        clock = _ZERO_CACHE.get(size)
        if clock is None:
            if size <= 0:
                raise ValueError("vector clock size must be positive")
            clock = _ZERO_CACHE[size] = cls.frozen((0,) * size)
        return clock

    @staticmethod
    def frozen(entries: Sequence[int]) -> "VectorClock":
        """An immutable clock over ``tuple(entries)`` (a tuple is not
        copied): the one clock every version a commit installs at a site
        shares.  :meth:`copy` it for a mutable clock."""
        clock = _ImmutableVectorClock.__new__(_ImmutableVectorClock)
        clock._entries = clock._tuple = tuple(entries)
        return clock

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> int:
        return self._entries[index]

    def __setitem__(self, index: int, value: int) -> None:
        self._entries[index] = value
        self._tuple = None

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VectorClock):
            return tuple(self._entries) == tuple(other._entries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._entries))

    def __repr__(self) -> str:
        return f"VC<{','.join(str(e) for e in self._entries)}>"

    @property
    def entries(self) -> Sequence[int]:
        """The underlying entries (a list, or a frozen clock's tuple), for
        read-only hot-path iteration."""
        return self._entries

    # ------------------------------------------------------------------
    # Clock algebra
    # ------------------------------------------------------------------
    def copy(self) -> "VectorClock":
        vc = VectorClock.__new__(VectorClock)
        vc._entries = list(self._entries)
        vc._tuple = self._tuple
        return vc

    def merge(self, other: "VectorClock") -> None:
        """Entry-wise maximum, in place (Alg. 2 line 9).

        Allocation-free: the loop is a fused dominance check -- entries we
        already dominate are skipped without a write, and merging a clock
        we fully dominate (the common case once a snapshot has caught up)
        touches nothing.
        """
        mine = self._entries
        theirs = other._entries
        if theirs is mine:
            return
        self._tuple = None
        index = 0
        for value in theirs:
            if value > mine[index]:
                mine[index] = value
            index += 1

    def merge_seq(self, values: Sequence[int]) -> None:
        """:meth:`merge` against a raw entry sequence (no wrapper clock).

        Wire messages carry clocks as plain tuples; merging them directly
        saves one :class:`VectorClock` allocation per message.
        """
        mine = self._entries
        self._tuple = None
        index = 0
        for value in values:
            if value > mine[index]:
                mine[index] = value
            index += 1

    def merged(self, other: "VectorClock") -> "VectorClock":
        """Entry-wise maximum, as a new clock."""
        result = self.copy()
        result.merge(other)
        return result

    def merged_tuple(
        self, other: "VectorClock", keep: Sequence[bool] = ()
    ) -> Tuple[int, ...]:
        """``self.merged(other).to_tuple()`` without the throwaway clock.

        The FW-KV fresh-contact freshness bound materializes exactly this
        -- a merged snapshot that goes straight onto the wire -- so fusing
        the merge and the tuple() skips one list copy and one
        :class:`VectorClock` allocation per fresh read.  Positions flagged
        in ``keep`` take ``self``'s entry alone.
        """
        mine = self._entries
        theirs = other._entries
        if True in keep:
            result = list(mine)
            index = 0
            for value, kept in zip(theirs, keep):
                if value > result[index] and not kept:
                    result[index] = value
                index += 1
            return tuple(result)
        if theirs is mine:
            return self.to_tuple()
        result = list(mine)
        index = 0
        for value in theirs:
            if value > result[index]:
                result[index] = value
            index += 1
        return tuple(result)

    def leq(self, other: "VectorClock") -> bool:
        """True when every entry is <= the corresponding entry of ``other``."""
        for a, b in zip(self._entries, other._entries):
            if a > b:
                return False
        return True

    def dominates(self, other: "VectorClock") -> bool:
        """True when every entry is >= the corresponding entry of ``other``."""
        return other.leq(self)

    def leq_on(self, other: "VectorClock", positions: Sequence[bool]) -> bool:
        """``leq`` restricted to positions where ``positions`` is true.

        This is the FW-KV visibility test (Alg. 3 line 4): a version clock
        must not exceed the transaction clock at any *already-read* site.
        No-copy: iterates the raw entries with an early exit on the first
        violated position.
        """
        for a, b, active in zip(self._entries, other._entries, positions):
            if active and a > b:
                return False
        return True

    def to_tuple(self) -> Tuple[int, ...]:
        cached = self._tuple
        if cached is None:
            cached = self._tuple = tuple(self._entries)
        return cached


class _ImmutableVectorClock(VectorClock):
    """A clock over a tuple that refuses in-place mutation (see
    :meth:`VectorClock.frozen`)."""

    __slots__ = ()

    def _refuse(self, *_args) -> None:
        raise TypeError(
            "a frozen vector clock is immutable; copy() it for a private "
            "instance"
        )

    __setitem__ = merge = merge_seq = _refuse


_ZERO_CACHE: Dict[int, VectorClock] = {}


def covers(entries: Sequence[int], snapshot: Sequence[int]) -> bool:
    """Does a clock with ``entries`` dominate ``snapshot``?"""
    for have, target in zip(entries, snapshot):
        if have < target:
            return False
    return True

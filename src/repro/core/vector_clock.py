"""Vector clocks (Mattern-style logical time) for PSI concurrency control."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class VectorClock:
    """A dynamically widenable vector of per-site logical timestamps.

    Entry ``j`` of a node's clock is "the last transaction from node ``N_j``
    that was committed at this site" (paper Section 4.1).  Transaction and
    version clocks are snapshots of node clocks, so they share this type.

    Widths may differ while a membership change is in flight: a clock
    stamped before a join is one entry short of a clock stamped after it.
    All algebra therefore treats a missing entry as zero -- merging a wider
    clock widens this one in place, and comparisons score absent positions
    as 0 on either side -- so old-width clocks in messages still being
    delivered remain valid forever.  A clock only ever widens: a
    decommissioned site keeps its entry (see ``docs/membership.md``), so
    an entry, once present, changes only by moving up.

    Clock algebra runs on every message a node serves, so the methods below
    are written for the CPython fast path: plain index loops with early
    exits, no intermediate list allocations, and direct ``_entries`` access
    instead of the container protocol.  The equal-width case -- all traffic
    outside a reconfiguration window -- never pays for the width checks
    beyond one ``len`` comparison.  Hot callers may read :attr:`entries` to
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
        interning one immutable instance per size turns millions of list
        allocations into dictionary hits.  The returned clock rejects
        mutation -- callers that need a private zero clock must use
        :meth:`zeros` (or :meth:`copy` the interned one).
        """
        clock = _ZERO_CACHE.get(size)
        if clock is None:
            if size <= 0:
                raise ValueError("vector clock size must be positive")
            clock = _ImmutableVectorClock.__new__(_ImmutableVectorClock)
            clock._entries = [0] * size
            clock._tuple = None
            _ZERO_CACHE[size] = clock
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
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._entries))

    def __repr__(self) -> str:
        return f"VC<{','.join(str(e) for e in self._entries)}>"

    @property
    def entries(self) -> Sequence[int]:
        """The underlying entry list, for read-only hot-path iteration."""
        return self._entries

    # ------------------------------------------------------------------
    # Clock algebra
    # ------------------------------------------------------------------
    def copy(self) -> "VectorClock":
        vc = VectorClock.__new__(VectorClock)
        vc._entries = self._entries.copy()
        vc._tuple = self._tuple
        return vc

    def merge(self, other: "VectorClock") -> None:
        """Entry-wise maximum, in place (Alg. 2 line 9).

        Allocation-free in the equal-width case: the loop is a fused
        dominance check -- entries we already dominate are skipped without
        a write, and merging a clock we fully dominate (the common case
        once a snapshot has caught up) touches nothing.  A wider ``other``
        widens this clock first (unknown sites start at zero); a narrower
        one leaves the extra local entries untouched.
        """
        mine = self._entries
        theirs = other._entries
        if theirs is mine:
            return
        self._tuple = None
        if len(theirs) > len(mine):
            mine.extend([0] * (len(theirs) - len(mine)))
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
        if len(values) > len(mine):
            mine.extend([0] * (len(values) - len(mine)))
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
            result = list(mine) + [0] * (len(theirs) - len(mine))
            for index, value in enumerate(theirs):
                if value > result[index] and not (index < len(keep) and keep[index]):
                    result[index] = value
            return tuple(result)
        if theirs is mine:
            return self.to_tuple()
        if len(mine) < len(theirs):
            mine, theirs = theirs, mine
        result = list(mine)
        index = 0
        for value in theirs:
            if value > result[index]:
                result[index] = value
            index += 1
        return tuple(result)

    def leq(self, other: "VectorClock") -> bool:
        """True when every entry is <= the corresponding entry of ``other``.

        Positions absent from the shorter clock count as zero, so a clock
        stamped before a join is <= any clock that has seen the new site.
        """
        mine = self._entries
        theirs = other._entries
        for a, b in zip(mine, theirs):
            if a > b:
                return False
        if len(mine) > len(theirs):
            for a in mine[len(theirs):]:
                if a > 0:
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
        violated position.  Positions beyond the shorter clock score its
        missing entries as zero.
        """
        mine = self._entries
        theirs = other._entries
        for a, b, active in zip(mine, theirs, positions):
            if active and a > b:
                return False
        n_theirs = len(theirs)
        if len(mine) > n_theirs:
            limit = min(len(mine), len(positions))
            for index in range(n_theirs, limit):
                if positions[index] and mine[index] > 0:
                    return False
        return True

    def widen(self, size: int) -> None:
        """Grow to at least ``size`` entries in place (new sites at zero)."""
        mine = self._entries
        if size > len(mine):
            mine.extend([0] * (size - len(mine)))
            self._tuple = None

    def to_tuple(self) -> Tuple[int, ...]:
        cached = self._tuple
        if cached is None:
            cached = self._tuple = tuple(self._entries)
        return cached


class _ImmutableVectorClock(VectorClock):
    """An interned clock that refuses in-place mutation (see ``zero``)."""

    __slots__ = ()

    def __setitem__(self, index: int, value: int) -> None:
        raise TypeError(
            "interned zero clock is immutable; use VectorClock.zeros() or "
            "copy() for a private instance"
        )

    def merge(self, other: "VectorClock") -> None:
        raise TypeError(
            "interned zero clock is immutable; use VectorClock.zeros() or "
            "copy() for a private instance"
        )

    def merge_seq(self, values: Sequence[int]) -> None:
        raise TypeError(
            "interned zero clock is immutable; use VectorClock.zeros() or "
            "copy() for a private instance"
        )

    def widen(self, size: int) -> None:
        raise TypeError(
            "interned zero clock is immutable; use VectorClock.zeros() or "
            "copy() for a private instance"
        )


_ZERO_CACHE: Dict[int, VectorClock] = {}


def covers(entries: Sequence[int], snapshot: Sequence[int]) -> bool:
    """Does a clock with ``entries`` dominate ``snapshot``?

    An origin ``entries`` lacks counts as zero.
    """
    for origin, target in enumerate(snapshot):
        if target > 0 and (origin >= len(entries) or entries[origin] < target):
            return False
    return True

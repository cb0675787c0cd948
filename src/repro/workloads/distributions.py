"""Key-selection distributions (uniform and zipf)."""

from __future__ import annotations

import bisect
import random
from typing import List


class UniformChooser:
    """Uniform choice over ``0..num_items-1``.

    The paper's evaluation uses a uniform distribution "to highlight the
    performance impact of FW-KV design" (local accesses would be fresh
    anyway); the zipf chooser below exists for the skew extension.
    """

    def __init__(self, num_items: int) -> None:
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        self.num_items = num_items

    def next(self, rng: random.Random) -> int:
        return rng.randrange(self.num_items)

    def sample(self, rng: random.Random, count: int) -> List[int]:
        """``count`` distinct indices."""
        if count > self.num_items:
            raise ValueError("cannot sample more distinct items than exist")
        return rng.sample(range(self.num_items), count)


class ZipfKeyGenerator:
    """Rank-ordered zipf(s) chooser, exact for any exponent ``s > 0``.

    Covers both YCSB's ``theta < 1`` regime and the heavy-tailed
    ``s >= 1`` one.  Ranks stay *unscrambled* -- item 0 is the hottest --
    so a test can reason about exactly how much probability mass the top
    keys pin on one node; placement hashes the key text, so the hot keys
    spread over the nodes without a scramble.  Sampling is exact
    inverse-CDF over the finite item set: one uniform draw, one bisect.
    """

    def __init__(self, num_items: int, s: float = 1.1) -> None:
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        if s <= 0:
            raise ValueError("s must be positive")
        self.num_items = num_items
        self.s = s
        total = 0.0
        cdf: List[float] = []
        for rank in range(1, num_items + 1):
            total += 1.0 / rank**s
            cdf.append(total)
        self._total = total
        self._cdf = cdf

    def probability(self, rank: int) -> float:
        """The exact probability of drawing item ``rank`` (0-based)."""
        if not 0 <= rank < self.num_items:
            raise ValueError(f"rank {rank} out of range")
        return (1.0 / (rank + 1) ** self.s) / self._total

    def next(self, rng: random.Random) -> int:
        index = bisect.bisect_right(self._cdf, rng.random() * self._total)
        return min(index, self.num_items - 1)

    def sample(self, rng: random.Random, count: int) -> List[int]:
        """``count`` distinct indices (rejection sampling)."""
        if count > self.num_items:
            raise ValueError("cannot sample more distinct items than exist")
        chosen: List[int] = []
        seen = set()
        while len(chosen) < count:
            item = self.next(rng)
            if item not in seen:
                seen.add(item)
                chosen.append(item)
        return chosen

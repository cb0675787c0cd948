"""Seed derivation for reproducible random streams.

Every stochastic component (workload generators, per-client request
streams, network jitter) gets its own :class:`random.Random` derived from
the experiment seed and a stable stream label.  Streams therefore stay
independent of each other and of iteration order, so adding a new consumer
of randomness does not perturb existing runs.  Seeds are hashed with
CPython's built-in SHA-256, ``hashlib.sha256``'s digest without OpenSSL.
"""

from __future__ import annotations

import random
from typing import Hashable

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 / 3.11
    except ImportError:  # pragma: no cover - other interpreters
        from hashlib import sha256


def derive_seed(root_seed: int, *stream: Hashable) -> int:
    """Derive a stable 64-bit seed from a root seed and stream labels."""
    digest = sha256()
    digest.update(str(root_seed).encode("utf-8"))
    for part in stream:
        digest.update(b"/")
        digest.update(repr(part).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def make_rng(root_seed: int, *stream: Hashable) -> random.Random:
    """A :class:`random.Random` seeded from ``derive_seed``."""
    return random.Random(derive_seed(root_seed, *stream))

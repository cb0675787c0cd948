"""Unit tests for deterministic seed derivation."""

import hashlib

import pytest

from repro.sim import derive_seed, make_rng


def test_derive_seed_is_deterministic():
    assert derive_seed(1, "clients", 3) == derive_seed(1, "clients", 3)


def test_derive_seed_varies_with_stream():
    seeds = {
        derive_seed(1, "clients", 0),
        derive_seed(1, "clients", 1),
        derive_seed(1, "network"),
        derive_seed(2, "clients", 0),
    }
    assert len(seeds) == 4


def test_make_rng_streams_are_independent():
    a = make_rng(7, "a")
    b = make_rng(7, "b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_make_rng_reproducible():
    first = [make_rng(7, "x").random() for _ in range(3)]
    second = [make_rng(7, "x").random() for _ in range(3)]
    assert first == second


@pytest.mark.parametrize("root", [0, 1, 7, -3, 2**63, 10**30])
@pytest.mark.parametrize("stream", [
    (), ("client", 0, 1), ("socket", "reconnect"), (None, 2.5, (1, "a")), ("é",),
])
def test_derive_seed_is_hashlibs_sha256_derivation(root, stream):
    """The built-in SHA-256 (``_sha2`` on 3.12+, ``_sha256`` before) gives
    the OpenSSL digest, so every derived seed is what it always was."""
    digest = hashlib.sha256(str(root).encode("utf-8"))
    for part in stream:
        digest.update(b"/" + repr(part).encode("utf-8"))
    assert derive_seed(root, *stream) == int.from_bytes(digest.digest()[:8], "big")

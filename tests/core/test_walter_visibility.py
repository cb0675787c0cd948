"""Unit tests for Walter's begin-time snapshot version selection."""

import pytest

from repro.core import VectorClock
from repro.core.walter import select_walter_version
from repro.storage.chain import VersionChain


def version(chain, value, origin, seq):
    vc = VectorClock.zeros(3)
    vc[origin] = seq
    return chain.install(value, vc, origin, seq)


def test_selects_freshest_within_snapshot():
    chain = VersionChain()
    version(chain, "v0", 0, 0)
    version(chain, "v1", 1, 3)
    version(chain, "v2", 1, 7)
    chosen, _ = select_walter_version(chain, [0, 5, 0])
    assert chosen.value == "v1"


def test_snapshot_includes_exact_boundary():
    chain = VersionChain()
    version(chain, "v0", 0, 0)
    version(chain, "v1", 1, 5)
    chosen, _ = select_walter_version(chain, [0, 5, 0])
    assert chosen.value == "v1"


def test_returns_arbitrarily_old_when_clock_lags():
    """The paper's motivating flaw: an outdated node clock hides every
    newer version, no matter how stale the result."""
    chain = VersionChain()
    version(chain, "v0", 0, 0)
    for seq in range(1, 6):
        version(chain, f"v{seq}", 1, seq)
    chosen, _ = select_walter_version(chain, [0, 0, 0])
    assert chosen.value == "v0"


def test_initial_version_always_visible():
    chain = VersionChain()
    version(chain, "v0", 0, 0)
    chosen, _ = select_walter_version(chain, [0, 0, 0])
    assert chosen.value == "v0"


def test_raises_without_any_visible_version():
    chain = VersionChain()
    version(chain, "v9", 1, 9)
    with pytest.raises(RuntimeError):
        select_walter_version(chain, [0, 0, 0])


def test_versions_from_different_origins_filtered_independently():
    chain = VersionChain()
    version(chain, "v0", 0, 0)
    version(chain, "a", 1, 1)
    version(chain, "b", 2, 1)
    # Snapshot knows origin 2 but not origin 1.
    chosen, _ = select_walter_version(chain, [0, 0, 1])
    assert chosen.value == "b"

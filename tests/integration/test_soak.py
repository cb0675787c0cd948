"""Soak test: everything on at once, for longer, checked afterwards.

GC reclaiming versions, Removes batching and tombstoning, delayed
propagation stalling reads and aborting Walter-style writers, retries,
and the one oracle over the recorded history.
"""

import pytest

from repro import NetworkConfig

from tests.harness.oracle import assert_increments_add_up, assert_psi
from tests.integration.scenario_tools import (
    modulo_cluster, shrink_gc, spawn_increment_clients,
)


@pytest.fixture(autouse=True)
def soak_gc(monkeypatch):
    shrink_gc(monkeypatch, trigger=10, keep=5, min_age=3e-3)


def run_soak(protocol, seed=11):
    keys = [f"k{i}" for i in range(12)]
    cluster = modulo_cluster(
        protocol, keys, NetworkConfig().with_propagate_delay(300e-6), seed=seed,
    )
    spawn_increment_clients(cluster, keys, "soak", txns=60)
    cluster.run()
    return cluster


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_soak_consistency_with_gc_and_delay(protocol):
    cluster = run_soak(protocol)
    history = assert_psi(cluster, quiescent=True)
    assert len(history) >= 360

    # GC actually fired (12 hot keys, hundreds of overwrites).
    assert cluster.metrics.counters["versions_reclaimed"] > 0

    # Quiescence hygiene.
    assert not cluster.any_locks_held()
    assert cluster.total_vas_entries() == 0
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)


def test_soak_increment_conservation():
    """Total value across keys equals 2x committed update transactions:
    a lost update whose versions GC reclaimed hides from the graph, not
    from the sum."""
    cluster = run_soak("fwkv", seed=12)
    assert_increments_add_up(cluster, cluster.finalized_history())

"""Randomized concurrency stress with offline consistency checking.

Many closed-loop clients run random read-only and read-modify-write
transactions against a small key space (to force conflicts).  Afterwards
the recorded history must pass the one oracle (``check_psi``, and
``check_fresh`` under FW-KV) with no acknowledged write lost.  Long forks
are permitted by PSI for concurrent transactions (the controlled Figure 1
scenario covers the observable case).
"""

import pytest

from repro import NetworkConfig

from tests.harness.oracle import assert_increments_add_up, assert_psi
from tests.integration.scenario_tools import modulo_cluster, spawn_increment_clients

NUM_NODES = 4
NUM_KEYS = 24
CLIENTS_PER_NODE = 2
TXNS_PER_CLIENT = 25


def build_cluster(protocol, seed, propagate_delay=0.0):
    network = NetworkConfig(jitter=2e-6)
    if propagate_delay:
        network = network.with_propagate_delay(propagate_delay)
    keys = [f"k{i}" for i in range(NUM_KEYS)]
    return modulo_cluster(protocol, keys, network, NUM_NODES, seed=seed)


def run_stress(protocol, seed, propagate_delay=0.0):
    cluster = build_cluster(protocol, seed, propagate_delay)
    spawn_increment_clients(
        cluster, [f"k{i}" for i in range(NUM_KEYS)], "client",
        CLIENTS_PER_NODE, TXNS_PER_CLIENT, read_only=0.5,
        backoff=(50e-6, 200e-6), pause=50e-6,
    )
    cluster.run()
    return cluster


@pytest.mark.parametrize("protocol", ("fwkv", "walter", "2pc"))
@pytest.mark.parametrize("seed", (1, 2))
def test_history_passes_the_oracle(protocol, seed):
    history = assert_psi(run_stress(protocol, seed), quiescent=True)
    assert len(history) >= NUM_NODES * CLIENTS_PER_NODE * TXNS_PER_CLIENT


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_consistency_holds_under_delayed_propagation(protocol):
    assert_psi(run_stress(protocol, seed=3, propagate_delay=1e-3), quiescent=True)


@pytest.mark.parametrize("protocol", ("fwkv", "walter", "2pc"))
def test_quiescence_invariants(protocol):
    cluster = run_stress(protocol, seed=4)
    assert not cluster.any_locks_held()
    assert cluster.total_vas_entries() == 0
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)


def test_update_increments_sum_to_writes():
    """The total increment count must equal committed update transactions
    times two keys each (lost-update freedom under PSI write-conflicts)."""
    cluster = run_stress("fwkv", seed=5)
    assert_increments_add_up(cluster, cluster.finalized_history())


def test_deterministic_replay():
    """Identical seeds produce identical histories."""
    def replay():
        return [
            (r.txn_id, r.node_id, tuple((o.kind, o.key, o.vid) for o in r.ops))
            for r in run_stress("fwkv", seed=7).finalized_history()
        ]

    assert replay() == replay()

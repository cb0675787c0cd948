"""Soak test: everything on at once, for longer, checked afterwards.

GC reclaiming versions, Removes batching and tombstoning, delayed
propagation stalling reads and aborting Walter-style writers, retries,
and the full PSI checker over the recorded history.
"""

import pytest

from repro import Cluster, ClusterConfig, NetworkConfig
from repro.cluster import ModuloDirectory
from repro.metrics import check_no_read_skew, check_site_order
from repro.sim.rng import make_rng


def run_soak(protocol, seed=11):
    config = ClusterConfig(
        num_nodes=3,
        seed=seed,
        network=NetworkConfig().with_propagate_delay(300e-6),
        gc_trigger_length=10,
        gc_keep_versions=5,
        gc_min_age=3e-3,
    )
    cluster = Cluster(
        protocol, config, directory=ModuloDirectory(3), record_history=True
    )
    keys = [f"k{i}" for i in range(12)]
    for key in keys:
        cluster.load(key, 0)

    def client(node_id, client_id):
        rng = make_rng(seed, "soak", node_id, client_id)
        node = cluster.node(node_id)
        for _ in range(60):
            chosen = rng.sample(keys, 2)
            read_only = rng.random() < 0.4
            while True:
                txn = node.begin(is_read_only=read_only)
                values = []
                for key in chosen:
                    value = yield from node.read(txn, key)
                    values.append(value)
                if not read_only:
                    for key, value in zip(chosen, values):
                        node.write(txn, key, value + 1)
                ok = yield from node.commit(txn)
                if ok:
                    break
                yield cluster.sim.timeout(rng.uniform(50e-6, 150e-6))
            yield cluster.sim.timeout(rng.uniform(0, 100e-6))

    for node_id in range(3):
        for client_id in range(2):
            cluster.spawn(client(node_id, client_id))
    cluster.run()
    return cluster


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_soak_consistency_with_gc_and_delay(protocol):
    cluster = run_soak(protocol)
    history = cluster.finalized_history()
    assert len(history) >= 360

    # GC actually fired (12 hot keys, hundreds of overwrites).
    assert cluster.metrics.counters["versions_reclaimed"] > 0

    skew = check_no_read_skew(history)
    assert skew.ok, skew.violations[:3]
    order = check_site_order(history, cluster.version_catalog())
    assert order.ok, order.violations[:3]

    # Quiescence hygiene.
    assert not cluster.any_locks_held()
    assert cluster.total_vas_entries() == 0
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)


def test_soak_increment_conservation():
    """Total value across keys equals 2x committed update transactions."""
    cluster = run_soak("fwkv", seed=12)
    committed_updates = len(cluster.finalized_history().committed_updates())
    total = 0
    for node in cluster.nodes:
        for key in node.store.keys():
            total += node.store.chain(key).latest.value
    assert total == 2 * committed_updates

"""Nemesis stress: random per-link congestion, all safety checks hold.

Each (src, dst) link gets an independent random extra delay for Propagate
traffic (0-2 ms), producing the wildly asymmetric propagation orders that
Figure 1-style anomalies feed on -- plus GC and the paper-literal Remove
scope for maximum adversity.  Histories must still pass the one oracle.
"""

import pytest

from repro import Cluster, ClusterConfig, NetworkConfig
from repro.cluster import ShardMap
from repro.net.message import MessageType
from repro.sim.rng import make_rng

from tests.harness.oracle import (
    assert_increments_add_up,
    assert_psi,
    increment_client,
)
from tests.integration.scenario_tools import shrink_gc

NUM_NODES = 4
NUM_KEYS = 16


def build(protocol, seed):
    config = ClusterConfig(
        num_nodes=NUM_NODES,
        seed=seed,
        network=NetworkConfig(jitter=5e-6),
        remove_broadcast=False,  # paper-literal cleanup
    )
    cluster = Cluster(
        protocol, config, directory=ShardMap(range(NUM_NODES), NUM_NODES),
        record_history=True,
    )
    rng = make_rng(seed, "nemesis-links")
    link_delay = {
        (src, dst): rng.uniform(0, 2e-3)
        for src in range(NUM_NODES)
        for dst in range(NUM_NODES)
        if src != dst
    }

    def delay_policy(envelope):
        if envelope.msg_type == MessageType.PROPAGATE:
            return link_delay[(envelope.src, envelope.dst)]
        return 0.0

    cluster.network.delay_policy = delay_policy
    for i in range(NUM_KEYS):
        cluster.load(f"k{i}", 0)
    return cluster


def client(cluster, node_id, client_id, seed, txns=40):
    rng = make_rng(seed, "nemesis-client", node_id, client_id)
    keys = [f"k{i}" for i in range(NUM_KEYS)]
    return increment_client(
        cluster, node_id, rng, keys, txns, read_only=0.5,
        backoff=(50e-6, 250e-6), pause=100e-6,
    )


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
@pytest.mark.parametrize("seed", (21, 22))
def test_nemesis_safety(protocol, seed, monkeypatch):
    shrink_gc(monkeypatch, trigger=12, keep=6, min_age=4e-3)
    cluster = build(protocol, seed)
    for node_id in range(NUM_NODES):
        for client_id in range(2):
            cluster.spawn(client(cluster, node_id, client_id, seed))
    cluster.run()

    # No lost update (a one-rw cycle) nor lost write, despite the chaos;
    # GC may hide a cycle, so increments are conserved too.
    history = assert_psi(cluster, quiescent=True)
    assert len(history) >= NUM_NODES * 2 * 40
    assert_increments_add_up(cluster, history)
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)

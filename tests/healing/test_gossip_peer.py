"""Gossip peer selection and the truncation floor, over peer evidence.

``NodeHealing.pick_gossip_peer`` is one uniform draw from the node's
healing RNG stream: same seed => same pick sequence, whatever the
digest state says about how far each peer lags.  The one truncation
rule (``CheckpointManager.stable_floor``) is the frontier *every* peer
has applied, with no lag bound: a peer never heard from, or cut off at
the start, holds the floor however far the rest have run.
"""

import pytest

from repro import Cluster, ClusterConfig

pytestmark = pytest.mark.healing


def make_healing(seed, *, own=0, frontiers=None, num_nodes=4):
    config = ClusterConfig(num_nodes=num_nodes, seed=seed)
    healing = Cluster("fwkv", config).nodes[0].healing
    healing.owner.site_vc[0] = own
    if frontiers:
        healing.peer_frontiers.update(frontiers)
    return healing


def picks(healing, n=100):
    return [healing.pick_gossip_peer() for _ in range(n)]


def test_selection_is_seeded_uniform_and_ignores_lag():
    frontiers = {1: 10, 2: 2, 3: 7}
    chosen = picks(make_healing(17, own=10, frontiers=frontiers), n=200)
    assert chosen == picks(make_healing(17, own=10, frontiers=frontiers), n=200)
    assert chosen[:100] != picks(make_healing(18, own=10, frontiers=frontiers))
    # The draw reads no digest state: a converged board picks the same.
    assert chosen == picks(make_healing(17), n=200)
    assert max(chosen.count(p) for p in (1, 2, 3)) / len(chosen) < 0.5


@pytest.mark.parametrize("frontiers, floor", [
    ({}, None),
    ({1: 40, 2: 40}, None),
    ({1: 31, 2: 17, 3: 40}, 17),
    ({1: 0, 2: 40, 3: 40}, 0),
], ids=["nobody-heard", "one-unheard", "slowest-peer", "cut-off-at-start"])
def test_the_floor_is_the_slowest_peers_frontier(frontiers, floor):
    healing = make_healing(17, own=40, frontiers=frontiers)
    assert healing.checkpoints.stable_floor() == floor


def test_a_node_without_peers_is_its_own_floor():
    healing = make_healing(17, own=40, num_nodes=1)
    assert healing.checkpoints.stable_floor() == 40

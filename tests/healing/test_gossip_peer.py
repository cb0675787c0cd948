"""Gossip peer selection (seeded, deterministic).

``NodeHealing.pick_gossip_peer`` is one uniform draw from the node's
healing RNG stream: same seed => same pick sequence, whatever the
digest state says about how far each peer lags.
"""

import pytest

from repro import Cluster, ClusterConfig

pytestmark = pytest.mark.healing


def make_healing(seed, *, own=0, frontiers=None):
    config = ClusterConfig(num_nodes=4, seed=seed)
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

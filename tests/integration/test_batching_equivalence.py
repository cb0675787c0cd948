"""Adaptively batched vs unbatched Propagate/Remove must not change what
commits.

Two levels of assurance:

* A *sequential* seeded scenario -- every transaction runs to cluster
  quiescence before the next starts -- must be bit-identical between
  batching on and off: same commit log, same per-node siteVC history at
  every quiescence point.  Sequential execution removes legitimate timing
  divergence (batching delays Propagate delivery, which under concurrency
  may reorder conflict races), leaving only the semantics of the messages
  themselves, which coalescing must preserve exactly.
* A *concurrent* seeded workload whose windows are forced open must
  still pass the oracle and quiesce cleanly -- batching may shift
  which transactions win races, never break consistency.

Windows normally open only under sustained back-to-back sends; the
scenarios here pin them open (``_open_windows``) so every Propagate and
Remove really rides a batch.
"""

import pytest

from repro import NetworkConfig
from repro.config import BatchingConfig
from repro.net.message import MessageType
from repro.sim.rng import make_rng

from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import (
    modulo_cluster, run_sequential, spawn_increment_clients,
)

NODES = 3
KEYS = [f"k{i}" for i in range(9)]


def _make_cluster(batching, protocol):
    network = NetworkConfig(jitter=0.0).with_propagate_delay(200e-6)
    return modulo_cluster(protocol, KEYS, network, seed=21, batching=batching)


def _open_windows(cluster, propagate, remove=None):
    """Pin every node's per-destination windows open at the given widths."""
    for node in cluster.nodes:
        for site in range(NODES):
            node._adaptive_windows[site] = propagate
            if remove is not None and hasattr(node, "_remove_windows"):
                node._remove_windows[site] = remove


def _run_sequential(batching, protocol):
    """``run_sequential``; with batching on, every window is re-pinned
    open each round (a lone-commit flush decays a window)."""
    cluster = _make_cluster(batching, protocol)

    def pin():
        if batching.adaptive:
            _open_windows(cluster, 300e-6, 1e-3)

    return run_sequential(cluster, KEYS, make_rng(21, "batch-equiv"), pin)


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_sequential_runs_identical_batched_and_unbatched(protocol):
    baseline = _run_sequential(BatchingConfig(), protocol)
    batched = _run_sequential(BatchingConfig(adaptive=True), protocol)
    assert batched[0] == baseline[0], "commit logs diverged"
    assert batched[1] == baseline[1], "per-node siteVC histories diverged"


def test_batched_propagate_coalesces_a_commit_window():
    """Several quick commits at one origin reach an uninvolved node as one
    Propagate carrying the whole window, and its snapshot still advances."""
    cluster = _make_cluster(BatchingConfig(adaptive=True), "fwkv")
    _open_windows(cluster, 2e-3)

    def burst():
        node = cluster.node(0)
        for i in range(4):
            while True:
                txn = node.begin(is_read_only=False)
                node.write(txn, "k0", i)  # k0 -> node 0, k2 -> node 2
                node.write(txn, "k2", i)
                ok = yield from node.commit(txn)
                if ok:
                    break
                # Validation can race this node's own async Decide apply;
                # let it land and retry.
                yield cluster.sim.timeout(100e-6)
            yield cluster.sim.timeout(100e-6)

    cluster.spawn(burst())
    cluster.run()
    # Node 1 was uninvolved in every commit; the window coalesced all four
    # sequence numbers yet its snapshot caught up completely.
    assert cluster.network.stats.messages_by_type[MessageType.PROPAGATE] == 1
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)
    assert clocks[1][0] == 4


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_concurrent_batched_run_stays_consistent(protocol):
    cluster = _make_cluster(BatchingConfig(adaptive=True), protocol)
    _open_windows(cluster, 400e-6, 2e-3)
    spawn_increment_clients(cluster, KEYS, "batch-conc")
    cluster.run()

    assert len(assert_psi(cluster, quiescent=True)) >= 240
    assert cluster.total_vas_entries() == 0
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)

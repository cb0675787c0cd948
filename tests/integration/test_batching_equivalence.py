"""One Propagate per commit, whatever ``BatchingConfig`` says.

The paper sends one Propagate per commit to every uninvolved site (Alg. 4
line 27); read-only commits' Removes ride one per-node flush timer.
``BatchingConfig(adaptive=True)`` is still accepted -- the frozen ledger
registry passes it -- but nothing reads it, so:

* A *sequential* seeded scenario -- every transaction runs to cluster
  quiescence before the next starts -- is bit-identical with the knob set
  and unset: same commit log, same per-node siteVC history at every
  quiescence point.
* A *concurrent* seeded workload with the knob set passes the oracle and
  quiesces cleanly.
* A burst of commits reaches an uninvolved site as one Propagate each.
"""

import pytest

from repro import NetworkConfig
from repro.config import BatchingConfig
from repro.core.fwkv.node import REMOVE_FLUSH_INTERVAL
from repro.net.message import MessageType
from repro.sim.rng import make_rng

from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import (
    modulo_cluster, read_only_txn, run_sequential, spawn_increment_clients,
)

NODES = 3
KEYS = [f"k{i}" for i in range(9)]


def _make_cluster(batching, protocol):
    network = NetworkConfig(jitter=0.0).with_propagate_delay(200e-6)
    return modulo_cluster(protocol, KEYS, network, seed=21, batching=batching)


def _run_sequential(batching, protocol):
    cluster = _make_cluster(batching, protocol)
    return run_sequential(cluster, KEYS, make_rng(21, "batch-equiv"))


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_sequential_runs_identical_batched_and_unbatched(protocol):
    baseline = _run_sequential(BatchingConfig(), protocol)
    batched = _run_sequential(BatchingConfig(adaptive=True), protocol)
    assert batched[0] == baseline[0], "commit logs diverged"
    assert batched[1] == baseline[1], "per-node siteVC histories diverged"


def test_one_propagate_per_commit_per_uninvolved_site():
    """Several quick commits at one origin reach an uninvolved node as one
    Propagate each, and its snapshot advances through all of them."""
    cluster = _make_cluster(BatchingConfig(adaptive=True), "fwkv")

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
    # Node 1 was uninvolved in every commit: four commits, four Propagates.
    assert cluster.network.stats.messages_by_type[MessageType.PROPAGATE] == 4
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)
    assert clocks[1][0] == 4


def test_removes_of_one_flush_interval_share_one_message_per_site():
    """Read-only commits that end inside one ``REMOVE_FLUSH_INTERVAL``
    send one Remove per site between them, and it erases every visible
    read they registered."""
    cluster = _make_cluster(BatchingConfig(adaptive=True), "fwkv")
    readers = 3
    for _ in range(readers):
        cluster.spawn(read_only_txn(cluster, 0, ["k0", "k1", "k2"]))
    cluster.run(until=REMOVE_FLUSH_INTERVAL / 2)
    assert cluster.total_vas_entries() > 0
    cluster.run()

    removes = cluster.network.stats.messages_by_type[MessageType.REMOVE]
    assert 0 < removes <= NODES
    assert cluster.total_vas_entries() == 0


@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_concurrent_batched_run_stays_consistent(protocol):
    cluster = _make_cluster(BatchingConfig(adaptive=True), protocol)
    spawn_increment_clients(cluster, KEYS, "batch-conc")
    cluster.run()

    assert len(assert_psi(cluster, quiescent=True)) >= 240
    assert cluster.total_vas_entries() == 0
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)

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

from repro import Cluster, ClusterConfig, NetworkConfig
from repro.cluster import ModuloDirectory
from repro.config import BatchingConfig
from repro.net.message import MessageType
from repro.sim.rng import make_rng

from tests.harness.oracle import assert_psi, increment_client
from tests.integration.scenario_tools import read_only_txn, update_txn

NODES = 3
KEYS = [f"k{i}" for i in range(9)]


def _make_cluster(batching, protocol):
    config = ClusterConfig(
        num_nodes=NODES,
        seed=21,
        batching=batching,
        network=NetworkConfig(jitter=0.0).with_propagate_delay(200e-6),
    )
    cluster = Cluster(
        protocol, config, directory=ModuloDirectory(NODES), record_history=True
    )
    for key in KEYS:
        cluster.load(key, 0)
    return cluster


def _open_windows(cluster, propagate, remove=None):
    """Pin every node's per-destination windows open at the given widths."""
    for node in cluster.nodes:
        for site in range(NODES):
            node._adaptive_windows[site] = propagate
            if remove is not None and hasattr(node, "_remove_windows"):
                node._remove_windows[site] = remove


def _commit_log(cluster):
    """The commit log as comparable tuples (ids, placement, ops, clocks)."""
    return [
        (
            r.txn_id,
            r.node_id,
            r.is_read_only,
            r.seq_no,
            r.commit_vc,
            tuple((op.kind, op.key, op.vid) for op in r.ops),
        )
        for r in cluster.finalized_history()
    ]


def _run_sequential(batching, protocol):
    """Seeded transaction sequence, each run to quiescence before the next.

    Returns ``(commit_log, site_vc_history)`` where the history holds every
    node's siteVC tuple at each quiescence point.
    """
    cluster = _make_cluster(batching, protocol)
    rng = make_rng(21, "batch-equiv")
    site_vc_history = []
    for round_no in range(30):
        if batching.adaptive:
            # Re-pinned each round: a lone-commit flush decays a window.
            _open_windows(cluster, 300e-6, 1e-3)
        node_id = rng.randrange(NODES)
        chosen = rng.sample(KEYS, 2)
        if rng.random() < 0.4:
            cluster.spawn(read_only_txn(cluster, node_id, chosen))
        else:
            cluster.spawn(
                update_txn(
                    cluster,
                    node_id,
                    {key: round_no for key in chosen},
                    reads=chosen,
                )
            )
        cluster.run()
        site_vc_history.append(tuple(cluster.site_clocks()))
    return _commit_log(cluster), site_vc_history


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
    for node_id in range(NODES):
        for client_id in range(2):
            rng = make_rng(cluster.config.seed, "batch-conc", node_id, client_id)
            cluster.spawn(increment_client(
                cluster, node_id, rng, KEYS, 40, read_only=0.4,
                backoff=(50e-6, 150e-6), pause=100e-6,
            ))
    cluster.run()

    assert len(assert_psi(cluster, quiescent=True)) >= 240
    assert cluster.total_vas_entries() == 0
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks)

"""Cross-protocol behavioural guarantees."""

import pytest

from repro import Cluster, ClusterConfig
from tests.integration.scenario_tools import (
    make_cluster,
    read_only_txn,
    retry_update,
    update_txn,
)

ALL_PROTOCOLS = ("fwkv", "walter", "2pc")
PSI_PROTOCOLS = ("fwkv", "walter")


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_concurrent_increments_are_atomic(protocol):
    """N read-modify-write transactions on one key must all take effect."""
    num_nodes = 4
    cluster = make_cluster(protocol, num_nodes, {"counter": 0}, initial={"counter": 0})
    workers = 8

    def incrementer(node_id, stagger):
        yield from retry_update(
            cluster,
            node_id,
            reads=["counter"],
            writes={"counter": lambda obs: obs["counter"] + 1},
            delay=stagger,
        )

    for i in range(workers):
        cluster.spawn(incrementer(i % num_nodes, stagger=i * 3e-6))
    cluster.run()

    final = cluster.run_process(read_only_txn(cluster, 0, ["counter"]))
    assert final["counter"] == workers
    assert not cluster.any_locks_held()


@pytest.mark.parametrize("protocol", PSI_PROTOCOLS)
def test_read_only_transactions_never_abort(protocol):
    cluster = make_cluster(protocol, 3, {"a": 0, "b": 1}, initial={"a": 1, "b": 2})

    def churn():
        yield from retry_update(cluster, 1, reads=["a"], writes={"a": "new"})

    def reader(node_id):
        for _ in range(5):
            observed = yield from read_only_txn(cluster, node_id, ["a", "b"])
            assert set(observed) == {"a", "b"}

    cluster.spawn(churn())
    cluster.spawn(reader(0))
    cluster.spawn(reader(2))
    cluster.run()
    assert cluster.metrics.aborts_by_reason.get("validation", 0) == 0 or protocol


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_write_inside_read_only_txn_rejected(protocol):
    cluster = make_cluster(protocol, 2, {"x": 0})
    node = cluster.node(0)
    txn = node.begin(is_read_only=True)
    with pytest.raises(ValueError):
        node.write(txn, "x", 1)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_read_your_own_writes(protocol):
    cluster = make_cluster(protocol, 2, {"x": 1}, initial={"x": 1})

    def txn():
        node = cluster.node(0)
        t = node.begin(is_read_only=False)
        before = yield from node.read(t, "x")
        node.write(t, "x", before + 41)
        after = yield from node.read(t, "x")
        ok = yield from node.commit(t)
        return before, after, ok

    before, after, ok = cluster.run_process(txn())
    assert (before, after, ok) == (1, 42, True)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_rereads_return_stable_values(protocol):
    """A transaction re-reading a key sees the version it already saw."""
    cluster = make_cluster(protocol, 3, {"x": 1}, initial={"x": "old"})
    gate = cluster.sim.event()
    result = {}

    def reader():
        node = cluster.node(0)
        t = node.begin(is_read_only=True)
        result["first"] = yield from node.read(t, "x")
        gate.succeed()
        yield cluster.sim.timeout(1e-3)  # the overwrite lands meanwhile
        result["second"] = yield from node.read(t, "x")
        yield from node.commit(t)

    def overwriter():
        yield gate
        ok, _ = yield from update_txn(cluster, 2, writes={"x": "new"})
        assert ok

    cluster.spawn(reader())
    cluster.spawn(overwriter())
    cluster.run()
    assert result["first"] == result["second"] == "old"


@pytest.mark.parametrize("protocol", PSI_PROTOCOLS)
def test_aborted_transaction_leaves_no_trace(protocol):
    """A validation abort must not install versions or leak locks."""
    cluster = make_cluster(protocol, 2, {"x": 1}, initial={"x": 0})
    read_done = cluster.sim.event()
    winner_done = cluster.sim.event()
    outcome = {}

    def loser():
        node = cluster.node(0)
        t = node.begin(is_read_only=False)
        _ = yield from node.read(t, "x")
        node.write(t, "x", "loser")
        read_done.succeed()
        yield winner_done  # a competing commit lands first
        yield cluster.sim.timeout(500e-6)
        outcome["loser"] = yield from node.commit(t)

    def winner():
        yield read_done
        ok, _ = yield from update_txn(cluster, 1, writes={"x": "winner"})
        outcome["winner"] = ok
        winner_done.succeed()

    cluster.spawn(loser())
    cluster.spawn(winner())
    cluster.run()
    assert outcome["winner"] is True
    assert outcome["loser"] is False
    chain = cluster.node(1).store.chain("x")
    assert chain.latest.value == "winner"
    assert len(chain) == 2
    assert not cluster.any_locks_held()


def test_2pc_read_only_transactions_can_abort():
    """The baseline's distinguishing cost: even read-only transactions
    validate and may fail when a concurrent write slips between a read
    and the commit point."""
    cluster = make_cluster("2pc", 2, {"x": 0, "y": 1}, initial={"x": 1, "y": 1})
    gate = cluster.sim.event()
    outcome = {}

    def reader():
        node = cluster.node(0)
        t = node.begin(is_read_only=True)
        outcome["x"] = yield from node.read(t, "x")
        gate.succeed()
        yield cluster.sim.timeout(500e-6)  # writer commits in this window
        outcome["y"] = yield from node.read(t, "y")
        outcome["ro_commit"] = yield from node.commit(t)

    def writer():
        yield gate
        ok, _ = yield from update_txn(cluster, 1, writes={"x": 2})
        outcome["writer"] = ok

    cluster.spawn(reader())
    cluster.spawn(writer())
    cluster.run()
    assert outcome["writer"] is True
    assert outcome["ro_commit"] is False, "x changed under the reader"


@pytest.mark.parametrize("protocol", PSI_PROTOCOLS)
def test_site_clocks_converge_after_quiescence(protocol):
    cluster = make_cluster(protocol, 4, {f"k{i}": i % 4 for i in range(8)})

    def worker(node_id):
        for round_no in range(3):
            yield from retry_update(
                cluster, node_id, writes={f"k{(node_id + round_no) % 8}": round_no}
            )

    for node_id in range(4):
        cluster.spawn(worker(node_id))
    cluster.run()
    clocks = cluster.site_clocks()
    assert all(clock == clocks[0] for clock in clocks), (
        "after all Propagates are drained every node knows every commit"
    )


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        Cluster("bogus", ClusterConfig(num_nodes=2))

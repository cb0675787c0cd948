"""Tests for the parallel multi-get API (read-only transactions)."""

import pytest

from repro import Cluster, ClusterConfig, NetworkConfig, RpcConfig
from repro.cluster import ExplicitDirectory
from repro.net.rpc import RpcTimeoutError

from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import make_cluster, update_txn

PLACEMENT = {"a": 0, "b": 1, "c": 2}
INITIAL = {"a": 1, "b": 2, "c": 3}


def test_read_many_returns_all_values():
    cluster = make_cluster("fwkv", 3, PLACEMENT, initial=INITIAL)

    def proc():
        node = cluster.node(0)
        txn = node.begin(is_read_only=True)
        values = yield from node.read_many(txn, ["a", "b", "c"])
        ok = yield from node.commit(txn)
        return values, ok, cluster.sim.now

    values, ok, elapsed = cluster.run_process(proc())
    assert values == INITIAL
    assert ok
    # Parallel: three reads cost roughly one round trip, not three.
    assert elapsed < 150e-6


def test_read_many_faster_than_sequential():
    def run(parallel):
        cluster = make_cluster("fwkv", 3, PLACEMENT, initial=INITIAL)

        def proc():
            node = cluster.node(0)
            txn = node.begin(is_read_only=True)
            if parallel:
                yield from node.read_many(txn, ["a", "b", "c"])
            else:
                for key in ("a", "b", "c"):
                    yield from node.read(txn, key)
            yield from node.commit(txn)
            return cluster.sim.now

        return cluster.run_process(proc())

    assert run(parallel=True) < run(parallel=False)


def test_read_many_rejects_update_transactions():
    cluster = make_cluster("fwkv", 3, PLACEMENT, initial=INITIAL)
    node = cluster.node(0)
    txn = node.begin(is_read_only=False)
    with pytest.raises(ValueError, match="read-only"):
        # Generators raise on first advance.
        gen = node.read_many(txn, ["a"])
        next(gen)


def test_read_many_fails_with_a_read_that_exhausts_its_retries():
    """Without failover, a key whose owner is down fails the whole
    multi-get with that read's timeout, once its attempts run out."""
    rpc = RpcConfig(request_timeout=200e-6, max_attempts=2)
    config = ClusterConfig(
        num_nodes=3, network=NetworkConfig(jitter=0.0, rpc=rpc)
    )
    cluster = Cluster("fwkv", config, directory=ExplicitDirectory(PLACEMENT))
    for key, value in INITIAL.items():
        cluster.load(key, value)
    cluster.network.crash(2)

    def proc():
        node = cluster.node(0)
        txn = node.begin(is_read_only=True)
        try:
            yield from node.read_many(txn, ["a", "b", "c"])
        except RpcTimeoutError as exc:
            return exc, cluster.sim.now

    exc, elapsed = cluster.run_process(proc())
    assert isinstance(exc, RpcTimeoutError)
    assert "to node 2" in str(exc)
    assert elapsed >= rpc.max_attempts * rpc.request_timeout


def test_read_many_uses_cache_and_mixes_with_read():
    cluster = make_cluster("walter", 3, PLACEMENT, initial=INITIAL)

    def proc():
        node = cluster.node(0)
        txn = node.begin(is_read_only=True)
        first = yield from node.read(txn, "a")
        values = yield from node.read_many(txn, ["a", "b"])
        yield from node.commit(txn)
        return first, values

    first, values = cluster.run_process(proc())
    assert first == 1
    assert values == {"a": 1, "b": 2}


def test_read_many_consistency_under_concurrent_update():
    """An update landing between the parallel reads cannot fracture the
    snapshot: the VAS machinery hides its writes from this reader."""
    placement = {"x": 1, "y": 2}
    cluster = make_cluster(
        "fwkv", 3, placement, initial={"x": 0, "y": 0}, record_history=True
    )
    results = []

    def reader(delay):
        yield cluster.sim.timeout(delay)
        node = cluster.node(0)
        txn = node.begin(is_read_only=True)
        values = yield from node.read_many(txn, ["x", "y"])
        yield from node.commit(txn)
        results.append(values)

    def churn():
        for i in range(1, 15):
            while True:
                ok, _ = yield from update_txn(
                    cluster, (i % 2) + 1, writes={"x": i, "y": i}
                )
                if ok:
                    break
                yield cluster.sim.timeout(30e-6)
            yield cluster.sim.timeout(20e-6)

    cluster.spawn(churn())
    for i in range(10):
        cluster.spawn(reader(delay=i * 35e-6))
    cluster.run()

    assert len(results) == 10
    for values in results:
        assert values["x"] == values["y"], (
            f"fractured multi-get snapshot: {values}"
        )
    assert_psi(cluster, quiescent=True)

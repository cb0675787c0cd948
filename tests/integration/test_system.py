"""Tests for the Cluster facade: catalogs, history finalisation, probes."""

import pytest

from repro import Cluster, ClusterConfig
from tests.integration.scenario_tools import (
    make_cluster,
    read_only_txn,
    update_txn,
)


def test_version_catalog_for_mvcc():
    cluster = make_cluster("fwkv", 2, {"x": 0, "y": 1}, initial={"x": 1, "y": 2})
    cluster.run_process(update_txn(cluster, 0, writes={"x": 10, "y": 20}))
    catalog = cluster.version_catalog()
    assert catalog[("x", 0)][2] is None  # loaded version, no writer
    origin, seq, writer = catalog[("x", 1)]
    assert origin == 0 and seq == 1 and writer is not None
    assert catalog[("y", 1)][2] == writer  # same transaction wrote both


def test_version_catalog_for_2pc():
    cluster = make_cluster("2pc", 2, {"x": 0}, initial={"x": 1})
    cluster.run_process(update_txn(cluster, 1, writes={"x": 5}))
    catalog = cluster.version_catalog()
    assert catalog[("x", 0)][2] is None
    assert catalog[("x", 1)][2] is not None


def test_finalized_history_resolves_write_vids():
    cluster = make_cluster("fwkv", 2, {"x": 0, "y": 1}, initial={"x": 1, "y": 2})
    cluster.run_process(update_txn(cluster, 0, writes={"x": 10, "y": 20}))
    cluster.run_process(read_only_txn(cluster, 1, ["x", "y"]))
    history = cluster.finalized_history()
    updates = history.committed_updates()
    assert len(updates) == 1
    written = {op.key: op.vid for op in updates[0].writes()}
    assert written == {"x": 1, "y": 1}
    reader = history.committed_read_only()[0]
    assert {op.key for op in reader.ops if op.kind == "r"} == {"x", "y"}


def test_finalized_history_idempotent():
    cluster = make_cluster("fwkv", 2, {"x": 0}, initial={"x": 1})
    cluster.run_process(update_txn(cluster, 0, writes={"x": 2}))
    first = cluster.finalized_history()
    count = len(first.committed_updates()[0].writes())
    second = cluster.finalized_history()
    assert len(second.committed_updates()[0].writes()) == count


def test_finalized_history_requires_recording():
    cluster = Cluster("fwkv", ClusterConfig(num_nodes=2))
    with pytest.raises(RuntimeError, match="history recording"):
        cluster.finalized_history()


def test_site_clocks_empty_for_2pc():
    cluster = make_cluster("2pc", 2, {"x": 0})
    assert cluster.site_clocks() == []


def test_load_routes_to_preferred_site():
    cluster = make_cluster("fwkv", 3, {"a": 2}, initial={"a": 9})
    assert "a" in cluster.node(2).store
    assert "a" not in cluster.node(0).store


def test_load_many_returns_count():
    cluster = Cluster("walter", ClusterConfig(num_nodes=2))
    assert cluster.load_many((f"k{i}", i) for i in range(10)) == 10

"""Tests for the structured tracing facility."""

import pytest

from repro.sim import Simulator, Tracer
from tests.integration.scenario_tools import (
    make_cluster,
    read_only_txn,
    update_txn,
)


def test_disabled_tracer_records_nothing():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.emit(0, "commit", txn=1)
    assert tracer.records == []


def test_enable_selects_kinds():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.enable("commit", "abort")
    tracer.emit(0, "commit", txn=1)
    tracer.emit(0, "read", txn=1, key="x")
    assert len(tracer.records) == 1
    assert tracer.records[0].event == "commit"


def test_unknown_kind_rejected():
    tracer = Tracer(Simulator())
    with pytest.raises(ValueError):
        tracer.enable("warp-speed")


def test_record_cap_counts_drops():
    sim = Simulator()
    tracer = Tracer(sim, max_records=2)
    tracer.enable("commit")
    for i in range(5):
        tracer.emit(0, "commit", txn=i)
    assert len(tracer.records) == 2
    assert tracer.dropped == 3


def test_cluster_tracing_end_to_end():
    cluster = make_cluster("fwkv", 2, {"x": 1}, initial={"x": 0})
    cluster.tracer.enable("begin", "read", "commit", "prepare", "decide")

    cluster.run_process(update_txn(cluster, 0, writes={"x": 1}, reads=["x"]))
    cluster.run_process(read_only_txn(cluster, 1, ["x"]))

    kinds = [record.event for record in cluster.tracer.records]
    assert "begin" in kinds and "read" in kinds and "commit" in kinds
    assert "prepare" in kinds and "decide" in kinds

    # Per-transaction filtering reconstructs a lifecycle.
    first_txn = cluster.tracer.records[0].details["txn"]
    lifecycle = [r.event for r in cluster.tracer.for_txn(first_txn)]
    assert lifecycle[0] == "begin"
    assert lifecycle[-1] in ("commit", "decide")

    # Formatting is human-readable.
    line = cluster.tracer.format(cluster.tracer.records[0])
    assert "begin" in line and "ms]" in line
    dump = cluster.tracer.dump(limit=3)
    assert len(dump.splitlines()) == 3


def test_stall_events_traced():
    cluster = make_cluster(
        "fwkv", 3, {"x": 1, "y": 0}, propagate_delay=3e-3,
        initial={"x": "x0", "y": "y0"},
    )
    cluster.tracer.enable("stall")

    def writer():
        ok, _ = yield from update_txn(cluster, 0, writes={"y": "y1"})
        assert ok

    def reader():
        yield cluster.sim.timeout(0.5e-3)
        node = cluster.node(0)
        txn = node.begin(is_read_only=True)
        yield from node.read(txn, "x")
        yield from node.commit(txn)

    cluster.spawn(writer())
    cluster.spawn(reader())
    cluster.run()
    stalls = cluster.tracer.of_kind("stall")
    assert stalls
    assert stalls[0].details["waited"] > 0

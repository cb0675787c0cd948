"""Unit and integration tests for version-chain garbage collection."""

import pytest

from repro.core import VectorClock
from repro.storage import VersionChain
from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import make_cluster, retry_update, shrink_gc


def build_chain(count, now_step=1.0):
    chain = VersionChain()
    for i in range(count):
        chain.install(
            f"v{i}", VectorClock([i]), origin=0, seq=i, installed_at=i * now_step
        )
    return chain


def test_gc_drops_old_cold_versions():
    chain = build_chain(10)
    dropped = chain.collect_garbage(keep_last=3, min_age=2.0, now=20.0)
    assert dropped == 7
    assert [v.value for v in chain] == ["v7", "v8", "v9"]
    assert chain.latest.value == "v9"


def test_gc_respects_min_age():
    chain = build_chain(10)  # installed_at = 0..9
    # Only versions at or past the age horizon (now - min_age = 4) go.
    dropped = chain.collect_garbage(keep_last=1, min_age=6.0, now=10.0)
    assert dropped == 5
    assert chain.by_vid(5).value == "v5"
    assert [v.value for v in chain][0] == "v5"


def test_gc_stops_at_vas_registration():
    chain = build_chain(10)
    chain.by_vid(2).access_set.add(77)  # an active reader's registration
    dropped = chain.collect_garbage(keep_last=1, min_age=0.0, now=100.0)
    assert dropped == 2, "reclamation must stop at the registered version"
    assert chain.by_vid(2).value == "v2"


def test_gc_never_drops_latest():
    chain = build_chain(3)
    dropped = chain.collect_garbage(keep_last=1, min_age=0.0, now=100.0)
    assert dropped == 2
    assert len(chain) == 1
    assert chain.latest.value == "v2"
    assert chain.collect_garbage(1, 0.0, now=200.0) == 0


def test_gc_validates_keep_last():
    chain = build_chain(3)
    with pytest.raises(ValueError):
        chain.collect_garbage(keep_last=0, min_age=0.0, now=1.0)


def test_gc_bounds_chain_length_under_churn(monkeypatch):
    """A hot key overwritten hundreds of times keeps a bounded chain."""
    cluster = make_cluster("fwkv", 2, {"hot": 1}, initial={"hot": 0})
    shrink_gc(monkeypatch, trigger=8, keep=4, min_age=1e-3)

    def churn(rounds):
        for i in range(rounds):
            yield from retry_update(cluster, 0, writes={"hot": i})

    cluster.spawn(churn(150))
    cluster.run()
    chain = cluster.node(1).store.chain("hot")
    assert chain.latest.value == 149
    assert len(chain) <= 8, f"chain should stay bounded, got {len(chain)}"
    assert cluster.metrics.counters["versions_reclaimed"] > 100


def test_gc_disabled_keeps_everything():
    cluster = make_cluster("fwkv", 2, {"hot": 1}, initial={"hot": 0})
    cluster.config.gc_enabled = False

    def churn(rounds):
        for i in range(rounds):
            yield from retry_update(cluster, 0, writes={"hot": i})

    cluster.spawn(churn(60))
    cluster.run()
    assert len(cluster.node(1).store.chain("hot")) == 61
    assert cluster.metrics.counters["versions_reclaimed"] == 0


def test_gc_preserves_correctness_under_concurrent_readers(monkeypatch):
    """Readers interleaved with churn still observe consistent snapshots,
    and no acknowledged write is reported lost on a trimmed chain."""
    cluster = make_cluster(
        "fwkv", 2, {"a": 1, "b": 1}, initial={"a": 0, "b": 0},
        record_history=True,
    )
    shrink_gc(monkeypatch, trigger=6, keep=3, min_age=2e-3)

    def churn(rounds):
        for i in range(rounds):
            yield from retry_update(cluster, 0, writes={"a": i, "b": i})

    def reader():
        node = cluster.node(1)
        for _ in range(40):
            txn = node.begin(is_read_only=True)
            a = yield from node.read(txn, "a")
            b = yield from node.read(txn, "b")
            yield from node.commit(txn)
            assert a == b, "a and b are always written together"
            yield cluster.sim.timeout(100e-6)

    cluster.spawn(churn(120))
    cluster.spawn(reader())
    cluster.run()
    assert cluster.metrics.counters["versions_reclaimed"] > 0
    assert_psi(cluster, quiescent=True)

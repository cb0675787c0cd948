"""Planted bugs: each test breaks one protocol step by monkeypatching and
shows the one oracle catching it (DESIGN.md 7, "The oracle") -- and one
real bug the oracle found, fixed."""

import sys

import repro.core.mvcc_node as mvcc_node
from repro import ClusterConfig, RunConfig
from repro.core.fwkv import FWKVNode
from repro.faults import Nemesis
from repro.faults.schedules import HEAL, PARTITION, FaultEvent
from repro.harness import run_experiment
from repro.metrics import check_no_read_skew, check_psi, check_site_order
from repro.net.message import MessageType
from repro.workloads import YCSBConfig, YCSBWorkload
from tests.harness.oracle import assert_psi
from tests.harness.recovery_tools import TracePoint
from tests.integration.scenario_tools import make_cluster, read_only_txn, update_txn
from tests.integration.test_chaos import build as chaos_cluster


def ycsb(duration, **ycsb):
    cluster = run_experiment(
        "fwkv", YCSBWorkload(YCSBConfig(**ycsb)),
        ClusterConfig(num_nodes=4, clients_per_node=4, seed=1),
        RunConfig(duration=duration, warmup=0.0), record_history=True,
    ).cluster
    return cluster.finalized_history(), cluster.version_catalog()


def test_without_first_committer_wins_only_the_oracle_sees_the_lost_updates(
    monkeypatch,
):
    """``_validate`` passing everything: a zipf run loses updates, and the
    two partial checks the ledger gate runs accept the history."""
    monkeypatch.setattr(mvcc_node.MVCCNode, "_validate", lambda self, request: None)
    history, catalog = ycsb(3e-3, num_keys=2_000, distribution="zipf", zipf_s=1.1)
    violations = check_psi(history, catalog).violations
    assert violations and all("lost update" in v.kinds for v in violations)
    assert check_no_read_skew(history).ok and check_site_order(history, catalog).ok


def test_a_dropped_collected_set_is_read_skew(monkeypatch):
    """Prepare harvests no visible readers (Alg. 5 lines 8-10): a four-key
    reader sees half of one writer."""
    def collect_nothing(self, writes):
        return frozenset()
        yield  # a generator, like the method it replaces

    assert check_psi(*ycsb(0.01, num_keys=10, keys_per_txn=4)).ok
    monkeypatch.setattr(FWKVNode, "_collect_antideps", collect_nothing)
    violations = check_psi(*ycsb(0.01, num_keys=10, keys_per_txn=4)).violations
    assert "read skew" in {kind for v in violations for kind in v.kinds}


def overtaken_commit():
    """A (nodes 0, 1) loses its Decide to node 1 to a cut link; B, begun
    before A committed, writes node 1 once the link heals.  B's Decide
    reaches node 1 before A's outcome (the lease's status query)."""
    cluster = chaos_cluster("fwkv", seed=35)
    nemesis = Nemesis(cluster)
    keys = [f"k{i}" for i in range(16)]
    (a0, *_), (a1, b1, *_) = (
        [key for key in keys if cluster.directory.site(key) == n] for n in (0, 1)
    )

    def cut(_record):
        nemesis.apply(FaultEvent(cluster.sim.now, PARTITION, 0, 1))
        cluster.sim.call_later(
            2e-3, lambda: nemesis.apply(FaultEvent(cluster.sim.now, HEAL, 0, 1))
        )
        cluster.spawn(update_txn(cluster, 0, {b1: 1}, reads=[b1]))

    TracePoint(cluster, "prepare", cut, node=1)
    cluster.spawn(update_txn(cluster, 0, {a0: 1, a1: 1}, reads=[a0, a1]))
    cluster.run()
    return cluster, a1


def test_a_skipped_in_order_apply_loses_the_overtaken_commit(monkeypatch):
    """Without Alg. 5 line 16's wait B installs first and A, "already
    applied", never does: an acknowledged write in no store."""
    assert_psi(overtaken_commit()[0], quiescent=True)
    real = mvcc_node.wait_until

    def wait_until(condition, predicate):
        if sys._getframe(1).f_code.co_name == "_apply_committed_decide":
            return iter(())
        return real(condition, predicate)

    monkeypatch.setattr(mvcc_node, "wait_until", wait_until)
    cluster, key = overtaken_commit()
    (first,) = [record.txn_id for record in cluster.history if record.seq_no == 1]
    assert cluster.finalized_history().lost_writes == [(first, key)]


def snapshot_ahead_of_its_site(protocol):
    """Origin 0 commits ``a`` (node 0), then ``x`` and ``k`` (nodes 1, 2),
    node 2 holding the second back behind a late Propagate; a reader at
    node 1 has both in its snapshot."""
    cluster = make_cluster(protocol, 3, {"a": 0, "x": 1, "k": 2})
    cluster.network.delay_policy = lambda envelope: 10e-3 if (
        envelope.msg_type == MessageType.PROPAGATE and envelope.dst == 2
    ) else 0.0
    seen = {}

    def scenario():
        yield from update_txn(cluster, 0, {"a": 1})
        yield from update_txn(cluster, 0, {"x": 1, "k": 1})
        yield cluster.sim.timeout(200e-6)
        seen.update((yield from read_only_txn(cluster, 1, ["x", "k"])))

    cluster.spawn(scenario())
    cluster.run()
    return cluster, seen


def test_a_skipped_snapshot_wait_is_read_skew_on_a_driven_interleaving(
    monkeypatch,
):
    """Without the read handler's snapshot wait (DESIGN.md 4.5, item 3) a
    Walter read returns the old ``k`` beside the new ``x``; FW-KV's read
    lock hides it here (the pending commit holds ``k``'s write lock)."""
    for protocol in ("walter", "fwkv"):
        cluster, seen = snapshot_ahead_of_its_site(protocol)
        assert seen == {"x": 1, "k": 1}
        assert_psi(cluster)
    monkeypatch.setattr(mvcc_node, "covers", lambda entries, snapshot: True)
    assert snapshot_ahead_of_its_site("fwkv")[1] == {"x": 1, "k": 1}
    cluster, seen = snapshot_ahead_of_its_site("walter")
    assert seen == {"x": 1, "k": 0}
    history, catalog = cluster.finalized_history(), cluster.version_catalog()
    assert [v.kinds for v in check_psi(history, catalog).violations] == [("read skew",)]


def test_a_later_fresh_contact_leaves_the_sites_already_read_alone():
    """Found by the oracle: T reads ``p`` at node 1, W (origin 1) writes
    ``q`` at node 0 and ``r`` at node 1; T's first contact with node 0 hides
    W's ``q`` but used to raise T's node-1 entry to node 0's clock, so T's
    next read at node 1 returned W's ``r``: read skew."""
    cluster = make_cluster("fwkv", 3, {"p": 1, "q": 0, "r": 1})
    node, seen = cluster.node(2), {}

    def reader():
        txn = node.begin(is_read_only=True)
        seen["p"] = yield from node.read(txn, "p")
        yield from update_txn(cluster, 1, {"q": 1, "r": 1})
        yield cluster.sim.timeout(200e-6)
        for key in ("q", "r"):
            seen[key] = yield from node.read(txn, key)
        yield from node.commit(txn)

    cluster.spawn(reader())
    cluster.run()
    assert seen == {"p": 0, "q": 0, "r": 0}
    assert_psi(cluster, quiescent=True)

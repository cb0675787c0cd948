"""Figure 3: how an *update* transaction establishes its safe snapshot.

Update T1 (node 0) reads ``x`` from node 1 -- its first read, so it sees
the latest version and advances ``T.VC`` to node 1's clock.  Update T3
(node 2) then commits new versions of both ``x`` and ``y`` on node 1.
T1's second read (``y``) applies the conservative exclusion rule: ``y1``'s
clock equals T1's bound at the read site but is newer at T3's (unread)
site, so it may stem from a concurrent conflicting transaction and must be
skipped -- T1 reads ``y0``.  T1 then writes ``z`` (no conflict) and
commits.
"""

from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import make_cluster, update_txn

PLACEMENT = {"x": 1, "y": 1, "z": 0}
INITIAL = {"x": "x0", "y": "y0", "z": "z0"}


def run_scenario():
    cluster = make_cluster("fwkv", 3, PLACEMENT, initial=INITIAL)
    sync = {"x_read": cluster.sim.event(), "t3_done": cluster.sim.event()}
    result = {}

    def t1():
        node = cluster.node(0)
        txn = node.begin(is_read_only=False)
        result["x"] = yield from node.read(txn, "x")
        result["t1_vc_after_x"] = txn.vc.to_tuple()
        sync["x_read"].succeed()
        yield sync["t3_done"]
        yield cluster.sim.timeout(200e-6)  # T3's Decide applies at node 1
        result["y_latest"] = cluster.node(1).store.chain("y").latest.value
        result["y"] = yield from node.read(txn, "y")
        node.write(txn, "z", "z1")
        result["t1_committed"] = yield from node.commit(txn)

    def t3():
        yield sync["x_read"]
        ok, _ = yield from update_txn(cluster, 2, writes={"x": "x1", "y": "y1"})
        result["t3_ok"] = ok
        sync["t3_done"].succeed()

    cluster.spawn(t1())
    cluster.spawn(t3())
    cluster.run()
    return cluster, result


def test_update_reads_safe_old_y_after_concurrent_commit():
    cluster, result = run_scenario()
    assert result["t3_ok"]
    assert result["x"] == "x0"
    assert result["y_latest"] == "y1", "y1 was committed before T1's read"
    assert result["y"] == "y0", (
        "the conservative rule must exclude y1 (possible concurrent conflict)"
    )
    assert result["t1_committed"], "writing z conflicts with nobody"


def test_first_read_advances_snapshot_to_node_clock():
    _cluster, result = run_scenario()
    # After reading x at node 1, T1's VC reflects node 1's clock (all zero
    # here since nothing had committed yet -- the point is it matched the
    # node's siteVC at read time, shown non-trivially in fig4 tests).
    assert len(result["t1_vc_after_x"]) == 3


def test_history_passes_the_oracle():
    cluster, _result = run_scenario()
    assert_psi(cluster, quiescent=True)


def test_update_transactions_do_not_register_in_vas():
    cluster, _result = run_scenario()
    # T1 was an update transaction: it never adds itself to any VAS, and
    # T3 collected nothing, so after quiescence the VAS are empty.
    assert cluster.total_vas_entries() == 0

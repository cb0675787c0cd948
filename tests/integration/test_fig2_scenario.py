"""Figure 2: a read-only transaction advances its snapshot yet reads
consistently thanks to the version-access-set.

Keys ``x`` and ``y`` live on node 1.  Read-only T1 (node 0) reads ``x``
first (latest version, registering in the VAS).  Update T3 (node 2) then
overwrites both ``x`` and ``y``; its commit propagates T1's identifier into
the new versions.  When T1 later reads ``y``, the VAS exclusion forces the
old ``y0`` -- the anti-dependency with T3 is respected -- even though the
new ``y1`` is within T1's vector-clock bound.  After T1 commits, Remove
messages erase its VAS entries everywhere.
"""

from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import make_cluster, update_txn

PLACEMENT = {"x": 1, "y": 1}
INITIAL = {"x": "x0", "y": "y0"}


def run_scenario():
    cluster = make_cluster("fwkv", 3, PLACEMENT, initial=INITIAL)
    sync = {"x_read": cluster.sim.event(), "t3_done": cluster.sim.event()}
    result = {}

    def t1():
        node = cluster.node(0)
        txn = node.begin(is_read_only=True)
        result["x"] = yield from node.read(txn, "x")
        sync["x_read"].succeed()
        yield sync["t3_done"]
        yield cluster.sim.timeout(200e-6)  # let T3's Decide apply at node 1
        chain = cluster.node(1).store.chain("y")
        result["y_latest_before_read"] = chain.latest.value
        result["y1_vas"] = set(chain.latest.access_set)
        result["y"] = yield from node.read(txn, "y")
        ok = yield from node.commit(txn)
        result["t1_committed"] = ok
        result["t1_id"] = txn.txn_id

    def t3():
        yield sync["x_read"]
        ok, _ = yield from update_txn(
            cluster, 2, writes={"x": "x1", "y": "y1"}
        )
        result["t3_ok"] = ok
        sync["t3_done"].succeed()

    cluster.spawn(t1())
    cluster.spawn(t3())
    cluster.run()
    return cluster, result


def test_t1_reads_latest_x_then_consistent_old_y():
    cluster, result = run_scenario()
    assert result["t3_ok"]
    assert result["x"] == "x0", "x0 was the latest at T1's first read"
    assert result["y_latest_before_read"] == "y1", "y1 committed before the read"
    assert result["y"] == "y0", "VAS exclusion must hide y1 from T1"
    assert result["t1_committed"]


def test_t3_commit_propagates_t1_into_new_versions():
    cluster, result = run_scenario()
    assert result["t1_id"] in result["y1_vas"], (
        "T3's commit must propagate T1's id into the versions it installs"
    )


def test_remove_cleans_all_vas_entries():
    cluster, _result = run_scenario()
    assert cluster.total_vas_entries() == 0
    assert not cluster.any_locks_held()


def test_history_is_psi_consistent():
    cluster, _result = run_scenario()
    assert_psi(cluster, quiescent=True)

"""Figure 1: the observable long-fork anomaly -- admitted by Walter,
eliminated by FW-KV when the updates commit before the readers start.

Four nodes.  ``x`` is preferred at node 1, ``y`` at node 2.  T2 (node 1)
and T3 (node 2) are non-conflicting local updates that both commit around
t=0.  Asymmetric congestion delays T2's Propagate towards node 3 and T3's
Propagate towards node 0 by 10 ms.  At t=1 ms -- after both commits, before
the delayed Propagates -- read-only T1 (node 0) reads x then y, and
read-only T4 (node 3) reads y then x.

* Walter: T1's begin snapshot includes T2 but not T3; T4's includes T3 but
  not T2.  They observe the two updates in opposite orders: a long fork
  that is *observable* (both updates finished before both readers began).
* FW-KV: each read is a first contact with its node, so T1 and T4 both
  see x1 and y1.  No fork.
"""

from repro.metrics import check_fresh, check_psi, find_long_forks
from repro.net.message import MessageType
from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import make_cluster, read_only_txn, update_txn

PLACEMENT = {"x": 1, "y": 2}
INITIAL = {"x": "x0", "y": "y0"}
SLOW = 10e-3


def _delay_policy(envelope):
    if envelope.msg_type != MessageType.PROPAGATE:
        return 0.0
    if (envelope.src, envelope.dst) in {(1, 3), (2, 0)}:
        return SLOW
    return 0.0


def run_scenario(protocol):
    cluster = make_cluster(protocol, 4, PLACEMENT, initial=INITIAL)
    cluster.network.delay_policy = _delay_policy
    result = {}

    def writer(node_id, key, value, label):
        ok, _ = yield from update_txn(cluster, node_id, writes={key: value})
        result[label] = ok

    def reader(node_id, keys, label):
        observed = yield from read_only_txn(cluster, node_id, keys, delay=1e-3)
        result[label] = observed

    cluster.spawn(writer(1, "x", "x1", "t2_ok"))
    cluster.spawn(writer(2, "y", "y1", "t3_ok"))
    cluster.spawn(reader(0, ["x", "y"], "t1"))
    cluster.spawn(reader(3, ["y", "x"], "t4"))
    cluster.run()
    assert result["t2_ok"] and result["t3_ok"]
    return cluster, result


def test_walter_admits_observable_long_fork():
    cluster, result = run_scenario("walter")
    assert result["t1"] == {"x": "x1", "y": "y0"}, "T1 sees T2 but not T3"
    assert result["t4"] == {"y": "y1", "x": "x0"}, "T4 sees T3 but not T2"

    # Both updates committed before both readers started: the
    # client-observable anomaly -- allowed by PSI, rejected by FW-KV's own
    # verdict.  Every first read was fresh; the readers' second reads fork.
    history = cluster.finalized_history()
    assert check_psi(history, cluster.version_catalog()).ok
    assert len(find_long_forks(history)) == 1
    assert [v.kinds for v in check_fresh(history).violations] == [
        ("observable long fork",)
    ]


def test_fwkv_eliminates_observable_long_fork():
    cluster, result = run_scenario("fwkv")
    assert result["t1"] == {"x": "x1", "y": "y1"}, "fresh first contacts"
    assert result["t4"] == {"y": "y1", "x": "x1"}

    assert_psi(cluster)  # check_fresh included


def test_walter_snapshots_converge_after_propagation():
    """The fork is transient: once Propagates arrive, new readers agree."""
    cluster, _result = run_scenario("walter")

    def late_reader(node_id, label, out):
        observed = yield from read_only_txn(cluster, node_id, ["x", "y"])
        out[label] = observed

    out = {}
    cluster.spawn(late_reader(0, "n0", out))
    cluster.spawn(late_reader(3, "n3", out))
    cluster.run()
    assert out["n0"] == out["n3"] == {"x": "x1", "y": "y1"}

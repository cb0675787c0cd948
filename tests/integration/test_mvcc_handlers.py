"""Edge-case tests for the shared MVCC machinery (prepare/decide/propagate)."""

import pytest

from repro.core.cost_model import PREPARE_KEY
from repro.net.message import MessageType
from tests.integration.scenario_tools import (
    make_cluster,
    retry_update,
    update_txn,
)


def test_lock_timeout_aborts_prepare():
    """A prepare that cannot lock within the timeout votes no."""
    cluster = make_cluster("fwkv", 2, {"x": 1}, initial={"x": 0})
    outcome = {}
    lock_acquired = cluster.sim.event()

    def holder():
        # Take the write lock directly and sit on it past the timeout.
        node = cluster.node(1)
        granted = yield node.locks.lock_for("x").acquire_write("intruder")
        assert granted
        lock_acquired.succeed()
        yield cluster.sim.timeout(5e-3)
        node.locks.lock_for("x").release("intruder")

    def txn():
        yield lock_acquired
        node = cluster.node(0)
        t = node.begin(is_read_only=False)
        node.write(t, "x", 42)
        outcome["ok"] = yield from node.commit(t)

    cluster.spawn(holder())
    cluster.spawn(txn())
    cluster.run()
    assert outcome["ok"] is False
    assert cluster.metrics.aborts_by_reason.get("lock_timeout", 0) == 1
    # After the holder releases, a retry succeeds.
    cluster.run_process(retry_update(cluster, 0, writes={"x": 42}))
    assert cluster.node(1).store.chain("x").latest.value == 42


def test_in_order_decide_application():
    """Commits from one origin apply in sequence-number order even when a
    middle transaction's Propagate is the only carrier of its seq."""
    placement = {"a": 1, "b": 1, "c": 0}
    cluster = make_cluster("fwkv", 2, placement, propagate_delay=2e-3)

    def writer():
        # Txn 1 from node 0 writes a key on node 1 (Decide to node 1).
        ok, _ = yield from update_txn(cluster, 0, writes={"a": 1})
        assert ok
        # Txn 2 from node 0 writes only local key c (node 1 gets Propagate,
        # delayed 2ms).
        ok, _ = yield from update_txn(cluster, 0, writes={"c": 2})
        assert ok
        # Txn 3 from node 0 writes on node 1 again: its Decide must wait at
        # node 1 for txn 2's delayed Propagate.
        ok, _ = yield from update_txn(cluster, 0, writes={"b": 3})
        assert ok

    cluster.spawn(writer())
    cluster.run(until=1.5e-3)
    node1 = cluster.node(1)
    # Txn 3 decided, but cannot apply before txn 2's Propagate arrives.
    assert node1.site_vc[0] == 1
    assert node1.store.chain("b").latest.value == 0
    cluster.run()
    assert node1.site_vc[0] == 3
    assert node1.store.chain("b").latest.value == 3


def test_propagate_is_idempotent_and_ordered():
    cluster = make_cluster("walter", 3, {"x": 0}, initial={"x": 0})
    cluster.run_process(update_txn(cluster, 0, writes={"x": 1}))
    node2 = cluster.node(2)
    assert node2.site_vc[0] == 1
    # A duplicate propagate for an already-applied seq is a no-op.
    from repro.core.wire import PropagateBody

    cluster.node(0).node.send(2, MessageType.PROPAGATE, PropagateBody(0, 1))
    cluster.run()
    assert node2.site_vc[0] == 1


def test_read_stall_released_by_catchup():
    """A read whose snapshot outruns the serving node waits, then serves."""
    placement = {"x": 1, "y": 0}
    cluster = make_cluster("fwkv", 3, placement, propagate_delay=3e-3,
                           initial={"x": "x0", "y": "y0"})
    result = {}

    def writer():
        # Node 0 commits y1 (node 0 is preferred site); node 1 learns of it
        # only via the delayed Propagate.
        ok, _ = yield from update_txn(cluster, 0, writes={"y": "y1"})
        assert ok

    def reader():
        yield cluster.sim.timeout(0.5e-3)
        node = cluster.node(0)  # begins at node 0: snapshot includes y1
        txn = node.begin(is_read_only=True)
        value = yield from node.read(txn, "x")  # served by lagging node 1
        result["x"] = value
        result["at"] = cluster.sim.now
        yield from node.commit(txn)

    cluster.spawn(writer())
    cluster.spawn(reader())
    cluster.run()
    assert result["x"] == "x0"
    # The read stalled until node 1 received the delayed Propagate (~3ms).
    assert result["at"] >= 3e-3
    assert cluster.metrics.read_stalls >= 1


def test_empty_writeset_update_commits_as_read_only():
    """Alg. 4 line 2 keys on the writeset, not the declared mode."""
    cluster = make_cluster("fwkv", 2, {"x": 1}, initial={"x": 5})

    def txn():
        node = cluster.node(0)
        t = node.begin(is_read_only=False)
        value = yield from node.read(t, "x")
        ok = yield from node.commit(t)
        return value, ok, t.seq_no

    value, ok, seq_no = cluster.run_process(txn())
    assert (value, ok) == (5, True)
    assert seq_no is None, "no sequence number consumed without writes"
    assert cluster.node(0).curr_seq_no == 0


def test_aborted_transactions_consume_no_sequence_numbers():
    cluster = make_cluster("walter", 2, {"x": 1}, initial={"x": 0})
    read_done = cluster.sim.event()
    winner_done = cluster.sim.event()

    def loser():
        node = cluster.node(0)
        t = node.begin(is_read_only=False)
        _ = yield from node.read(t, "x")
        node.write(t, "x", "loser")
        read_done.succeed()
        yield winner_done
        ok = yield from node.commit(t)
        assert not ok

    def winner():
        yield read_done
        ok, _ = yield from update_txn(cluster, 1, writes={"x": "winner"})
        assert ok
        winner_done.succeed()

    cluster.spawn(loser())
    cluster.spawn(winner())
    cluster.run()
    assert cluster.node(0).curr_seq_no == 0, "aborts must not consume seqs"
    assert cluster.node(1).curr_seq_no == 1
    # Every node converges on the winner's commit.
    assert cluster.site_clocks() == [(0, 1), (0, 1)]


# ----------------------------------------------------------------------
# Validate-before-lock (PR 13): a doomed prepare never queues on the lock
# ----------------------------------------------------------------------
def _stale_prepare(cluster, txn_id=9001, round=0):
    """A Prepare for ``x`` at node 1 whose read of ``x`` has since been
    overwritten: returns ``(node, request)``."""
    from repro.core.wire import PrepareBody

    node = cluster.node(1)
    read_vid = node.store.chain("x").latest.vid
    ok, _ = cluster.run_process(update_txn(cluster, 0, writes={"x": 1}))
    assert ok and node.store.chain("x").latest.vid != read_vid
    request = PrepareBody(
        txn_id=txn_id,
        coordinator=0,
        writes={"x": 2},
        vc=tuple(node.site_vc),
        read_vids={"x": read_vid},
        round=round,
    )
    return node, request


@pytest.mark.parametrize("protocol", ["fwkv", "walter"])
def test_stale_prepare_votes_no_without_queueing_on_the_write_lock(protocol):
    """First-committer-wins is decided before the lock queue: while
    another transaction holds the key's write lock, a prepare whose read
    is already behind the chain's latest answers ``validation`` at once
    (the parent queued it behind the holder and answered after the
    release, or ``lock_timeout``)."""
    cluster = make_cluster(protocol, 2, {"x": 1}, initial={"x": 0})
    node, request = _stale_prepare(cluster)
    lock = node.locks.lock_for("x")
    seen = {"max_queue": 0}

    def holder():
        granted = yield lock.acquire_write("holder")
        assert granted
        yield cluster.sim.timeout(5e-3)
        node.locks.release("x", "holder")

    def watch():
        while lock.is_locked:
            seen["max_queue"] = max(seen["max_queue"], lock.queue_length)
            yield cluster.sim.timeout(5e-6)

    def prepare():
        yield cluster.sim.timeout(1e-4)
        started = cluster.sim.now
        vote = yield from node._handle_prepare(request)
        seen["vote"] = vote
        seen["took"] = cluster.sim.now - started
        seen["holder_still_in"] = lock.held_by("holder") == "w"

    cluster.spawn(holder())
    cluster.spawn(watch())
    cluster.spawn(prepare())
    cluster.run()
    assert (seen["vote"].ok, seen["vote"].reason) == (False, "validation")
    assert seen["holder_still_in"], "the vote must not wait for the holder"
    # Only the per-key validation CPU was spent: no lock wait.
    assert seen["took"] == pytest.approx(PREPARE_KEY)
    assert seen["max_queue"] == 0
    assert request.txn_id not in node._prepared
    assert "x" not in node.locks._locks, "idle lock reclaimed after release"


def test_stale_prepare_on_a_fenced_then_moved_key_still_answers_moved():
    """The fence / ownership checks run before validation, so a handoff
    costs the coordinator a regroup round, never a spurious abort."""
    from repro import Cluster, ClusterConfig
    from repro.cluster import ShardMap

    # Node 1 owns the one shard until the handoff flips it to node 0.
    cluster = Cluster("fwkv", ClusterConfig(num_nodes=2), ShardMap([1, 0], 1), True)
    cluster.load("x", 0)
    node, request = _stale_prepare(cluster)
    node.fence.raise_shards([0])
    result = {}

    def prepare():
        result["vote"] = yield from node._handle_prepare(request)
        result["at"] = cluster.sim.now

    def handoff():
        yield cluster.sim.timeout(1e-3)
        cluster.directory.assign(0, 0)
        node.fence.lower_shards([0])

    started = cluster.sim.now
    cluster.spawn(prepare())
    cluster.spawn(handoff())
    cluster.run()
    assert (result["vote"].ok, result["vote"].reason) == (False, "moved")
    assert result["at"] - started >= 1e-3, "parked on the fence, not refused"


def test_prepare_idempotence_unchanged_by_early_validation():
    """Duplicate, stale-round and newer-round Prepares behave as before:
    the recorded vote is replayed, a stale round hears "moved", and a
    newer round unstages the old entry before validating afresh."""
    from repro.core.wire import PrepareBody

    cluster = make_cluster("fwkv", 2, {"x": 1}, initial={"x": 0})
    node = cluster.node(1)
    vid = node.store.chain("x").latest.vid

    def request(round):
        return PrepareBody(
            txn_id=77, coordinator=0, writes={"x": 9},
            vc=tuple(node.site_vc), read_vids={"x": vid}, round=round,
        )

    first = cluster.run_process(node._handle_prepare(request(1)))
    assert first.ok and node.locks.lock_for("x").held_by(77) == "w"
    # Duplicate of the same round: the very same vote object, no re-lock.
    again = cluster.run_process(node._handle_prepare(request(1)))
    assert again is first
    # A stale round arriving after its successor prepared.
    stale = cluster.run_process(node._handle_prepare(request(0)))
    assert (stale.ok, stale.reason) == (False, "moved")
    assert node._prepared[77].round == 1
    # A newer round supersedes: old entry unstaged, then prepared afresh.
    newer = cluster.run_process(node._handle_prepare(request(2)))
    assert newer.ok and node._prepared[77].round == 2
    assert node.locks.lock_for("x").held_by(77) == "w"
    node._abort_prepared(77, node._prepared[77])
    assert not node.locks.any_locked() and not node.locks._locks

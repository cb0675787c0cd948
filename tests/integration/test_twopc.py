"""Dedicated tests for the serializable 2PC-baseline."""

from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import (
    make_cluster,
    retry_update,
    update_txn,
)


def test_read_validation_detects_stale_reads():
    """A write sliding between read and commit aborts the reader."""
    cluster = make_cluster(
        "2pc", 2, {"x": 1, "summary": 0}, initial={"x": 1, "summary": 0}
    )
    read_done = cluster.sim.event()
    writer_done = cluster.sim.event()
    outcome = {}

    def reader_writer():
        node = cluster.node(0)
        txn = node.begin(is_read_only=False)
        value = yield from node.read(txn, "x")
        read_done.succeed()
        yield writer_done
        node.write(txn, "summary", value + 1)  # writes elsewhere; x only read
        outcome["rw"] = yield from node.commit(txn)

    def writer():
        yield read_done
        ok, _ = yield from update_txn(cluster, 1, writes={"x": 2})
        outcome["w"] = ok
        writer_done.succeed()

    cluster.spawn(reader_writer())
    cluster.spawn(writer())
    cluster.run()
    assert outcome["w"] is True
    assert outcome["rw"] is False, "validation must catch the stale read of x"
    assert cluster.metrics.aborts_by_reason.get("validation", 0) == 1


def test_decide_waits_for_acknowledgements():
    """Commit returns only after every participant applied the decision,
    so an immediately following read anywhere sees the writes."""
    placement = {"p": 0, "q": 1, "r": 2}
    cluster = make_cluster("2pc", 3, placement, initial={"p": 0, "q": 0, "r": 0})

    def proc():
        node = cluster.node(0)
        txn = node.begin(is_read_only=False)
        for key in placement:
            node.write(txn, key, 9)
        ok = yield from node.commit(txn)
        assert ok
        # No settling time: the commit already waited for decide-acks.
        observed = {}
        check = node.begin(is_read_only=True)
        for key in placement:
            observed[key] = yield from node.read(check, key)
        yield from node.commit(check)
        return observed

    assert cluster.run_process(proc()) == {"p": 9, "q": 9, "r": 9}


def test_read_locks_block_concurrent_writers_during_commit():
    """While a reader validates, a writer's prepare waits for the read
    lock, then aborts on validation -- not a lost update."""
    cluster = make_cluster("2pc", 2, {"x": 1, "y": 0}, initial={"x": 1, "y": 1})

    def contended_read_write(node_id, read_key, write_key, out):
        yield from retry_update(
            cluster, node_id,
            reads=[read_key],
            writes={write_key: lambda obs: obs[read_key] * 10},
        )
        out.append(node_id)

    done = []
    cluster.spawn(contended_read_write(0, "x", "y", done))
    cluster.spawn(contended_read_write(1, "y", "x", done))
    cluster.run()
    # Both eventually commit (retries resolve the conflict serially).
    assert sorted(done) == [0, 1]
    assert not cluster.any_locks_held()


def test_serializability_on_write_skew_pattern():
    """The classic SI write-skew anomaly must NOT occur under 2PC."""
    cluster = make_cluster(
        "2pc", 2, {"on_call_a": 0, "on_call_b": 1},
        initial={"on_call_a": 1, "on_call_b": 1}, record_history=True,
    )
    outcome = {}

    def doctor(name, my_key, other_key):
        node = cluster.node(0 if name == "a" else 1)
        txn = node.begin(is_read_only=False)
        mine = yield from node.read(txn, my_key)
        other = yield from node.read(txn, other_key)
        if mine + other > 1:
            node.write(txn, my_key, 0)  # go off call
        outcome[name] = yield from node.commit(txn)

    cluster.spawn(doctor("a", "on_call_a", "on_call_b"))
    cluster.spawn(doctor("b", "on_call_b", "on_call_a"))
    cluster.run()

    final_a = cluster.node(0).store.read("on_call_a").value
    final_b = cluster.node(1).store.read("on_call_b").value
    # Serializability: at least one doctor stays on call.
    assert final_a + final_b >= 1, "write skew slipped through"
    # And at least one transaction aborted (they genuinely conflict).
    assert not (outcome["a"] and outcome["b"]) or (final_a + final_b >= 1)


def test_write_skew_allowed_under_psi():
    """Contrast: the same pattern CAN leave both off call under PSI --
    write skew is exactly what snapshot isolation permits."""
    results = []
    for seed in range(3):
        cluster = make_cluster(
            "fwkv", 2, {"on_call_a": 0, "on_call_b": 1},
            initial={"on_call_a": 1, "on_call_b": 1}, seed=seed,
        )

        def doctor(name, node_id, my_key, other_key):
            node = cluster.node(node_id)
            txn = node.begin(is_read_only=False)
            mine = yield from node.read(txn, my_key)
            other = yield from node.read(txn, other_key)
            if mine + other > 1:
                node.write(txn, my_key, 0)
            yield from node.commit(txn)

        cluster.spawn(doctor("a", 0, "on_call_a", "on_call_b"))
        cluster.spawn(doctor("b", 1, "on_call_b", "on_call_a"))
        cluster.run()
        final = (
            cluster.node(0).store.chain("on_call_a").latest.value
            + cluster.node(1).store.chain("on_call_b").latest.value
        )
        results.append(final)
    assert 0 in results, (
        "under PSI the disjoint-write skew should commit both transactions"
    )


def test_read_only_snapshots_are_serializable():
    cluster = make_cluster(
        "2pc", 2, {"x": 0, "y": 1}, initial={"x": 0, "y": 0},
        record_history=True,
    )

    def churn():
        for i in range(1, 10):
            yield from retry_update(cluster, 0, writes={"x": i, "y": i})

    def reader():
        # Under the 2PC baseline even read-only transactions can abort
        # on validation (the paper's point); retry until committed.
        node = cluster.node(1)
        for _ in range(8):
            while True:
                txn = node.begin(is_read_only=True)
                x = yield from node.read(txn, "x")
                y = yield from node.read(txn, "y")
                ok = yield from node.commit(txn)
                if ok:
                    assert x == y
                    break
                yield cluster.sim.timeout(40e-6)
            yield cluster.sim.timeout(60e-6)

    cluster.spawn(churn())
    cluster.spawn(reader())
    cluster.run()
    assert_psi(cluster, quiescent=True)

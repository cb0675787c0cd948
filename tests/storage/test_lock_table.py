"""Unit tests for the per-key lock table's multi-key helpers."""

import pytest

from repro.sim import Simulator
from repro.sim.locks import LockError
from repro.storage import LockTable


def test_acquire_write_all_is_all_or_nothing():
    sim = Simulator()
    table = LockTable(sim)

    def blocker():
        granted = yield table.lock_for("b").acquire_write("other")
        assert granted
        yield sim.timeout(5e-3)
        table.lock_for("b").release("other")

    result = {}

    def contender():
        ok = yield from table.acquire_write_all(
            ["a", "b", "c"], owner="txn", timeout=1e-3
        )
        result["ok"] = ok

    sim.spawn(blocker())
    sim.spawn(contender())
    sim.run()
    assert result["ok"] is False
    # Nothing may remain held by the failed contender.
    assert table.locked_keys() == []


def test_acquire_write_all_success_and_release():
    sim = Simulator()
    table = LockTable(sim)

    def proc():
        ok = yield from table.acquire_write_all(["x", "y"], "t", timeout=1e-3)
        assert ok
        assert sorted(map(str, table.locked_keys())) == ["x", "y"]
        table.release_write_all(["x", "y"], "t")

    sim.run_process(proc())
    assert not table.any_locked()


def test_acquire_mixed_key_in_both_sets_locked_exclusively():
    sim = Simulator()
    table = LockTable(sim)

    def proc():
        ok, read_held, write_held = yield from table.acquire_mixed(
            read_keys=["a", "b"], write_keys=["b", "c"], owner="t", timeout=1e-3
        )
        assert ok
        assert sorted(read_held) == ["a"]
        assert sorted(write_held) == ["b", "c"]
        assert table.lock_for("b").held_by("t") == "w"
        assert table.lock_for("a").held_by("t") == "r"
        table.release_keys(read_held + write_held, "t")

    sim.run_process(proc())
    assert not table.any_locked()


def test_acquire_mixed_failure_releases_partial_grants():
    sim = Simulator()
    table = LockTable(sim)
    outcome = {}

    def blocker():
        yield table.lock_for("z").acquire_write("other")
        yield sim.timeout(5e-3)
        table.lock_for("z").release("other")

    def contender():
        ok, read_held, write_held = yield from table.acquire_mixed(
            ["a"], ["z"], owner="t", timeout=1e-3
        )
        outcome.update(ok=ok, read_held=read_held, write_held=write_held)

    sim.spawn(blocker())
    sim.spawn(contender())
    sim.run()
    assert outcome["ok"] is False
    assert outcome["read_held"] == [] and outcome["write_held"] == []
    assert table.lock_for("a").held_by("t") is None


def test_shared_reads_do_not_conflict():
    sim = Simulator()
    table = LockTable(sim)

    def reader(name, results):
        granted = yield table.acquire_read("k", owner=name, timeout=None)
        results.append((name, granted, sim.now))
        yield sim.timeout(1e-3)
        table.release("k", name)

    results = []
    sim.spawn(reader("r1", results))
    sim.spawn(reader("r2", results))
    sim.run()
    assert [(n, g) for n, g, _t in results] == [("r1", True), ("r2", True)]
    # Both were granted at t=0: truly shared.
    assert all(t == 0.0 for _n, _g, t in results)


# ----------------------------------------------------------------------
# Idle-lock reclamation: the table holds the locks in use, nothing else
# ----------------------------------------------------------------------
def test_last_release_drops_the_lock_from_the_table():
    sim = Simulator()
    table = LockTable(sim)

    def proc():
        ok = yield from table.acquire_write_all(["x", "y"], "t", timeout=None)
        assert ok and set(table._locks) == {"x", "y"}
        table.release_write_all(["x"], "t")
        assert set(table._locks) == {"y"}
        table.release_keys(["y"], "t")

    sim.run_process(proc())
    assert table._locks == {}


def test_write_held_peeks_without_materialising():
    sim = Simulator()
    table = LockTable(sim)
    assert table.write_held("never-touched") is False
    assert table._locks == {}

    def proc():
        yield table.acquire_read("r", owner="reader", timeout=None)
        assert table.write_held("r") is False
        yield from table.acquire_write_all(["w"], "writer", timeout=None)
        assert table.write_held("w") is True
        table.release("r", "reader")
        table.release("w", "writer")

    sim.run_process(proc())
    assert table.write_held("w") is False and table._locks == {}


def test_release_of_an_unheld_key_raises_and_materialises_nothing():
    sim = Simulator()
    table = LockTable(sim)
    with pytest.raises(LockError):
        table.release("ghost", "nobody")
    assert table._locks == {}


def test_lock_with_a_queued_waiter_survives_the_holders_release():
    sim = Simulator()
    table = LockTable(sim)
    order = []

    def first():
        yield from table.acquire_write_all(["k"], "a", timeout=None)
        lock = table.lock_for("k")
        yield sim.timeout(1e-3)
        assert lock.queue_length == 1
        table.release("k", "a")
        # The waiter was granted on this very lock object, not a fresh one.
        assert table._locks["k"] is lock and lock.held_by("b") == "w"

    def second():
        yield sim.timeout(1e-4)
        ok = yield from table.acquire_write_all(["k"], "b", timeout=None)
        order.append(ok)
        table.release("k", "b")

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert order == [True] and table._locks == {}


def test_second_reader_keeps_the_lock_alive():
    sim = Simulator()
    table = LockTable(sim)

    def proc():
        yield table.acquire_read("k", owner="r1", timeout=None)
        yield table.acquire_read("k", owner="r2", timeout=None)
        lock = table._locks["k"]
        table.release("k", "r1")
        assert table._locks.get("k") is lock and lock.held_by("r2") == "r"
        table.release("k", "r2")

    sim.run_process(proc())
    assert table._locks == {}


def test_reentrant_holder_is_dropped_only_at_count_zero():
    sim = Simulator()
    table = LockTable(sim)

    def proc():
        yield from table.acquire_write_all(["k"], "t", timeout=None)
        yield from table.acquire_write_all(["k"], "t", timeout=None)  # count 2
        table.release("k", "t")  # 2 -> 1
        assert table.write_held("k") and "k" in table._locks
        table.release("k", "t")  # 1 -> 0

    sim.run_process(proc())
    assert table._locks == {}


def test_timed_out_waiter_behind_a_live_holder_does_not_drop_the_lock():
    sim = Simulator()
    table = LockTable(sim)
    result = {}

    def holder():
        yield from table.acquire_write_all(["k"], "holder", timeout=None)
        yield sim.timeout(5e-3)
        table.release("k", "holder")

    def waiter():
        result["ok"] = yield from table.acquire_write_all(
            ["k"], "waiter", timeout=1e-3
        )
        # Timed out at 1 ms: the holder's lock must still be in the table.
        result["held"] = table.write_held("k")
        result["queue"] = table.lock_for("k").queue_length

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert result == {"ok": False, "held": True, "queue": 0}
    assert table._locks == {}


def test_acquire_after_reclamation_yields_a_working_lock():
    sim = Simulator()
    table = LockTable(sim)
    granted_at = []

    def cycle(owner, start, hold):
        yield sim.timeout(start)
        ok = yield from table.acquire_write_all(["k"], owner, timeout=None)
        assert ok
        granted_at.append((owner, sim.now))
        yield sim.timeout(hold)
        table.release("k", owner)

    sim.spawn(cycle("a", 0.0, 1e-3))      # reclaimed at 1 ms
    sim.spawn(cycle("b", 2e-3, 2e-3))     # fresh lock, held 2..4 ms
    sim.spawn(cycle("c", 3e-3, 1e-3))     # must wait for b on the new lock
    sim.run()
    assert granted_at == [("a", 0.0), ("b", 2e-3), ("c", 4e-3)]
    assert table._locks == {}


def test_ten_thousand_cycles_over_distinct_keys_leave_the_table_empty():
    sim = Simulator()
    table = LockTable(sim)
    peak = {"size": 0}

    def proc():
        for index in range(10_000):
            keys = (f"k{index}", f"j{index}")
            ok = yield from table.acquire_write_all(keys, index, timeout=1e-3)
            assert ok
            granted = yield table.acquire_read(("r", index), owner=index, timeout=None)
            assert granted
            peak["size"] = max(peak["size"], len(table._locks))
            table.release(("r", index), index)
            table.release_write_all(keys, index)

    sim.run_process(proc())
    assert peak["size"] == 3
    assert len(table._locks) == 0


# ----------------------------------------------------------------------
# A table used as a line (FW-KV's hand-over of a contended key)
# ----------------------------------------------------------------------
def test_places_are_granted_in_arrival_order_one_at_a_time():
    sim = Simulator()
    line = LockTable(sim)
    served = []

    def stand(owner, hold):
        granted = yield line.take_place("k", owner, None)
        assert granted
        # At most one holder, and the key is spoken for to everyone else.
        assert line.lock_for("k").held_by(owner) == "w"
        assert not line.spoken_for("k", owner)
        assert line.spoken_for("k", "someone-else")
        served.append((owner, sim.now))
        yield sim.timeout(hold)
        assert line.leave(["j", "k"], owner)

    for owner in ("first", "second", "third"):
        sim.spawn(stand(owner, 1e-3))
    sim.run()
    assert [owner for owner, _at in served] == ["first", "second", "third"]
    assert [at for _owner, at in served] == pytest.approx([0.0, 1e-3, 2e-3])
    # Reclaimed when idle, like any other lock of the table.
    assert line._locks == {}
    assert not line.spoken_for("k", "anyone")


def test_a_transaction_holding_or_awaiting_a_place_takes_no_second_one():
    sim = Simulator()
    line = LockTable(sim)
    assert line.take_place("k", "head", None).value is True
    assert line.take_place("k", "head", None) is None  # holding
    waiting = line.take_place("k", "next", None)
    assert not waiting.triggered
    assert line.take_place("k", "next", None) is None  # still waiting
    assert line.lock_for("k").queue_length == 1
    # One leave hands over: the holder's count never went past one.
    assert line.leave(["k"], "head")
    sim.run()
    assert waiting.value is True
    assert not line.leave(["k"], "head")  # nothing left to give up
    assert line.leave(["k"], "next")
    assert not line.any_locked() and line._locks == {}


def test_a_waiter_that_gives_up_leaves_no_ghost_in_the_queue():
    sim = Simulator()
    line = LockTable(sim)
    assert line.take_place("k", "head", None).value is True
    outcome = []

    def waiter():
        outcome.append((yield line.take_place("k", "late", 1e-3)))
        outcome.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert outcome == [False, 1e-3]
    assert line.lock_for("k").queue_length == 0
    assert not line.leave(["k"], "late")
    # It may ask again, and is then next.
    again = line.take_place("k", "late", None)
    assert again is not None and not again.triggered
    assert line.leave(["k"], "head")
    sim.run()
    assert again.value is True

"""Unit tests for simulated mutexes and readers/writer locks."""

import pytest

from repro.sim import RWLock, Simulator
from repro.sim.locks import LockError


def test_rwlock_writer_blocks_a_second_writer_until_release():
    sim = Simulator()
    lock = RWLock(sim)
    order = []

    def first():
        yield lock.acquire_write("t1")
        order.append(("t1-acquired", sim.now))
        yield sim.timeout(5.0)
        lock.release("t1")

    def second():
        yield sim.timeout(1.0)
        granted = yield lock.acquire_write("t2")
        order.append(("t2-acquired", sim.now, granted))
        lock.release("t2")

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert order == [("t1-acquired", 0.0), ("t2-acquired", 5.0, True)]


def test_rwlock_write_is_reentrant_for_its_owner():
    sim = Simulator()
    lock = RWLock(sim)

    def proc():
        yield lock.acquire_write("t1")
        granted = yield lock.acquire_write("t1")
        assert lock.release("t1") is False  # one hold left
        assert lock.held_by("t1") == "w"
        lock.release("t1")
        return granted

    assert sim.run_process(proc()) is True
    assert not lock.is_locked


def test_rwlock_release_without_hold_is_an_error():
    with pytest.raises(LockError):
        RWLock(Simulator()).release("ghost")


def test_rwlock_readers_share():
    sim = Simulator()
    lock = RWLock(sim)

    def proc():
        first = yield lock.acquire_read("r1")
        second = yield lock.acquire_read("r2")
        return first, second

    assert sim.run_process(proc()) == (True, True)
    assert lock.held_by("r1") == "r"
    assert lock.held_by("r2") == "r"


def test_rwlock_writer_excludes_readers():
    sim = Simulator()
    lock = RWLock(sim)
    order = []

    def writer():
        yield lock.acquire_write("w")
        order.append(("w", sim.now))
        yield sim.timeout(3.0)
        lock.release("w")

    def reader():
        yield sim.timeout(1.0)
        yield lock.acquire_read("r")
        order.append(("r", sim.now))
        lock.release("r")

    sim.spawn(writer())
    sim.spawn(reader())
    sim.run()
    assert order == [("w", 0.0), ("r", 3.0)]


def test_rwlock_fifo_prevents_writer_starvation():
    """A read queued behind a write waits even while other reads hold."""
    sim = Simulator()
    lock = RWLock(sim)
    order = []

    def early_reader():
        yield lock.acquire_read("r1")
        order.append(("r1", sim.now))
        yield sim.timeout(4.0)
        lock.release("r1")

    def writer():
        yield sim.timeout(1.0)
        yield lock.acquire_write("w")
        order.append(("w", sim.now))
        yield sim.timeout(2.0)
        lock.release("w")

    def late_reader():
        yield sim.timeout(2.0)
        yield lock.acquire_read("r2")
        order.append(("r2", sim.now))
        lock.release("r2")

    sim.spawn(early_reader())
    sim.spawn(writer())
    sim.spawn(late_reader())
    sim.run()
    assert order == [("r1", 0.0), ("w", 4.0), ("r2", 6.0)]


def test_rwlock_upgrade_attempt_rejected():
    sim = Simulator()
    lock = RWLock(sim)

    def proc():
        yield lock.acquire_read("t")
        yield lock.acquire_write("t")

    with pytest.raises(LockError):
        sim.run_process(proc())


def test_rwlock_timeout_of_queued_writer_unblocks_readers():
    sim = Simulator()
    lock = RWLock(sim)
    order = []

    def holder():
        yield lock.acquire_read("r1")
        yield sim.timeout(10.0)
        lock.release("r1")

    def impatient_writer():
        yield sim.timeout(1.0)
        granted = yield lock.acquire_write("w", timeout=2.0)
        order.append(("w", granted, sim.now))

    def queued_reader():
        yield sim.timeout(2.0)
        granted = yield lock.acquire_read("r2")
        order.append(("r2", granted, sim.now))
        lock.release("r2")

    sim.spawn(holder())
    sim.spawn(impatient_writer())
    sim.spawn(queued_reader())
    sim.run()
    # Writer times out at t=3; the reader queued behind it is then granted.
    assert order == [("w", False, 3.0), ("r2", True, 3.0)]


def test_rwlock_queue_length_reporting():
    sim = Simulator()
    lock = RWLock(sim)

    def holder():
        yield lock.acquire_write("w1")
        yield sim.timeout(5.0)
        lock.release("w1")

    def waiter(name):
        yield sim.timeout(1.0)
        yield lock.acquire_write(name)
        lock.release(name)

    sim.spawn(holder())
    sim.spawn(waiter("w2"))
    sim.spawn(waiter("w3"))
    sim.run(until=2.0)
    assert lock.queue_length == 2
    sim.run()
    assert lock.queue_length == 0
    assert not lock.is_locked


# ----------------------------------------------------------------------
# The uncontended fast path (PR 21)
# ----------------------------------------------------------------------
def test_uncontended_acquire_never_touches_the_wait_queue(monkeypatch):
    """An acquire that meets an empty queue and a compatible mode is
    granted at once -- what ``_drain`` would decide for it -- without a
    ``_Request`` or a queue round trip."""
    import repro.sim.locks as locks

    made = []
    real = locks._Request

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(locks, "_Request", counting)
    sim = Simulator()
    lock = RWLock(sim)
    for owner in ("r1", "r2"):
        event = lock.acquire_read(owner)
        assert event.triggered and event.value is True
        assert lock.queue_length == 0
    assert not lock.write_held
    lock.release("r1")
    assert lock.release("r2") is True  # idle: a table may reclaim it
    event = lock.acquire_write("w1", timeout=1.0)
    assert event.triggered and event.value is True
    assert lock.write_held and lock.queue_length == 0
    assert made == []
    assert sim.pending_count == 0  # no timeout was armed either
    # Contended: the request object and the queue are still the path.
    blocked = lock.acquire_read("r3")
    assert not blocked.triggered and lock.queue_length == 1
    assert len(made) == 1


def test_reader_behind_a_queued_writer_still_waits_for_it():
    """FIFO fairness is untouched by the fast path: the mode is
    compatible with the holders, but the queue is not empty."""
    sim = Simulator()
    lock = RWLock(sim)
    order = []

    def reader(name, hold):
        yield lock.acquire_read(name)
        order.append((name, sim.now))
        yield sim.timeout(hold)
        lock.release(name)

    def writer():
        yield sim.timeout(1.0)
        yield lock.acquire_write("w")
        order.append(("w", sim.now))
        yield sim.timeout(1.0)
        lock.release("w")

    def late_reader():
        yield sim.timeout(2.0)
        assert lock.held_by("r1") == "r" and lock.queue_length == 1
        yield from reader("r2", 0.0)

    sim.spawn(reader("r1", 5.0))
    sim.spawn(writer())
    sim.spawn(late_reader())
    sim.run()
    assert order == [("r1", 0.0), ("w", 5.0), ("r2", 6.0)]


def test_an_uncontended_acquire_returns_the_shared_granted_event():
    sim = Simulator()
    lock, other = RWLock(sim), RWLock(sim)
    granted = lock.acquire_write("t1")
    assert granted is sim.granted and granted.triggered and granted.value is True
    assert lock.acquire_write("t1") is granted, "a reentrant hold too"
    assert other.acquire_read("t2") is granted, "one per simulator"
    with pytest.raises(RuntimeError):
        granted.succeed(False)
    assert granted.value is True
    woken = []
    granted.add_callback(woken.append)
    sim.run()
    assert woken == [granted]
    # Contended: a fresh event, queued until the holder lets go.
    waiting = lock.acquire_write("t3")
    assert waiting is not granted and not waiting.triggered
    lock.release("t1")
    lock.release("t1")
    assert waiting.triggered and waiting.value is True
    assert lock.acquire_read("t4", timeout=1.0) is not sim.granted

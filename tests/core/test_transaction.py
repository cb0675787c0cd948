"""Unit tests for the transaction descriptor."""

from repro.core import Transaction, TransactionStatus


def make(ro=False):
    return Transaction(7, 1, 4, is_read_only=ro, start_time=1.5, profile="p")


def test_fresh_transaction_state():
    txn = make()
    assert txn.status is TransactionStatus.ACTIVE
    assert txn.vc.to_tuple() == (0, 0, 0, 0)
    assert txn.has_read == [False] * 4
    assert not txn.first_read_done
    assert txn.is_update
    assert txn.seq_no is None and txn.commit_vc is None
    assert txn.start_time == 1.5 and txn.end_time is None
    assert txn.profile == "p"


def test_first_read_done_tracks_has_read():
    txn = make()
    txn.has_read[2] = True
    assert txn.first_read_done


def test_buffered_write_distinguishes_none_values():
    txn = make()
    assert txn.buffered_write("x") == (False, None)
    txn.writeset["x"] = None
    assert txn.buffered_write("x") == (True, None)
    txn.writeset["y"] = 5
    assert txn.buffered_write("y") == (True, 5)


def test_lifecycle_marks():
    txn = make()
    txn.mark_committed(3.0)
    assert txn.status is TransactionStatus.COMMITTED
    assert txn.end_time == 3.0

    other = make()
    other.mark_aborted(4.0)
    assert other.status is TransactionStatus.ABORTED


def test_read_only_flag_and_repr():
    ro = make(ro=True)
    assert ro.is_read_only and not ro.is_update
    assert "ro" in repr(ro)
    up = make(ro=False)
    assert "up" in repr(up)

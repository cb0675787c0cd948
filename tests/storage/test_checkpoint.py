"""WAL checkpointing: snapshot round-trips, truncation, replay equivalence.

The contract under test is the one recovery rests on: a log truncated to
its newest checkpoint replays to state bit-identical to the full
history, while consuming only the suffix.  Plus the guard rails --
fingerprint verification fails loudly on a corrupted snapshot, and a
frozen (mid-crash) log refuses to truncate.
"""

import dataclasses

import pytest

from repro.core.vector_clock import VectorClock
from repro.storage.store import MultiVersionStore
from repro.storage.wal import (
    AbortRecord, ApplyRecord, CheckpointMismatchError, CheckpointRecord,
    DecisionRecord, LoadRecord, PrepareRecord, PropagateRecord, WriteAheadLog,
    build_checkpoint, replay, restore_store, store_fingerprint,
)

N = 4


def apply_rec(txn_id, origin, seq, writes):
    commit_vc = tuple(seq if i == origin else 0 for i in range(N))
    return ApplyRecord(txn_id, origin, seq, commit_vc, tuple(writes))


def history():
    """A representative record stream: loads, applies from two origins,
    clock-only propagates, a coordinator decision, and an in-doubt
    prepare that stays open."""
    return [
        LoadRecord.of((("x", 0), ("y", 0), ("z", 0))),
        apply_rec(100, 1, 1, [("x", 10)]),
        PropagateRecord(2, 1),
        apply_rec(101, 1, 2, [("x", 11), ("y", 12)]),
        DecisionRecord(102, 1, (0, 1, 0, 0)),
        PrepareRecord(103, 3, (("z", 30),)),
        AbortRecord(103),
        apply_rec(104, 2, 2, [("z", 20)]),
        PrepareRecord(105, 3, (("y", 40),)),  # stays in doubt
        PropagateRecord(1, 3),
    ]


def checkpoint_of(result, records_below):
    """Snapshot a replay result the way CheckpointManager does."""
    return build_checkpoint(
        result.store.snapshots(),
        result.site_vc,
        result.curr_seq_no,
        in_doubt=result.in_doubt.values(),
        decisions=result.decisions.values(),
        records_below=records_below,
    )


# ----------------------------------------------------------------------
# Snapshot round-trip
# ----------------------------------------------------------------------
def test_build_restore_round_trip():
    result = replay(history(), N)
    record = checkpoint_of(result, records_below=len(history()))
    restored = restore_store(record)
    assert store_fingerprint(restored) == store_fingerprint(result.store)
    assert record.site_vc == result.site_vc.to_tuple()
    assert record.curr_seq_no == result.curr_seq_no
    assert {p.txn_id for p in record.in_doubt} == set(result.in_doubt)
    assert {d.txn_id for d in record.decisions} == set(result.decisions)


def test_round_trip_preserves_gc_advanced_base_vid():
    """A chain whose prefix was garbage-collected keeps its vid offsets."""
    store = MultiVersionStore()
    vc = VectorClock.zeros(N)
    store.create("x", 0, vc.copy())
    for seq in (1, 2, 3):
        tick = vc.copy()
        tick[1] = seq
        store.install("x", seq * 10, tick, origin=1, seq=seq, writer_txn=seq)
    assert store.chain("x").collect_garbage(2, min_age=0.0, now=1.0) == 2
    record = build_checkpoint(store.snapshots(), VectorClock((0, 3, 0, 0)), 0)
    restored = restore_store(record)
    assert store_fingerprint(restored) == store_fingerprint(store)
    assert [v.vid for v in restored.chain("x")] == [2, 3]


def test_corrupted_checkpoint_fails_loudly():
    result = replay(history(), N)
    record = checkpoint_of(result, records_below=len(history()))
    tampered = dataclasses.replace(record, curr_seq_no=record.curr_seq_no + 1)
    with pytest.raises(CheckpointMismatchError):
        restore_store(tampered)
    forged = dataclasses.replace(record, fingerprint="0" * 64)
    with pytest.raises(CheckpointMismatchError):
        restore_store(forged)


# ----------------------------------------------------------------------
# Truncation mechanics
# ----------------------------------------------------------------------
def make_wal(records):
    wal = WriteAheadLog()
    for record in records:
        wal.append(record)
    return wal


def test_truncate_without_checkpoint_is_noop():
    wal = make_wal(history())
    assert wal.truncate_to_checkpoint() == 0
    assert len(wal) == len(history())
    assert wal.truncated == 0


def test_truncate_keeps_checkpoint_and_suffix():
    prefix = history()
    checkpoint = checkpoint_of(replay(prefix, N), records_below=len(prefix))
    suffix = [apply_rec(106, 1, 4, [("x", 13)]), PropagateRecord(2, 3)]
    wal = make_wal(prefix + [checkpoint] + suffix)
    dropped = wal.truncate_to_checkpoint()
    assert dropped == len(prefix)
    assert wal.truncated == len(prefix)
    assert wal.records() == tuple([checkpoint] + suffix)
    # Logical length (appends ever) survives the physical shift.
    assert len(wal) + wal.truncated == len(prefix) + 1 + len(suffix)
    # Idempotent: the checkpoint is already the first record.
    assert wal.truncate_to_checkpoint() == 0


def test_truncate_uses_newest_checkpoint():
    prefix = history()
    first = checkpoint_of(replay(prefix, N), records_below=len(prefix))
    middle = [apply_rec(106, 1, 4, [("x", 13)])]
    second_input = prefix + [first] + middle
    second = checkpoint_of(
        replay(second_input, N), records_below=len(second_input)
    )
    wal = make_wal(second_input + [second, PropagateRecord(2, 3)])
    dropped = wal.truncate_to_checkpoint()
    assert dropped == len(second_input)
    assert isinstance(wal.records()[0], CheckpointRecord)
    assert wal.records()[0] is second


def test_frozen_wal_refuses_truncation():
    prefix = history()
    checkpoint = checkpoint_of(replay(prefix, N), records_below=len(prefix))
    wal = make_wal(prefix + [checkpoint])
    wal.freeze()
    assert wal.truncate_to_checkpoint() == 0
    assert len(wal) == len(prefix) + 1
    wal.unfreeze()
    assert wal.truncate_to_checkpoint() == len(prefix)


# ----------------------------------------------------------------------
# Replay equivalence: truncated log == full history
# ----------------------------------------------------------------------
def suffix_records():
    return [
        apply_rec(106, 1, 4, [("x", 13)]),
        PropagateRecord(2, 3),
        DecisionRecord(107, 2, (0, 2, 0, 0)),
        apply_rec(105, 3, 1, [("y", 40)]),  # resolves the in-doubt prepare
        PrepareRecord(108, 2, (("z", 50),)),
    ]


def assert_equivalent(full, truncated):
    assert store_fingerprint(truncated.store) == store_fingerprint(full.store)
    assert truncated.site_vc.to_tuple() == full.site_vc.to_tuple()
    assert truncated.curr_seq_no == full.curr_seq_no
    assert set(truncated.in_doubt) == set(full.in_doubt)
    assert set(truncated.decisions) == set(full.decisions)


def test_checkpointed_replay_equals_full_history():
    prefix = history()
    checkpoint = checkpoint_of(replay(prefix, N), records_below=len(prefix))
    suffix = suffix_records()

    full = replay(prefix + [checkpoint] + suffix, N)
    truncated = replay([checkpoint] + suffix, N)
    assert_equivalent(full, truncated)
    # In-doubt state flows through the snapshot: the prepare captured in
    # doubt was resolved by the suffix, the new one is open.
    assert set(truncated.in_doubt) == {108}

    # Bounded replay: the truncated log consumes only checkpoint+suffix.
    assert full.replayed == len(prefix) + 1 + len(suffix)
    assert truncated.replayed == 1 + len(suffix)
    assert full.checkpoints == truncated.checkpoints == 1


def test_replay_after_a_checkpoint_skips_what_its_snapshot_covers():
    """Clock records the snapshot clock covers, duplicated after the
    checkpoint around a crash instant, are skipped, not re-installed."""
    prefix = history()
    checkpoint = checkpoint_of(replay(prefix, N), records_below=len(prefix))
    again = [prefix[1], prefix[2], prefix[-1]]  # x=10 (1, 1), (2, 1), (1, 3)
    full = replay([checkpoint] + suffix_records(), N)
    assert_equivalent(full, replay([checkpoint] + again + suffix_records(), N))


def test_chained_checkpoints_replay_from_newest():
    prefix = history()
    first = checkpoint_of(replay(prefix, N), records_below=len(prefix))
    middle = suffix_records()
    second_input = prefix + [first] + middle
    second = checkpoint_of(
        replay(second_input, N), records_below=len(second_input)
    )
    tail = [apply_rec(109, 1, 5, [("y", 41)])]

    full = replay(second_input + [second] + tail, N)
    truncated = replay([second] + tail, N)
    assert_equivalent(full, truncated)
    assert truncated.replayed == 1 + len(tail)
    assert full.checkpoints == 2 and truncated.checkpoints == 1

"""Unit tests for the write-ahead log and durable-state replay."""

import gc

import pytest

from repro import Cluster, ClusterConfig, DurabilityConfig
from repro.core.vector_clock import VectorClock
from repro.storage import MultiVersionStore
from repro.storage.wal import (
    AbortRecord, ApplyRecord, CheckpointRecord, DecisionRecord, LoadRecord,
    PrepareRecord, PropagateRecord, WriteAheadLog, replay, store_fingerprint,
    version_set_fingerprint,
)

N = 4


def apply_rec(txn_id, origin, seq, writes, vc=None):
    commit_vc = vc if vc is not None else tuple(
        seq if i == origin else 0 for i in range(N)
    )
    return ApplyRecord(txn_id, origin, seq, commit_vc, tuple(writes))


# ----------------------------------------------------------------------
# The log itself
# ----------------------------------------------------------------------
def test_append_and_snapshot():
    wal = WriteAheadLog()
    records = [LoadRecord.of((("x", 0),)), PropagateRecord(1, 1)]
    for record in records:
        wal.append(record)
    assert len(wal) == 2
    assert wal.records() == tuple(records)
    # The snapshot is stable: later appends do not mutate it.
    snapshot = wal.records()
    wal.append(PropagateRecord(1, 2))
    assert snapshot == tuple(records)


def test_freeze_discards_and_counts():
    wal = WriteAheadLog()
    wal.append(PropagateRecord(0, 1))
    wal.freeze()
    assert wal.frozen
    wal.append(PropagateRecord(0, 2))
    wal.append(AbortRecord(7))
    assert wal.discarded == 2
    assert len(wal) == 1
    wal.unfreeze()
    wal.append(PropagateRecord(0, 2))
    assert len(wal) == 2
    assert wal.discarded == 2


# ----------------------------------------------------------------------
# Replay: store and clock rebuild
# ----------------------------------------------------------------------
def test_replay_rebuilds_store_and_clock():
    records = [
        LoadRecord.of((("x", 0), ("y", 0))),
        apply_rec(100, 1, 1, [("x", 10)]),
        PropagateRecord(2, 1),
        apply_rec(101, 1, 2, [("x", 11), ("y", 12)]),
    ]
    result = replay(records, N)
    assert result.replayed == len(records)
    assert result.site_vc.to_tuple() == (0, 2, 1, 0)
    x_chain = list(result.store.chain("x"))
    assert [v.value for v in x_chain] == [0, 10, 11]
    assert x_chain[-1].origin == 1 and x_chain[-1].seq == 2
    assert x_chain[-1].writer_txn == 101
    assert [v.value for v in result.store.chain("y")] == [0, 12]
    assert not result.in_doubt


def test_replay_in_doubt_extraction():
    prepare = PrepareRecord(200, coordinator=3, writes=(("x", 5),))
    # A prepare with no matching apply/abort is in doubt; one resolved
    # either way is not.
    records = [
        LoadRecord.of((("x", 0),)),
        prepare,
        PrepareRecord(201, 3, (("x", 6),)),
        AbortRecord(201),
        PrepareRecord(202, 2, (("x", 7),)),
        apply_rec(202, 2, 1, [("x", 7)]),
    ]
    result = replay(records, N)
    assert result.in_doubt == {200: prepare}


def test_replay_decisions_and_curr_seq_no():
    records = [
        DecisionRecord(300, 1, (1, 0, 0, 0)),
        DecisionRecord(301, 2, (2, 0, 0, 0)),
    ]
    result = replay(records, N)
    assert set(result.decisions) == {300, 301}
    assert result.decisions[301].seq_no == 2
    assert result.curr_seq_no == 2


def test_replay_raises_on_a_per_origin_gap():
    """The live applier logs each origin in sequence order and a crash
    loses only a suffix: a record past the next expected seq is a
    malformed log, named by its origin and seq."""
    for gapped in (apply_rec(100, 1, 3, [("x", 3)]), PropagateRecord(1, 4)):
        records = [LoadRecord.of((("x", 0),)), PropagateRecord(1, 1), gapped]
        with pytest.raises(ValueError, match=f"origin 1 seq {gapped.seq_no} follows seq 1"):
            replay(records, N)


def test_replay_skips_duplicates():
    records = [
        LoadRecord.of((("x", 0),)),
        apply_rec(100, 1, 1, [("x", 1)]),
        apply_rec(100, 1, 1, [("x", 1)]),  # duplicated suffix
        PropagateRecord(1, 1),  # stale clock-only duplicate
    ]
    result = replay(records, N)
    assert result.site_vc[1] == 1
    assert [v.value for v in result.store.chain("x")] == [0, 1]


def test_replay_rejects_unknown_record():
    with pytest.raises(TypeError):
        replay([object()], N)


PAIRS = tuple((f"k{i}", i) for i in range(6))
WAL_ON = ClusterConfig(num_nodes=3, durability=DurabilityConfig(wal_enabled=True))


def test_columnar_load_record_replays_to_the_store_its_pairs_build():
    record = LoadRecord.of(PAIRS)
    assert (record.keys, record.values) == tuple(zip(*PAIRS))
    built = MultiVersionStore()
    built.create_many(PAIRS, VectorClock.zero(N))
    assert list(replay([record], N).store.snapshots()) == list(built.snapshots())


def test_wal_node_load_records_hold_no_per_item_tuple():
    cluster = Cluster("fwkv", WAL_ON)
    cluster.load_many(PAIRS)
    records = [record for node in cluster.nodes for record in node.wal.records()]
    assert sorted(key for record in records for key in record.keys) == [
        key for key, _ in PAIRS]
    for record in records:
        columns = [ref for ref in gc.get_referents(record) if isinstance(ref, tuple)]
        assert columns == [record.keys, record.values]
        assert not any(isinstance(item, tuple)
                       for column in columns for item in gc.get_referents(column))


def test_wal_node_loads_nothing_without_crashing():
    node = Cluster("fwkv", WAL_ON).nodes[0]
    assert node.load_many([]) == 0
    assert node.wal.records() == (LoadRecord((), ()),)
    assert len(replay(node.wal.records(), 3).store) == 0


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_store_fingerprint_detects_divergence():
    base = [LoadRecord.of((("x", 0),)), apply_rec(100, 1, 1, [("x", 1)])]
    a = replay(base, N).store
    b = replay(base, N).store
    assert store_fingerprint(a) == store_fingerprint(b)
    c = replay(base + [apply_rec(101, 1, 2, [("x", 2)])], N).store
    assert store_fingerprint(a) != store_fingerprint(c)


def test_version_set_fingerprint_is_vid_agnostic():
    # Two independent origins writing different keys may interleave
    # differently across replays; the version-set digest is invariant.
    load = LoadRecord.of((("x", 0), ("y", 0)))
    ab = [load, apply_rec(1, 1, 1, [("x", 1)]), apply_rec(2, 2, 1, [("y", 2)])]
    ba = [load, apply_rec(2, 2, 1, [("y", 2)]), apply_rec(1, 1, 1, [("x", 1)])]
    assert version_set_fingerprint(replay(ab, N).store) == (
        version_set_fingerprint(replay(ba, N).store)
    )


def test_replay_commit_vc_preserved():
    vc = (3, 1, 0, 2)
    result = replay([
        LoadRecord.of((("x", 0),)), PropagateRecord(0, 1), PropagateRecord(0, 2),
        apply_rec(100, 0, 3, [("x", 9)], vc=vc),
    ], N)
    latest = result.store.chain("x").latest
    assert latest.vc.to_tuple() == vc
    assert latest.vc == VectorClock(vc)


# ----------------------------------------------------------------------
# Buffered mode (group commit)
# ----------------------------------------------------------------------
def checkpoint_rec():
    return CheckpointRecord(
        site_vc=(0,) * N,
        curr_seq_no=0,
        chains=(),
        in_doubt=(),
        decisions=(),
        fingerprint="test",
    )


def test_buffered_append_is_not_durable_until_marked():
    wal = WriteAheadLog(buffered=True)
    lsn1 = wal.append(PropagateRecord(0, 1))
    lsn2 = wal.append(PropagateRecord(0, 2))
    assert (lsn1, lsn2) == (1, 2)
    assert wal.tail_lsn == 2 and wal.durable_lsn == 0
    assert not wal.is_durable(lsn1)
    assert wal.mark_durable(lsn2) == 2
    assert wal.durable_lsn == 2 and wal.is_durable(lsn2)
    assert wal.syncs == 1 and wal.records_synced == 2


def test_unbuffered_appends_are_instantly_durable():
    wal = WriteAheadLog()
    lsn = wal.append(PropagateRecord(0, 1))
    assert wal.is_durable(lsn) and wal.durable_lsn == wal.tail_lsn
    # mark_durable is a no-op outside buffered mode.
    assert wal.mark_durable(lsn) == 0
    assert wal.syncs == 0


def test_mark_durable_clamps_to_tail_and_never_regresses():
    wal = WriteAheadLog(buffered=True)
    wal.append(PropagateRecord(0, 1))
    assert wal.mark_durable(99) == 1  # clamped to the tail
    assert wal.durable_lsn == 1
    assert wal.mark_durable(1) == 0  # already durable: no new records
    assert wal.durable_lsn == 1


def test_append_durable_skips_the_sync_queue():
    wal = WriteAheadLog(buffered=True)
    requested = []
    wal.on_append = requested.append
    lsn = wal.append_durable(LoadRecord.of((("x", 0),)))
    assert wal.is_durable(lsn)
    assert requested == []  # setup loads never ask for a sync


def test_on_append_hook_sees_every_lsn():
    wal = WriteAheadLog(buffered=True)
    seen = []
    wal.on_append = seen.append
    wal.append(PropagateRecord(0, 1))
    wal.append(PropagateRecord(0, 2))
    assert seen == [1, 2]


def test_freeze_drops_exactly_the_unsynced_suffix():
    wal = WriteAheadLog(buffered=True)
    survivor = PropagateRecord(0, 1)
    wal.append(survivor)
    wal.mark_durable(1)
    wal.append(PropagateRecord(0, 2))
    wal.append(PropagateRecord(0, 3))
    wal.freeze()
    assert wal.lost_on_crash == 2
    assert wal.records() == (survivor,)
    assert wal.tail_lsn == 1 and wal.durable_lsn == 1
    # Replay after recovery sees only the durable prefix.
    wal.unfreeze()
    lsn = wal.append(PropagateRecord(0, 2))
    assert lsn == 2  # LSNs continue from the surviving prefix


def test_freeze_with_everything_durable_loses_nothing():
    wal = WriteAheadLog(buffered=True)
    wal.append(PropagateRecord(0, 1))
    wal.mark_durable(wal.tail_lsn)
    wal.freeze()
    assert wal.lost_on_crash == 0
    assert len(wal) == 1


def test_truncation_waits_for_a_durable_checkpoint():
    wal = WriteAheadLog(buffered=True)
    wal.append(PropagateRecord(0, 1))
    wal.mark_durable(1)
    wal.append(checkpoint_rec())
    # The checkpoint record itself is still volatile: refuse to truncate.
    assert wal.truncate_to_checkpoint() == 0
    assert wal.truncated == 0
    wal.mark_durable(wal.tail_lsn)
    assert wal.truncate_to_checkpoint() == 1
    assert wal.truncated == 1
    assert isinstance(wal.records()[0], CheckpointRecord)


def test_lsns_are_absolute_across_truncation():
    wal = WriteAheadLog(buffered=True)
    wal.append(PropagateRecord(0, 1))
    wal.append(checkpoint_rec())
    wal.mark_durable(wal.tail_lsn)
    assert wal.truncate_to_checkpoint() == 1
    lsn = wal.append(PropagateRecord(0, 2))
    assert lsn == 3  # 2 pre-truncation records + this one
    assert wal.tail_lsn == 3
    assert wal.durable_lsn == 2
    assert wal.mark_durable(3) == 1


def test_a_refused_load_leaves_the_store_and_the_log_as_they_were():
    """Check, insert, log: a held or repeated key refuses the whole load,
    so the node still replays."""
    node = Cluster("fwkv", WAL_ON).nodes[0]
    node.load_many([("a", 1)])
    store, log = list(node.store.snapshots()), node.wal.records()
    for refused in ([("z1", 0), ("a", 9)], [("z2", 0), ("z2", 1)]):
        with pytest.raises(KeyError):
            node.load_many(refused)
        assert list(node.store.snapshots()) == store and node.wal.records() == log
    assert list(replay(node.wal.records(), 3).store.snapshots()) == store

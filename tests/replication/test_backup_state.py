"""One interpreter for the backup stream: live apply == WAL replay.

``BackupState.apply`` is called by the live REPLICATE handler and by
``storage.wal.replay``; a backup that restarts from its log must come
back with exactly the stream state and chains it had.  The property
drives random record sequences through the real handler -- in shuffled,
overlapping batches, so the reorder buffer and duplicate suppression
are on the path -- then replays the backup's log and compares.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Cluster,
    ClusterConfig,
    DurabilityConfig,
    ReplicationConfig,
    ShardingConfig,
)
from repro.core.wire import ReplicateBody, ReplicationEntry
from repro.net.message import MessageType
from repro.storage.wal import ReplicationRecord, replay, store_fingerprint

pytestmark = pytest.mark.replication

PRIMARY, BACKUP = 0, 1
KEYS = ("a", "b", "c")

txn_ids = st.integers(1, 4)
writes = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(0, 9)),
    max_size=2, unique_by=lambda kv: kv[0],
).map(tuple)
clocks = st.tuples(st.integers(0, 9), st.integers(0, 9))


def entry(kind, **fields):
    return st.builds(dict, kind=st.just(kind), **fields)


payloads = st.one_of(
    entry("prepare", txn_id=txn_ids, coordinator=st.integers(0, 1),
          writes=writes, round=st.integers(0, 1)),
    entry("abort", txn_id=txn_ids, writes=writes, round=st.integers(0, 1)),
    entry("decision", txn_id=txn_ids, origin=st.just(PRIMARY),
          seq_no=st.integers(1, 9), commit_vc=clocks,
          collected=st.frozensets(st.integers(10, 12), max_size=2)),
    entry("apply", txn_id=txn_ids, origin=st.integers(0, 1),
          seq_no=st.integers(1, 9), commit_vc=clocks, writes=writes,
          frontier=clocks),
)


@st.composite
def batched_streams(draw):
    """A dense stream plus a delivery schedule of (possibly overlapping,
    possibly out-of-order) batches that covers every record."""
    entries = [
        ReplicationEntry(seq=seq, **fields)
        for seq, fields in enumerate(draw(st.lists(payloads, max_size=12)), 1)
    ]
    batches = [
        tuple(entries[start:start + size])
        for start in range(0, len(entries), 3)
        for size in (3, draw(st.integers(1, 5)))
    ]
    return entries, draw(st.permutations(batches))


@settings(max_examples=40, deadline=None)
@given(batched_streams())
def test_live_apply_and_wal_replay_rebuild_the_same_backup(stream):
    entries, batches = stream
    cluster = Cluster("fwkv", ClusterConfig(
        num_nodes=2,
        durability=DurabilityConfig(wal_enabled=True),
        sharding=ShardingConfig(enabled=True, num_shards=4),
        replication=ReplicationConfig(enabled=True, replication_factor=2),
    ))
    for key in KEYS:
        cluster.load(key, 0)
    backup = cluster.nodes[BACKUP]
    primary = cluster.nodes[PRIMARY].node
    for batch in batches:
        primary.send(
            BACKUP, MessageType.REPLICATE, ReplicateBody(PRIMARY, 0, 0, batch)
        )
        cluster.run()

    live = backup.replication.backup_state.get(PRIMARY)
    logged = [
        record.entry for record in backup.wal.records()
        if isinstance(record, ReplicationRecord)
    ]
    assert logged == entries  # each record applied, and logged, once
    result = replay(backup.wal.records(), num_nodes=2)
    rebuilt = result.replication.get(PRIMARY)
    if not entries:
        assert rebuilt is None
        return
    assert live.applied == rebuilt.applied == len(entries)
    assert live.frontier == rebuilt.frontier
    assert live.staged == rebuilt.staged
    assert live.decisions == rebuilt.decisions
    assert store_fingerprint(result.store) == store_fingerprint(backup.store)

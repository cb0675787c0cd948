"""Property tests pinning down the WAL replay contract.

Replay must be *idempotent* (duplicated appends around a crash instant
are harmless) and *order-insensitive across origins* (any interleaving
of the per-origin streams rebuilds the same state).  The live applier
logs each origin in sequence order, so a gap in one origin's sequence is
a malformed log (``test_wal.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.wal import (
    AbortRecord, ApplyRecord, DecisionRecord, LoadRecord, PrepareRecord,
    PropagateRecord, replay, store_fingerprint, version_set_fingerprint,
)

N = 4
KEYS = tuple(f"k{i}" for i in range(4))
LOAD = LoadRecord.of(tuple((key, 0) for key in KEYS))


@st.composite
def clock_records(draw):
    """A valid per-origin-contiguous stream of clock-advancing records."""
    records = []
    seqs = {origin: 0 for origin in range(N)}
    txn_id = 1000
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        origin = draw(st.integers(min_value=0, max_value=N - 1))
        seqs[origin] += 1
        seq = seqs[origin]
        if draw(st.booleans()):
            txn_id += 1
            key = draw(st.sampled_from(KEYS))
            vc = tuple(seqs[o] if o == origin else 0 for o in range(N))
            records.append(
                ApplyRecord(txn_id, origin, seq, vc, ((key, seq * 10 + origin),))
            )
        else:
            records.append(PropagateRecord(origin, seq))
    return records


@given(clock_records(), st.data())
@settings(max_examples=200, deadline=None)
def test_replay_idempotent_under_duplication(records, data):
    """Appending duplicates of already-applied records changes nothing.

    Chains compare through the exhaustive fingerprint -- vids included --
    so a duplicate that slipped through would show up as an extra
    version, not just a clock wobble.
    """
    base = replay([LOAD] + records, N)
    duplicates = []
    if records:
        indexes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(records) - 1),
                max_size=8,
            )
        )
        duplicates = [records[i] for i in indexes]
    again = replay([LOAD] + records + duplicates, N)
    assert again.site_vc.to_tuple() == base.site_vc.to_tuple()
    assert store_fingerprint(again.store) == store_fingerprint(base.store)


def interleave(records, rnd):
    """Another interleaving of the origins' streams, each kept in order."""
    lanes = [record.origin for record in records]
    rnd.shuffle(lanes)
    streams = {o: iter([r for r in records if r.origin == o]) for o in set(lanes)}
    return [next(streams[origin]) for origin in lanes]


@given(clock_records(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_replay_order_insensitive_across_gaps(records, rnd):
    """Any interleaving of the per-origin streams (gaps in the log, none in
    an origin's sequence) rebuilds the same clock and, up to per-key
    vids, the same versions."""
    base = replay([LOAD] + records, N)
    again = replay([LOAD] + interleave(records, rnd), N)
    assert again.site_vc.to_tuple() == base.site_vc.to_tuple()
    assert version_set_fingerprint(again.store) == version_set_fingerprint(base.store)
    assert again.replayed == base.replayed


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.sampled_from(("prepare", "abort", "apply")),
        ),
        max_size=20,
    )
)
@settings(max_examples=200, deadline=None)
def test_in_doubt_is_exactly_unresolved_prepares(events):
    """A prepare is in doubt iff no later apply/abort resolved it."""
    records = []
    expected = {}
    seq = 0
    for txn_id, kind in events:
        if kind == "prepare":
            record = PrepareRecord(txn_id, coordinator=0, writes=(("k0", 1),))
            records.append(record)
            expected[txn_id] = record
        elif kind == "abort":
            records.append(AbortRecord(txn_id))
            expected.pop(txn_id, None)
        else:
            seq += 1
            vc = tuple(seq if o == 1 else 0 for o in range(N))
            records.append(ApplyRecord(txn_id, 1, seq, vc, (("k0", seq),)))
            expected.pop(txn_id, None)
    assert replay(records, N).in_doubt == expected


@given(st.lists(st.integers(min_value=1, max_value=50), max_size=10))
@settings(max_examples=200, deadline=None)
def test_curr_seq_no_is_max_decision(seqs):
    records = [
        DecisionRecord(500 + i, seq, (seq, 0, 0, 0))
        for i, seq in enumerate(seqs)
    ]
    result = replay(records, N)
    assert result.curr_seq_no == (max(seqs) if seqs else 0)


@st.composite
def decision_records(draw):
    """A coordinator's decisions, each carrying its participants' writes
    as ``(site, key, value)`` (empty: a log written before the field)."""
    records = []
    for seq in range(1, draw(st.integers(min_value=0, max_value=6)) + 1):
        writes = tuple(
            (draw(st.integers(min_value=0, max_value=N - 1)), key, seq)
            for key in draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=3))
        )
        vc = (seq, 0, 0, 0)
        records.append(
            DecisionRecord(700 + seq, seq, vc, frozenset(), writes)
            if writes else DecisionRecord(700 + seq, seq, vc)
        )
    return records


@given(clock_records(), decision_records(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_decisions_with_writes_replay_idempotently_and_across_gaps(clocks, decisions, rnd):
    """The writes a decision carries are inert at replay: they install
    nothing and move no clock (only recovery's re-stage reads them), so
    interleaving and duplicating the records of a log that holds them
    rebuilds the same state and decision table, writes included."""
    base = replay([LOAD] + clocks + decisions, N)
    assert base.decisions == {record.txn_id: record for record in decisions}
    assert store_fingerprint(base.store) == store_fingerprint(
        replay([LOAD] + clocks, N).store
    )
    mixed = interleave(clocks, rnd)
    for record in rnd.sample(decisions, len(decisions)):
        mixed.insert(rnd.randint(0, len(mixed)), record)
    again = replay([LOAD] + mixed + rnd.sample(mixed, len(mixed) // 2), N)
    assert again.decisions == base.decisions
    assert again.curr_seq_no == base.curr_seq_no == len(decisions)
    assert again.site_vc.to_tuple() == base.site_vc.to_tuple()
    assert version_set_fingerprint(again.store) == version_set_fingerprint(base.store)


def test_a_decision_logged_without_writes_replays_with_none():
    old = DecisionRecord(501, 1, (1, 0, 0, 0), frozenset({7}))
    assert old.writes == ()
    assert replay([LOAD, old], N).decisions == {501: old}

"""The event vocabulary: every trace kind and run-wide counter, declared once.

A *traced* row of :data:`EVENTS` names the detail fields its
``tracer.emit(node, kind, **details)`` calls pass and the counters each
emit adds to (1, or one field's value) whether or not tracing is on.  A
*counted* row is a plain counter, bumped by ``metrics.count(name, n)``.
Counters appear in ``summary()`` in row order; ``tests/test_structure.py``
checks every ``emit`` and ``count`` under ``src/repro`` against the table.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple


class Event(NamedTuple):
    """One row of :data:`EVENTS`."""

    #: Detail fields an emit may pass; ``None`` for a counted row.
    fields: Optional[FrozenSet[str]]
    #: ``(counter, field)`` pairs a traced row adds to on every emit:
    #: 1 when ``field`` is ``None``, else that detail's value.
    counts: Tuple[Tuple[str, Optional[str]], ...] = ()
    meaning: str = ""


def traced(fields: str, **counts) -> Event:
    """A trace kind; ``counts`` maps a counter to ``1`` or to a field."""
    return Event(frozenset(fields.split()), tuple(
        (name, None if by == 1 else by) for name, by in counts.items()
    ))


def counted(meaning: str) -> Event:
    """A plain counter, bumped by ``metrics.count``; never traced."""
    return Event(None, meaning=meaning)


EVENTS: Dict[str, Event] = {
    # Transactions: once per operation, so none of them counts and a site
    # may skip its emit while tracing is off.
    "begin": traced("txn ro profile"),
    "read": traced("txn key vid latest site"),
    "prepare": traced("txn keys collected"),
    "decide": traced("txn origin seq"),
    "propagate": traced("origin seq"),
    "stall": traced("txn waited"),  # a read waited for the server's siteVC
    "commit": traced("txn ro seq"),
    "abort": traced("txn reason key peers"),
    # A commit round met a handoff ("moved") or waited out its silent
    # participants' failover, and prepares again.
    "moved_retry": traced("txn round"),
    "failover_retry": traced("txn round peers"),
    "versions_reclaimed": counted("old versions reclaimed by the MVCC collector"),
    # Presumed abort; a lease expires when its coordinator went silent.
    "aborted_timeout": counted("coordinator aborts from exhausted RPC retries"),
    "lease_expire": traced("txn", lease_expirations=1),
    "places_expired": counted("places in line not prepared in ``lock_timeout``"),
    # Durable-crash recovery: a node rebuilt itself from its WAL.
    "recover": traced(
        "replayed in_doubt restaged", recoveries=1,
        wal_records_replayed="replayed", indoubt_recovered="in_doubt",
    ),
    # An in-doubt prepare was terminated (lease- or recovery-driven); its
    # site counts it by outcome.
    "indoubt": traced("txn committed via"),
    "indoubt_committed": counted("in-doubt terminations that committed"),
    "indoubt_aborted": counted("in-doubt terminations that aborted"),
    "prepares_restaged": counted(
        "prepares a crash took, re-created from their coordinators' decisions"
    ),
    # Anti-entropy catch-up advanced siteVC slots past lost Propagates.
    "catchup": traced("origin advanced target", catchup_advances="advanced"),
    # Self-healing.
    "heartbeats_sent": counted("active liveness beacons sent"),
    "heartbeats_suppressed": counted(
        "beacons skipped: foreground traffic already proved the sender alive"
    ),
    # Failure-detector transitions alive -> suspect/dead, and back.
    "suspect": traced("peer state was", suspicions_raised=1),
    "trust": traced("peer state was", suspicions_cleared=1),
    # Decide records streamed to a lagging peer; a finished digest round.
    "stream": traced("peer first last count"),
    "anti_entropy": traced(
        "peer streamed", anti_entropy_rounds=1, records_streamed="streamed"
    ),
    "checkpoint": traced(
        "records_below in_doubt own_frontier", checkpoints_taken=1
    ),
    "truncate": traced("dropped floor", wal_records_truncated="dropped"),
    "wal_sync": traced("cover pending"),
    "wal_syncs": counted("completed WAL syncs"),
    "wal_records_synced": counted(
        "records those syncs made durable (per sync: the group-commit batch)"
    ),
    "wal_waits": counted("ensure_durable calls that blocked on a covering sync"),
    "wal_wait_time": counted(
        "virtual seconds they blocked (over wal_waits: mean wait per force)"
    ),
    # Chain shipping: a shard handoff's chains, donor to new owner.
    "snapshot_rejected": counted("shipments refused, or their replies lost"),
    "snapshot_chains": counted("store chains installed shipments carried"),
    "shard_shipped": traced("peer snapshot_id keys frontier"),
    "snapshot_install": traced(
        "sender snapshot_id chains frontier", snapshot_installs=1
    ),
    # Per-shard primary-backup replication; a degraded sync-mode wait hit
    # ``SYNC_TIMEOUT`` and went async.
    "replication_records_streamed": counted("stream records backups acked"),
    "replication_lag_max": counted(
        "worst stream lag seen (a maximum, kept by its one writer)"
    ),
    "replication_degraded": traced("backups", replication_sync_degraded=1),
    "failover_start": traced("shards"),
    "failover_promoted": traced("dead shards staged_installed decisions"),
    "failover_complete": traced("shards orphaned", failovers_completed="shards"),
    "failover_orphaned": traced("shards"),
    "backup_bootstrap": traced("backup shards keys", backup_bootstraps=1),
    # Fault injection.
    "nemesis_crash": traced("peer"),
    "nemesis_crash_durable": traced("peer"),
    "nemesis_restart": traced("peer"),
    "nemesis_partition": traced("peer"),
    "nemesis_heal": traced("peer duration dropped dropped_reverse"),
    "nemesis_promotions": traced("shards"),
}

#: Every run-wide counter, in ``summary()`` order.
COUNTERS: Tuple[str, ...] = tuple(dict.fromkeys(
    counter
    for name, event in EVENTS.items()
    for counter in (
        (name,) if event.fields is None else [c for c, _ in event.counts]
    )
))
#: The kinds ``Tracer.enable`` accepts.
TRACED: FrozenSet[str] = frozenset(
    name for name, event in EVENTS.items() if event.fields is not None
)
#: Trace kind -> its ``(counter, field)`` pairs, for kinds that count.
COUNTS: Dict[str, Tuple[Tuple[str, Optional[str]], ...]] = {
    name: event.counts for name, event in EVENTS.items() if event.counts
}

"""Unit tests for the metrics recorder."""

import pytest

from repro.core.transaction import Transaction
from repro.metrics import MetricsRecorder, RunningStat
from repro.metrics.stats import COUNTERS
from repro.sim import Simulator


def make_txn(ro=False, profile=None):
    txn = Transaction(1, 0, 4, is_read_only=ro, profile=profile)
    return txn


def test_running_stat_tracks_extremes():
    stat = RunningStat()
    for value in (3.0, 1.0, 2.0):
        stat.add(value)
    assert stat.count == 3
    assert stat.mean == pytest.approx(2.0)
    assert stat.minimum == 1.0
    assert stat.maximum == 3.0
    d = stat.as_dict()
    assert d["count"] == 3 and d["mean"] == pytest.approx(2.0)


def test_running_stat_empty():
    stat = RunningStat()
    assert stat.mean == 0.0
    assert stat.as_dict() == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}


def test_commit_and_abort_counting():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.on_commit(make_txn(profile="p1"), latency=0.01, attempts=2)
    metrics.on_commit(make_txn(ro=True, profile="p2"), latency=0.02, attempts=1)
    metrics.on_abort(make_txn(), reason="validation")
    assert metrics.commits == 2
    assert metrics.aborts == 1
    assert metrics.abort_rate == pytest.approx(1 / 3)
    assert metrics.commits_by_profile == {"p1": 1, "p2": 1}
    assert metrics.aborts_by_reason == {"validation": 1}
    assert metrics.read_only_latency.count == 1
    assert metrics.update_latency.count == 1
    assert metrics.attempts_per_commit.mean == pytest.approx(1.5)


def test_abort_attribution_names_the_hot_keys():
    """Aborted attempts are counted per written key (top five reported)
    and the attempts-per-commit stat reaches ``summary()``."""
    sim = Simulator()
    metrics = MetricsRecorder(sim)

    def aborted(*keys):
        txn = make_txn()
        txn.writeset.update((key, 0) for key in keys)
        metrics.on_abort(txn, "validation")

    for _ in range(3):
        aborted("hot", "a")
    aborted("hot", "b")
    for key in "cdefg":
        aborted(key)
    metrics.on_commit(make_txn(), latency=0.01, attempts=4)
    metrics.on_commit(make_txn(), latency=0.01, attempts=1)
    summary = metrics.summary()
    assert summary["abort_hot_keys"][:2] == [("hot", 4), ("a", 3)]
    assert len(summary["abort_hot_keys"]) == 5
    assert summary["attempts_per_commit"] == {
        "count": 2, "mean": 2.5, "min": 1, "max": 4,
    }
    # Outside the window nothing is attributed.
    metrics.open_window(start=1.0, end=2.0)
    aborted("late")
    assert "late" not in metrics.aborts_by_key


def test_window_excludes_events_outside():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.open_window(start=1.0, end=2.0)
    # now == 0: before the window.
    metrics.on_commit(make_txn(), latency=0.1, attempts=1)
    metrics.on_abort(make_txn(), "validation")
    metrics.on_ro_read(gap=1, first_contact=True)
    metrics.on_antidep_collected(5)
    metrics.on_read_stall(0.1)
    metrics.on_vas_inspected(2)
    metrics.on_rollback(make_txn())
    assert metrics.commits == 0
    assert metrics.aborts == 0
    assert metrics.ro_reads == 0
    assert metrics.antidep_collected.count == 0
    assert metrics.read_stalls == 0
    assert metrics.vas_inspected.count == 0
    assert metrics.rollbacks == 0
    # The run-wide registry is never window-gated -- neither directly
    # nor through ``on_abort``'s timeout accounting.
    metrics.count("lease_expirations")
    metrics.count("versions_reclaimed", 7)
    metrics.on_abort(make_txn(), "rpc_timeout")
    assert metrics.counters["lease_expirations"] == 1
    assert metrics.summary()["versions_reclaimed"] == 7
    assert metrics.counters["aborted_timeout"] == 1 and metrics.aborts == 0

    sim.call_at(1.5, lambda: metrics.on_commit(make_txn(), 0.1, 1))
    sim.run()
    assert metrics.commits == 1


def test_throughput_uses_window_duration():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.open_window(start=0.0, end=2.0)
    metrics.on_commit(make_txn(), 0.1, 1)
    sim.call_at(2.0, lambda: None)
    sim.run()
    assert metrics.window_duration == pytest.approx(2.0)
    assert metrics.throughput() == pytest.approx(0.5)


def test_freshness_accounting():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    metrics.on_ro_read(gap=0, first_contact=True)
    metrics.on_ro_read(gap=3, first_contact=True)
    metrics.on_ro_read(gap=0, first_contact=False)
    assert metrics.ro_reads == 3
    assert metrics.ro_stale_reads == 1
    assert metrics.stale_read_fraction == pytest.approx(1 / 3)
    assert metrics.first_contact_reads == 2
    assert metrics.first_contact_fresh == 1
    assert metrics.ro_read_gap.mean == pytest.approx(1.0)


#: ``summary()``'s keys, in order: reports, the ledger and ``scripts/``
#: read them by name, so the registry must not rename or reorder one,
#: and drops one only with the code that counted it (the two backup-read
#: counters went with the backup-read path; ``snapshot_offers``,
#: ``snapshot_chunks`` and ``snapshot_abandoned`` with the chunked
#: chain transfer).
SUMMARY_KEYS = (
    "commits", "aborts", "rollbacks", "abort_rate", "throughput",
    "aborts_by_reason", "abort_hot_keys", "attempts_per_commit",
    "commits_by_profile", "latency", "ro_latency", "update_latency",
    "ro_latency_percentiles", "update_latency_percentiles",
    "antidep_collected", "vas_inspected", "ro_read_gap",
    "stale_read_fraction", "first_contact_reads", "first_contact_fresh",
    "read_stalls", "read_stall_time", "versions_reclaimed",
    "aborted_timeout", "lease_expirations", "places_expired", "recoveries",
    "wal_records_replayed", "indoubt_recovered", "indoubt_committed",
    "indoubt_aborted", "prepares_restaged", "catchup_advances",
    "heartbeats_sent",
    "heartbeats_suppressed", "suspicions_raised", "suspicions_cleared",
    "anti_entropy_rounds", "records_streamed", "checkpoints_taken",
    "wal_records_truncated", "wal_syncs", "wal_records_synced",
    "wal_waits", "wal_wait_time", "snapshot_rejected",
    "snapshot_chains", "snapshot_installs", "views_committed", "joins_bootstrapped",
    "drains_completed", "stale_width_messages", "shard_migrations",
    "shard_migration_keys", "shard_migrations_failed", "rebalance_rounds",
    "replication_records_streamed", "replication_lag_max",
    "replication_sync_degraded", "failovers_completed", "backup_bootstraps",
)


def test_summary_keys_are_frozen():
    summary = MetricsRecorder(Simulator()).summary()
    assert len(SUMMARY_KEYS) == 61
    assert tuple(summary) == SUMMARY_KEYS
    assert tuple(COUNTERS) == SUMMARY_KEYS[22:]
    assert all(summary[name] == 0 for name in COUNTERS)


def test_count_of_an_undeclared_counter_raises():
    metrics = MetricsRecorder(Simulator())
    with pytest.raises(KeyError):
        metrics.count("lease_expiration")  # typo: not a new counter
    assert set(metrics.counters) == set(COUNTERS)


def test_zero_rates_without_samples():
    sim = Simulator()
    metrics = MetricsRecorder(sim)
    assert metrics.abort_rate == 0.0
    assert metrics.stale_read_fraction == 0.0
    assert metrics.throughput() == 0.0

"""Unit tests for the WAL's disk-paced group commit (``WalFlusher``).

A bare ``Simulator`` + ``WriteAheadLog(buffered=True)`` + ``WalFlusher``:
no cluster, no protocol.  The policy under test is one sentence -- a
sync starts the moment the disk is free and records are pending, and
covers the whole tail at that instant -- so every expected time below is
exact arithmetic on ``FSYNC``.
"""

import os
import random

import pytest

from repro.config import DurabilityConfig
from repro.metrics.stats import MetricsRecorder
from repro.sim import Simulator, Tracer
from repro.storage.group_commit import WalFlusher
from repro.storage.wal import AbortRecord, WriteAheadLog

FSYNC = 100e-6
US = 1e-6

#: The crash cases ride CI's recovery seed matrix.
SEEDS = [int(s) for s in os.environ.get("RECOVERY_SEEDS", "41,42").split(",")]


class Disk:
    """One node's log, flusher, metrics and a record of every sync start."""

    def __init__(self, fsync_latency=FSYNC):
        self.sim = Simulator()
        self.wal = WriteAheadLog(buffered=fsync_latency > 0)
        self.metrics = MetricsRecorder(self.sim)
        self.tracer = Tracer(self.sim)
        self.tracer.enable("wal_sync")
        self.flusher = WalFlusher(
            self.sim,
            self.wal,
            DurabilityConfig(wal_enabled=True, fsync_latency=fsync_latency),
            metrics=self.metrics,
            tracer=self.tracer,
            node_id=0,
        )
        #: ``(lsn, appended_at, resumed_at, verdict, durable_lsn_at_resume)``
        #: per forced write, in resumption order.
        self.resumed = []
        self._txn = 0

    def append(self):
        self._txn += 1
        return self.wal.append(AbortRecord(self._txn))

    def force_at(self, when):
        """Spawn a writer that appends at ``when`` and waits for the disk."""

        def writer():
            yield self.sim.timeout(when)
            lsn = self.append()
            yield from self.wait(lsn)

        self.sim.spawn(writer())

    def wait(self, lsn):
        since = self.sim.now
        verdict = yield from self.flusher.ensure_durable(lsn)
        self.resumed.append(
            (lsn, since, self.sim.now, verdict, self.wal.durable_lsn)
        )

    def sync_starts(self):
        return [
            (record.time, record.details["cover"], record.details["pending"])
            for record in self.tracer.of_kind("wal_sync")
        ]


def test_idle_disk_makes_a_record_durable_one_fsync_after_its_append():
    disk = Disk()
    disk.force_at(30 * US)
    disk.sim.run()
    assert disk.sync_starts() == [(30 * US, 1, 1)]
    [(lsn, since, at, verdict, _)] = disk.resumed
    assert (lsn, verdict) == (1, True)
    assert at - since == pytest.approx(FSYNC)
    counters = disk.metrics.counters
    assert counters["wal_syncs"] == counters["wal_records_synced"] == 1
    assert counters["wal_waits"] == 1
    assert counters["wal_wait_time"] == pytest.approx(FSYNC)


def test_records_appended_during_a_sync_are_the_next_group():
    disk = Disk()
    for when in (0, 20 * US, 50 * US, 99 * US):
        disk.force_at(when)
    disk.sim.run()
    # The second sync starts the instant the first ends and covers every
    # record that arrived meanwhile -- no timer held either open.
    assert disk.sync_starts() == [(0.0, 1, 1), (pytest.approx(FSYNC), 4, 3)]
    assert [(lsn, verdict) for lsn, _, _, verdict, _ in disk.resumed] == [
        (1, True), (2, True), (3, True), (4, True)
    ]
    assert [at for _, _, at, _, _ in disk.resumed] == [
        pytest.approx(FSYNC)] + [pytest.approx(2 * FSYNC)] * 3
    assert disk.wal.syncs == 2 and disk.wal.records_synced == 4


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_each_waiter_resumes_once_in_lsn_order_within_two_fsyncs(seed):
    rng = random.Random(seed)
    disk = Disk()
    writers = 200
    for _ in range(writers):
        disk.force_at(rng.uniform(0, 40 * FSYNC))
    # Lazy records nobody waits on share the groups.
    for _ in range(100):
        disk.sim.call_later(rng.uniform(0, 40 * FSYNC), disk.append)
    disk.sim.run()

    assert len(disk.resumed) == writers  # one resumption per wait
    lsns = [lsn for lsn, *_ in disk.resumed]
    assert lsns == sorted(lsns)
    for lsn, since, at, verdict, durable in disk.resumed:
        assert verdict is True
        assert durable >= lsn  # never woken before covered
        assert at - since <= 2 * FSYNC + 1e-12
    starts = disk.sync_starts()
    for (t0, cover0, _), (t1, cover1, pending1) in zip(starts, starts[1:]):
        assert t1 - t0 >= FSYNC - 1e-12  # one sync on the disk at a time
        assert cover1 - pending1 == cover0  # prefix-durable, no gaps
    assert max(pending for _, _, pending in starts) > 1  # it does batch
    assert disk.wal.durable_lsn == disk.wal.tail_lsn == writers + 100
    counters = disk.metrics.counters
    assert counters["wal_waits"] == writers
    assert counters["wal_syncs"] == len(starts)
    assert counters["wal_records_synced"] == writers + 100


def test_waiters_registered_out_of_lsn_order_still_resume_in_lsn_order():
    disk = Disk()
    first, second, third = disk.append(), disk.append(), disk.append()
    for lsn in (third, second, first):
        disk.sim.spawn(disk.wait(lsn))
    disk.sim.run()
    assert [(lsn, at) for lsn, _, at, _, _ in disk.resumed] == [
        (first, pytest.approx(FSYNC)),
        (second, pytest.approx(2 * FSYNC)),
        (third, pytest.approx(2 * FSYNC)),
    ]


def test_lazy_appends_reach_disk_and_leave_no_timer_behind():
    disk = Disk()
    for _ in range(3):
        disk.append()
    assert disk.wal.durable_lsn == 0
    disk.sim.run()
    assert disk.wal.durable_lsn == disk.wal.tail_lsn == 3
    assert disk.sync_starts() == [(0.0, 1, 1), (pytest.approx(FSYNC), 3, 2)]
    assert disk.sim.pending_count == 0
    assert disk.metrics.counters["wal_waits"] == 0
    # An already-durable LSN never blocks.
    disk.sim.spawn(disk.wait(3))
    disk.sim.run()
    assert disk.resumed == [(3, 2 * FSYNC, 2 * FSYNC, True, 3)]


def test_inert_without_fsync_latency():
    disk = Disk(fsync_latency=0.0)
    assert not disk.flusher.active
    assert disk.wal.on_append is None
    disk.sim.spawn(disk.wait(disk.append()))
    disk.sim.run()
    assert disk.resumed == [(1, 0.0, 0.0, True, 1)]
    assert disk.sync_starts() == []
    assert disk.metrics.counters["wal_syncs"] == 0


def test_frozen_log_fails_a_new_wait_at_once():
    disk = Disk()
    lsn = disk.append()
    disk.wal.freeze()
    disk.flusher.on_crash()
    disk.sim.spawn(disk.wait(lsn))
    disk.sim.run()
    assert disk.resumed == [(lsn, 0.0, 0.0, False, 0)]


@pytest.mark.recovery
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_mid_sync_lands_nothing_and_fails_every_waiter(seed):
    rng = random.Random(seed)
    disk = Disk()
    crash_at = rng.uniform(4 * FSYNC, 8 * FSYNC)
    for _ in range(60):
        disk.force_at(rng.uniform(0, crash_at))
    snapshot = {}

    def crash():
        snapshot["durable"] = disk.wal.durable_lsn
        snapshot["tail"] = disk.wal.tail_lsn
        snapshot["resumed"] = len(disk.resumed)
        disk.wal.freeze()
        disk.flusher.on_crash()

    disk.sim.call_later(crash_at, crash)
    disk.sim.run()

    # A sync was on the disk at the crash; none of its group landed.
    assert disk.sync_starts()[-1][0] <= crash_at
    assert snapshot["tail"] > snapshot["durable"]
    assert disk.wal.durable_lsn == disk.wal.tail_lsn == snapshot["durable"]
    assert disk.wal.lost_on_crash == snapshot["tail"] - snapshot["durable"]
    before, after = (
        disk.resumed[:snapshot["resumed"]], disk.resumed[snapshot["resumed"]:]
    )
    assert all(verdict for _, _, _, verdict, _ in before)
    assert all(lsn <= snapshot["durable"] for lsn, *_ in before)
    # Everyone blocked at the crash is told no, exactly once each.
    assert len(after) == 60 - len(before) > 0
    assert not any(verdict for _, _, _, verdict, _ in after)
    assert disk.sim.pending_count == 0


@pytest.mark.recovery
def test_stale_sync_completion_lands_nothing_after_recovery():
    disk = Disk()
    for _ in range(3):
        disk.append()  # sync 1 covers lsn 1; lsn 2..3 pending
    disk.sim.run(until=1.4 * FSYNC)  # sync 2 (cover 3) in flight since 1.0
    assert disk.wal.durable_lsn == 1
    disk.wal.freeze()
    disk.flusher.on_crash()
    disk.wal.unfreeze()  # recovery re-admits appends
    disk.sim.run(until=1.5 * FSYNC)
    disk.sim.spawn(disk.wait(disk.append()))  # lsn 2 again, a new record
    disk.sim.run()
    # The old sync's completion at 2.0 covered "lsn 3" of a log that no
    # longer exists; the new record is durable only after its own sync.
    [(lsn, since, at, verdict, _)] = disk.resumed
    assert (lsn, verdict) == (2, True)
    assert at == pytest.approx(2.5 * FSYNC)
    assert disk.sync_starts()[-1] == (pytest.approx(1.5 * FSYNC), 2, 1)
    assert disk.wal.syncs == 2  # sync 1 and the post-recovery one

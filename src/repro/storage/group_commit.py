"""Group commit: disk-paced durable syncs for the write-ahead log.

With ``DurabilityConfig.fsync_latency > 0`` the WAL runs in buffered mode
(:class:`~repro.storage.wal.WriteAheadLog` with ``buffered=True``): an
append lands in a volatile buffer and becomes durable only when a sync
covering its LSN completes.  This module owns the sync schedule.

One policy: a sync starts the moment the disk is free and the tail is
ahead of ``durable_lsn``, and covers the whole tail as of that instant.
Records appended during its ``fsync_latency`` form the next group, whose
sync starts the instant this one ends.  Batching comes from the disk
being busy, never from a timer: on an idle disk a forced record is
durable after exactly one ``fsync_latency``, under load after at most
two (the in-flight sync plus its own).  A commit's acknowledgement
waits for the sync covering its decision record
(:meth:`WalFlusher.ensure_durable`), so a crash between buffer and
flush loses only unacknowledged work.

Crash semantics: ``WriteAheadLog.freeze`` drops the unsynced suffix; the
in-flight sync, if any, is cancelled (nothing in its group becomes
durable, then or after recovery) and every waiter resumes with ``False``
so its protocol step is never acknowledged.

(History: PRs 7-15 also had a timer regime that held each group open for
a fixed delay before syncing, and a one-record-per-sync strawman; both
were deleted in PR 16 -- docs/performance.md keeps their numbers.)
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.sim import Event, Timer


class WalFlusher:
    """The sync scheduler for one node's buffered WAL.

    Inert (``active`` False) when ``fsync_latency == 0``: the WAL is not
    buffered, every append is instantly durable, and ``ensure_durable``
    returns immediately -- the historical behaviour, bit for bit.
    """

    def __init__(
        self, sim, wal, durability, *, metrics=None, tracer=None, node_id=-1
    ) -> None:
        self.sim = sim
        self.wal = wal
        self.fsync_latency = durability.fsync_latency
        self.metrics = metrics
        self.tracer = tracer
        self.node_id = node_id
        #: The completion timer of the sync on the disk right now, if any.
        self._inflight: Optional[Timer] = None
        #: Blocked ``ensure_durable`` callers, a heap of ``(lsn, ticket,
        #: event)``: each resumes once, in LSN order, from the sync that
        #: covers it.
        self._waiters: List[Tuple[int, int, Event]] = []
        self._tickets = 0
        if self.active:
            # Every record must reach disk, waited on or not (lazy
            # Apply/Propagate records, checkpoints).
            wal.on_append = self._start_sync

    @property
    def active(self) -> bool:
        return self.fsync_latency > 0

    def ensure_durable(self, lsn: int):
        """Generator subroutine: block until ``lsn`` is durable.

        Returns ``True`` once the covering sync completed, ``False`` if a
        durable crash intervened (the record is gone; the caller's
        protocol step must not be acknowledged).
        """
        wal = self.wal
        if not self.active or wal.durable_lsn >= lsn:
            return True
        if wal.frozen:
            return False
        since = self.sim.now
        durable = yield self._covering_sync(lsn)
        if self.metrics is not None:
            self.metrics.count("wal_waits")
            self.metrics.count("wal_wait_time", self.sim.now - since)
        return durable

    def after_durable(self, lsn: int, callback) -> None:
        """Call ``callback(durable)`` once ``lsn`` is durable -- now, if
        it is -- or lost to a crash.  Nobody blocks: not a forced wait."""
        wal = self.wal
        if not self.active or wal.durable_lsn >= lsn or wal.frozen:
            callback(wal.durable_lsn >= lsn)
        else:
            self._covering_sync(lsn).add_callback(
                lambda event: callback(event.value)
            )

    def _covering_sync(self, lsn: int) -> Event:
        """The event the sync covering ``lsn`` (or a crash) will trigger."""
        event = Event(self.sim, name="wal-durable")
        heapq.heappush(self._waiters, (lsn, self._tickets, event))
        self._tickets += 1
        return event

    # ------------------------------------------------------------------
    # Crash hook
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """The node crashed durably: abandon the in-flight sync and fail
        every waiter.

        Called after ``WriteAheadLog.freeze`` dropped the unsynced
        suffix, which held every waited-on record.
        """
        if self._inflight is not None:
            self._inflight.cancel()
            self._inflight = None
        waiters = self._waiters
        while waiters:
            heapq.heappop(waiters)[2].succeed(False)

    # ------------------------------------------------------------------
    # The disk
    # ------------------------------------------------------------------
    def _start_sync(self, _appended: Optional[int] = None) -> None:
        """Put the unsynced tail on the disk, unless it is busy or there
        is none.  Runs on every append and whenever a sync ends."""
        if self._inflight is not None:
            return
        wal = self.wal
        cover = wal.tail_lsn
        pending = cover - wal._durable
        if pending <= 0:
            return
        self._inflight = self.sim.call_later(
            self.fsync_latency, self._sync_done, cover
        )
        # Emitted last: a listener may crash the node right here.
        if self.tracer is not None and self.tracer._enabled:
            self.tracer.emit(
                self.node_id, "wal_sync", cover=cover, pending=pending
            )

    def _sync_done(self, cover: int) -> None:
        self._inflight = None
        newly = self.wal.mark_durable(cover)
        if self.metrics is not None:
            self.metrics.count("wal_syncs")
            self.metrics.count("wal_records_synced", newly)
        waiters = self._waiters
        while waiters and waiters[0][0] <= cover:
            heapq.heappop(waiters)[2].succeed(True)
        self._start_sync()

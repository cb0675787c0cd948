"""Group commit: batched durable syncs for the write-ahead log.

With ``DurabilityConfig.fsync_latency > 0`` the WAL runs in buffered mode
(:class:`~repro.storage.wal.WriteAheadLog` with ``buffered=True``): an
append lands in a volatile buffer and becomes durable only when a sync
covering its LSN completes.  This module owns the sync schedule.

Two regimes, selected by ``group_commit_window``:

* **Per-record (naive, window == 0).**  The disk syncs one record per
  ``fsync_latency``, strictly FIFO.  This is the honest cost of the
  "one sync per WalRecord per protocol step" durability story the
  simulator previously modelled as free -- and the throughput cliff the
  benchmarks demonstrate: a node whose protocol work produces records
  faster than ``1 / fsync_latency`` per second queues without bound.

* **Group commit (window > 0).**  The first sync request opens a window;
  every record appended while it is open joins the group, and one sync
  -- one ``fsync_latency`` -- covers all of them.  The window closes
  early when ``group_commit_max_records`` are pending.  Commit
  acknowledgements (and prepare votes) wait for the group holding their
  record, so a crash between buffer and flush loses only unacknowledged
  work.

Crash semantics: ``WriteAheadLog.freeze`` drops the unsynced suffix; the
flusher's in-flight sync, if any, is aborted (nothing in its group
becomes durable) and every :meth:`WalFlusher.ensure_durable` waiter is
woken to observe the frozen log and report failure to its commit path.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import ConditionVariable


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
        self.window = durability.group_commit_window
        self.max_records = max(1, durability.group_commit_max_records)
        self.metrics = metrics
        self.tracer = tracer
        self.node_id = node_id
        #: Notified every time a sync completes (durable_lsn advanced).
        self.durable_cv = ConditionVariable(sim)
        #: Notified to cut a window short (early flush) or abort on crash.
        self._kick_cv = ConditionVariable(sim)
        #: Highest LSN whose durability has been requested.
        self._requested = 0
        #: Whether the flusher loop of the current epoch is running.
        self._running = False
        #: Bumped by :meth:`on_crash`; a loop from a previous epoch exits
        #: without touching the (possibly recovered) log.
        self._epoch = 0
        if self.active:
            wal.on_append = self.request_sync

    @property
    def active(self) -> bool:
        return self.fsync_latency > 0

    # ------------------------------------------------------------------
    # Sync requests
    # ------------------------------------------------------------------
    def request_sync(self, lsn: Optional[int] = None) -> None:
        """Ask for records up to ``lsn`` (default: the tail) to be synced.

        Every append requests a sync -- lazy records (Apply/Propagate)
        must eventually reach disk too -- but only the prepare and
        decision paths *wait* (:meth:`ensure_durable`).
        """
        wal = self.wal
        if not self.active or wal.frozen:
            return
        if lsn is None:
            lsn = wal.tail_lsn
        if lsn > self._requested:
            self._requested = lsn
        if not self._running:
            self._running = True
            self.sim.spawn(
                self._run(self._epoch), name=f"n{self.node_id}:wal-flush"
            )
        else:
            self._kick_cv.notify_all()

    def ensure_durable(self, lsn: int):
        """Generator subroutine: block until ``lsn`` is durable.

        Returns ``True`` once the covering sync completed, ``False`` if a
        durable crash intervened (the record is gone; the caller's
        protocol step must not be acknowledged).
        """
        wal = self.wal
        if not self.active or wal.durable_lsn >= lsn:
            return True
        self.request_sync(lsn)
        while True:
            if wal.frozen:
                return False
            if wal.durable_lsn >= lsn:
                return True
            yield self.durable_cv.wait()

    # ------------------------------------------------------------------
    # Crash / recovery hooks
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """The node crashed durably: abort in-flight syncs, wake waiters.

        Called after ``WriteAheadLog.freeze`` dropped the unsynced
        suffix; waiters observe the frozen log and return ``False`` from
        :meth:`ensure_durable`.
        """
        self._epoch += 1
        self._running = False
        self._requested = self.wal.durable_lsn
        self._kick_cv.notify_all()
        self.durable_cv.notify_all()

    def on_recovery(self) -> None:
        """Recovery re-admitted appends: re-arm against the replayed log."""
        self._requested = self.wal.durable_lsn
        if self.active:
            self.wal.on_append = self.request_sync

    # ------------------------------------------------------------------
    # The flusher loop
    # ------------------------------------------------------------------
    def _backlog(self) -> int:
        return self._requested - self.wal._durable

    def _run(self, epoch: int):
        sim = self.sim
        wal = self.wal
        try:
            while True:
                if epoch != self._epoch or wal.frozen:
                    return
                if self._requested > wal.tail_lsn:
                    self._requested = wal.tail_lsn
                if self._backlog() <= 0:
                    return
                if self.window > 0:
                    # Group commit: hold the window open for joiners,
                    # cutting it short at max_records.
                    deadline = sim.now + self.window
                    sim.call_later(self.window, self._kick_cv.notify_all)
                    while (
                        sim.now < deadline
                        and epoch == self._epoch
                        and not wal.frozen
                        and self._backlog() < self.max_records
                    ):
                        yield self._kick_cv.wait()
                    if epoch != self._epoch or wal.frozen:
                        return
                    cover = min(self._requested, wal.tail_lsn)
                else:
                    # Per-record durability: each record pays its own
                    # serialized sync.
                    cover = wal._durable + 1
                if self.tracer is not None and self.tracer._enabled:
                    self.tracer.emit(
                        self.node_id, "wal_sync",
                        cover=cover, pending=cover - wal._durable,
                    )
                yield sim.timeout(self.fsync_latency)
                if epoch != self._epoch or wal.frozen:
                    return  # crash mid-sync: nothing in this group landed
                newly = wal.mark_durable(cover)
                if self.metrics is not None:
                    self.metrics.count("wal_syncs")
                    self.metrics.count("wal_records_synced", newly)
                self.durable_cv.notify_all()
        finally:
            if epoch == self._epoch:
                self._running = False

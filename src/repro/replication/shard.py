"""Per-shard primary-backup replication under the transactional core.

Every :class:`~repro.cluster.directory.ShardMap` shard keeps its
primary plus ``replication_factor - 1`` deterministically placed backups;
the primary streams its state changes to them over per-(primary, backup)
FIFO streams (:class:`ReplicationStream`; ``docs/replication.md``):
``prepare`` stages a participant's writes, ``abort`` drops them,
``decision`` records a commit this primary coordinated -- on its
*decision homes* and the backups of the own shards written
(:meth:`NodeReplication._decision_targets`) -- and ``apply`` installs a
commit's versions verbatim.  In ``sync`` mode a commit's acknowledgement
and every Decide wait once, for its ``decision`` record on all targets
(bounded by ``sync_timeout``, then *degraded* to asynchronous and
counted); a ``prepare`` record only holds its entry's write locks until
acknowledged (:meth:`NodeReplication.after_acked`).  Failover
(:mod:`repro.replication.failover`) promotes the freshest backup of each
shard of a dead owner.  Backups serve no reads.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.config import ReplicationConfig
from repro.core.wire import (
    DecideBody,
    ReplicateAckBody,
    ReplicateBody,
    ReplicationEntry,
)
from repro.net.message import MessageType
from repro.replication.backup import BackupState
from repro.replication.failover import FailoverDriver, backups_for_shard
from repro.sim import Event, Timer
from repro.storage.wal import ReplicationRecord

#: Stream records per REPLICATE message (flow control).
BATCH_RECORDS = 16
#: Unacknowledged REPLICATE batches one stream keeps on the wire.
WINDOW = 4
#: How long a busy stream may hear no progress before it strikes the
#: failure detector, and its further pause before it resends.
RETRY_INTERVAL = 1e-3


class _AckLatch(Event):
    """One wait over several streams: True once every stream it is on
    acknowledged (or closed), False if ``timeout`` expires first -- it
    triggers exactly once either way, and an acked one leaves no timer."""

    __slots__ = ("remaining", "timer")

    def __init__(self, sim, count: int, timeout: float) -> None:
        super().__init__(sim, name="ack-latch")
        self.remaining = count
        self.timer = sim.call_later(timeout, self.expire)

    def count_down(self) -> None:
        self.remaining -= 1
        if self.remaining == 0 and not self.triggered:
            self.timer.cancel()
            self.succeed(True)

    def expire(self) -> None:
        if not self.triggered:
            self.succeed(False)


class ReplicationStream:
    """Primary-side state of one primary -> backup FIFO stream.

    Contract: the backup applies the stream's records in sequence order,
    with no gap and no duplicate, and each reaches it at least once across
    a partition -- unless the stream closes first.

    * *Send.*  An enqueue puts its record on the wire at once while fewer
      than ``WINDOW`` batches are unacknowledged; later records ride the
      first batch an ack makes room for (up to ``BATCH_RECORDS``).
    * *Ack.*  The backup answers every batch, one-way, with its cumulative
      applied mark; progress advances ``acked``, trims the outbox and
      counts down the sync latches parked on it.
    * *Gap.*  An ack without progress while batches are on the wire (one
      was lost on a live link) resends from ``acked + 1`` at once.
    * *Deadline.*  A busy stream that hears no progress for
      ``RETRY_INTERVAL`` strikes the failure detector once (counted in
      ``rpc_timeouts``), pauses as long again, then resends from
      ``acked + 1`` one batch at a time until an ack shows progress.
    * *Incarnation.*  A close or reset orphans every batch on the wire:
      their acks carry the old incarnation and are dropped.
    """

    __slots__ = (
        "backup", "next_seq", "acked", "outbox", "closed", "incarnation",
        "flights", "window", "timer", "waiters", "gap_resend_at",
    )

    def __init__(self, backup: int) -> None:
        self.backup = backup
        #: Next sequence number to assign (dense, starting at 1).
        self.next_seq = 1
        #: Cumulative ack: every record at or below this was applied.
        self.acked = 0
        #: Unacknowledged suffix, dense: the head is ``acked + 1``.
        self.outbox: List[ReplicationEntry] = []
        #: Closed streams accept no records: the sender was deposed, or
        #: the backup is gone or lost state and awaits a re-bootstrap.
        self.closed = False
        #: Bumped on close/restart; a batch and its ack carry it.
        self.incarnation = 0
        #: Last sequence number of each unacknowledged batch, ascending.
        self.flights: List[int] = []
        #: 1 from a deadline until an ack shows progress.
        self.window = WINDOW
        #: The deadline, then the pause before a resend; ``None`` if idle.
        self.timer: Optional[Timer] = None
        #: ``(seq, latch)`` per sync wait parked on this stream, in
        #: sequence order; the ack path counts the latches down.
        self.waiters: List[Tuple[int, _AckLatch]] = []
        #: A gap resends at most once per ``RETRY_INTERVAL``: not before this.
        self.gap_resend_at = 0.0


class NodeReplication:
    """The per-node half of the replication substrate (``node.replication``):
    the primary-side streams to this node's backups, called in at prepare,
    commit decision and decide-apply, and the backup-side state for every
    primary it backs, which the REPLICATE handler applies."""

    def __init__(self, owner, cluster_rep: "ClusterReplication") -> None:
        self.owner = owner
        self.cluster_rep = cluster_rep
        self.config: ReplicationConfig = cluster_rep.config
        self.sim = owner.sim
        self.node_id = owner.node_id
        self.metrics = owner.metrics
        self.tracer = owner.tracer
        #: backup id -> primary-side stream state.
        self.streams: Dict[int, ReplicationStream] = {}
        #: primary id -> backup-side stream state.
        self.backup_state: Dict[int, BackupState] = {}
        #: A deposed primary never pumps again: no race with its successor.
        self._retired = False
        self._backup_cache: Tuple[int, ...] = ()
        self._backup_cache_key: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _all_backups(self) -> Tuple[int, ...]:
        """Every live backup of every shard this node owns, in the order met
        walking its shards upwards: a function of placement, shards, down."""
        rep = self.cluster_rep
        key = (rep.shard_map.epoch, rep.version)
        if self._backup_cache_key != key:
            self._backup_cache = tuple(dict.fromkeys(
                backup
                for shard in rep.shard_map.shards_of(self.node_id)
                for backup in rep.placement.get(shard, ())
                if backup != self.node_id and backup not in rep.down
            ))
            self._backup_cache_key = key
        return self._backup_cache

    def _decision_targets(self, writes=()) -> Tuple[int, ...]:
        """Where a commit coordinated here logs its ``decision``: this
        node's *decision homes* -- the first ``replication_factor - 1``
        of :meth:`_all_backups`, so the backups of its lowest-numbered
        shard, a later shard's where those are down -- plus the backups
        of each own shard among ``writes``.  Those streams staged the
        self-coordinated ``prepare``; holding the ``decision`` behind it
        is what keeps a promotion's presumed abort exact."""
        live = self._all_backups()
        homes = live[: self.config.replication_factor - 1]
        if not writes:
            return homes
        targets = set(homes)
        for key in writes:
            targets.update(self.cluster_rep.backups_for_key(key))
        return tuple(backup for backup in live if backup in targets)

    # ------------------------------------------------------------------
    # Primary side: enqueue + pump
    # ------------------------------------------------------------------
    def _stream(self, backup: int) -> ReplicationStream:
        stream = self.streams.get(backup)
        if stream is None:
            stream = self.streams[backup] = ReplicationStream(backup)
        return stream

    def _enqueue(self, backup: int, kind: str, **fields) -> Optional[int]:
        """Append one record to a backup's stream; returns its seq."""
        if self._retired:
            return None
        stream = self._stream(backup)
        if stream.closed:
            return None
        entry = ReplicationEntry(seq=stream.next_seq, kind=kind, **fields)
        stream.next_seq += 1
        stream.outbox.append(entry)
        self._pump(stream)
        return entry.seq

    def _enqueue_by_key(
        self, writes: Dict[Hashable, object], kind: str, **fields
    ) -> List[Tuple[ReplicationStream, int]]:
        """One record per backup stream, carrying that backup's keys."""
        rep = self.cluster_rep
        shard_of = rep.shard_map.shard_of
        by_backup: Dict[int, list] = {}
        for key, value in writes.items():
            for backup in rep.placement.get(shard_of(key), ()):
                if backup == self.node_id or backup in rep.down:
                    continue
                by_backup.setdefault(backup, []).append((key, value))
        targets: List[Tuple[ReplicationStream, int]] = []
        for backup in sorted(by_backup):
            mine = tuple(sorted(by_backup[backup], key=lambda kv: repr(kv[0])))
            seq = self._enqueue(backup, kind, writes=mine, **fields)
            if seq is not None:
                targets.append((self.streams[backup], seq))
        return targets

    def _pump(self, stream: ReplicationStream) -> None:
        """Put unsent records on the wire while the window has room, and
        keep a deadline armed while any batch is unacknowledged."""
        flights, acked = stream.flights, stream.acked
        sent = flights[-1] if flights else acked
        while sent < stream.next_seq - 1 and len(flights) < stream.window:
            if self.cluster_rep.is_excluded(stream.backup):
                # Crashed or failed over: the driver re-bootstraps it later.
                self._close_stream(stream)
                return
            start = sent - acked
            batch = tuple(stream.outbox[start:start + BATCH_RECORDS])
            body = ReplicateBody(self.node_id, stream.incarnation, acked, batch)
            self.owner.node.send(stream.backup, MessageType.REPLICATE, body)
            sent = batch[-1].seq
            flights.append(sent)
        if flights and stream.timer is None:
            stream.timer = self.sim.call_later(RETRY_INTERVAL, self._expire, stream)

    def on_replicate_ack(self, envelope) -> None:
        """A backup's cumulative ack: progress advances the stream and
        sends on; a refusal closes it; one past a gap resends; a stale
        one -- an orphaned batch's, a reordered duplicate -- is dropped."""
        body: ReplicateAckBody = envelope.payload
        stream = self.streams.get(envelope.src)
        if stream is None or stream.incarnation != body.incarnation:
            return  # orphaned by a close, a retire or a re-bootstrap
        applied, acked = body.applied, stream.acked
        if applied <= acked:  # no progress; -1: we were deposed, or the
            if applied < 0:  # backup lost state: failover re-bootstraps it
                self._close_stream(stream)
            elif applied == acked and stream.flights and self.sim.now >= stream.gap_resend_at:
                stream.gap_resend_at = self.sim.now + RETRY_INTERVAL
                stream.flights.clear()
                self._pump(stream)
            return
        stream.acked = applied
        del stream.outbox[: applied - acked]
        waiters = stream.waiters
        while waiters and waiters[0][0] <= applied:
            waiters.pop(0)[1].count_down()
        metrics = self.metrics
        metrics.count("replication_records_streamed", applied - acked)
        # The one counter that is a maximum, not a sum.
        lag = stream.next_seq - 1 - applied
        if lag > metrics.counters["replication_lag_max"]:
            metrics.counters["replication_lag_max"] = lag
        flights = stream.flights
        while flights and flights[0] <= applied:
            del flights[0]
        stream.window = WINDOW
        stream.timer.cancel()
        stream.timer = None
        self._pump(stream)

    def _expire(self, stream: ReplicationStream) -> None:
        """No progress for ``RETRY_INTERVAL``: one strike, then a pause."""
        self.owner.node.rpc.strike(stream.backup)
        stream.window = 1
        stream.timer = self.sim.call_later(RETRY_INTERVAL, self._resend, stream)

    def _resend(self, stream: ReplicationStream) -> None:
        """Treat every batch on the wire as lost: resend from the ack."""
        stream.timer = None
        stream.flights.clear()
        self._pump(stream)

    def _close_stream(self, stream: ReplicationStream) -> None:
        stream.closed = True
        stream.outbox.clear()
        self._release(stream)

    @staticmethod
    def _release(stream: ReplicationStream) -> None:
        """Orphan the batches on the wire, disarm the timer, wake every
        parked waiter."""
        stream.incarnation += 1
        stream.flights.clear()
        stream.window = WINDOW
        if stream.timer is not None:
            stream.timer.cancel()
            stream.timer = None
        for _seq, latch in stream.waiters:
            latch.count_down()
        stream.waiters.clear()

    def _latch(self, targets) -> Optional[_AckLatch]:
        """Sync mode: one latch, bounded by ``sync_timeout``, over the
        listed ``(stream, seq)`` records still unacknowledged on an open
        stream (a closed one's backup is gone); ``None`` if there are none."""
        pending = self.config.mode == "sync" and [
            (stream, seq) for stream, seq in targets
            if not stream.closed and stream.acked < seq
        ]
        if not pending:
            return None
        latch = _AckLatch(self.sim, len(pending), self.config.sync_timeout)
        for stream, seq in pending:
            insort(stream.waiters, (seq, latch), key=lambda waiter: waiter[0])
        return latch

    def after_acked(self, targets, callback) -> None:
        """Run ``callback()`` once every listed record is acknowledged or
        its stream closed -- now, if all are; never on enqueue.  Nobody
        blocks, nothing is counted (S5: a prepare's write locks)."""
        latch = self._latch(targets)
        if latch is None:
            callback()
        else:
            latch.add_callback(lambda _latch: callback())

    def _await_acks(self, targets: List[Tuple[ReplicationStream, int]]):
        """The one replication wait of a commit, its decision's (S3): True
        when every target acknowledged, False when ``sync_timeout`` expired
        first -- the caller proceeds anyway (the records stay queued and
        retransmit), so a partitioned backup costs latency and redundancy,
        never availability."""
        latch = self._latch(targets)
        if latch is None or (yield latch):
            return True
        late = []
        for stream, seq in targets:
            if (seq, latch) in stream.waiters:
                stream.waiters.remove((seq, latch))
                late.append(stream.backup)
        self.tracer.emit(
            self.node_id, "replication_degraded", backups=tuple(late)
        )
        return False

    # ------------------------------------------------------------------
    # Hooks called by the protocol node
    # ------------------------------------------------------------------
    def replicate_prepare(self, request):
        """Stream a participant's staged writes.  The vote waits for no ack
        (S4); returned are the ``(stream, seq)`` records the entry's write
        locks outlive (S5, :meth:`after_acked`)."""
        return self._enqueue_by_key(
            request.writes, "prepare", txn_id=request.txn_id,
            coordinator=request.coordinator, round=request.round,
        )

    def note_abort(self, txn_id: int, writes, round_no: int = 0) -> None:
        """Stream the unstaging of an aborted prepare (asynchronous)."""
        self._enqueue_by_key(
            dict(writes) if not isinstance(writes, dict) else writes,
            "abort", txn_id=txn_id, round=round_no,
        )

    def replicate_decision(
        self, txn_id: int, seq_no: int, commit_vc, collected, writes=()
    ):
        """Stream a coordinator's commit decision; sync-gate the ack.

        ``writes`` is the round's, ``(site, key, value)``: the record alone
        re-creates every participant's staged writes (S4).  It goes to
        :meth:`_decision_targets` of this site's share, not to every
        stream -- promotion merges a dead origin's decisions from every
        live node -- and the acknowledgement and every Decide wait for all
        of them.
        """
        targets: List[Tuple[ReplicationStream, int]] = []
        own = [key for site, key, _value in writes if site == self.node_id]
        for backup in self._decision_targets(own):
            seq = self._enqueue(
                backup, "decision", txn_id=txn_id, origin=self.node_id,
                seq_no=seq_no, commit_vc=commit_vc, collected=collected,
                writes=writes,
            )
            if seq is not None:
                targets.append((self.streams[backup], seq))
        yield from self._await_acks(targets)

    def note_apply(self, body: DecideBody, writes: Dict[Hashable, object]) -> None:
        """Stream an installed commit's versions, plus the new frontier.

        Called right after the install and clock advance, so the
        carried frontier covers every version a backed key holds below
        it: a promotion re-stages from above it (``failover._promote``).
        """
        self._enqueue_by_key(
            writes, "apply", txn_id=body.txn_id, origin=body.origin,
            seq_no=body.seq_no, commit_vc=body.commit_vc,
            collected=body.collected, frontier=self.owner.site_vc.to_tuple(),
        )

    # ------------------------------------------------------------------
    # Backup side: the REPLICATE handler
    # ------------------------------------------------------------------
    def on_replicate(self, envelope) -> None:
        """Apply a stream batch in order, atomically at delivery; answer
        the cumulative ack.  Duplicates (at or below the applied mark)
        drop; records past a gap wait in the buffer until it closes.  A
        closed stream, or one applied below the primary's ack (this
        backup lost state), is refused: ``-1``."""
        body: ReplicateBody = envelope.payload
        state = self.backup_state.get(body.primary)
        if state is None:
            state = self.backup_state[body.primary] = BackupState()
        applied = -1
        if not state.closed and body.acked <= state.applied:
            for entry in body.entries:
                if entry.seq > state.applied:
                    state.buffer[entry.seq] = entry
            store, wal, now = self.owner.store, self.owner.wal, self.sim.now
            while state.applied + 1 in state.buffer:
                entry = state.buffer.pop(state.applied + 1)
                state.apply(entry, store, now)
                if wal is not None:
                    wal.append(ReplicationRecord(body.primary, entry))
            applied = state.applied
        ack = ReplicateAckBody(body.incarnation, applied)
        self.owner.node.send(envelope.src, MessageType.REPLICATE_ACK, ack)

    # ------------------------------------------------------------------
    # Failover support
    # ------------------------------------------------------------------
    def applied_from(self, primary: int) -> int:
        """Freshness of this node's stream from ``primary`` (-1: none)."""
        state = self.backup_state.get(primary)
        if state is None or state.closed:
            return -1
        return state.applied

    def retire(self) -> None:
        """Depose this node as a replication primary (it was failed
        over): every stream closes and no record is ever enqueued or
        pumped again, so a restart cannot retransmit stale records into
        a promoted successor."""
        self._retired = True
        for stream in self.streams.values():
            self._close_stream(stream)

    def close_backup_state(self, primary: int) -> None:
        """Refuse future stream traffic from a failed-over primary, seen or not."""
        state = self.backup_state.setdefault(primary, BackupState())
        state.closed = True
        state.buffer.clear()

    def reset_stream(self, backup: int) -> None:
        """Reopen a stream after a verbatim re-bootstrap of the backup: the
        shipped chains hold everything it ever streamed, so the outbox
        clears and the ack jumps to the head; numbering stays dense."""
        stream = self._stream(backup)
        stream.outbox.clear()
        stream.closed = False
        stream.acked = stream.next_seq - 1
        self._release(stream)

    def adopt_stream(
        self, primary: int, applied: int, frontier: Optional[Tuple[int, ...]]
    ) -> None:
        """Install fresh backup-side state after a verbatim bootstrap.
        Decisions already held carry over: a re-bootstrapped decision
        home still answers for them when ``primary`` fails over."""
        state = BackupState(applied=applied, frontier=frontier)
        old = self.backup_state.get(primary)
        if old is not None:
            state.decisions = old.decisions
        self.backup_state[primary] = state

    def on_recovered(self, replayed: Dict[int, BackupState]) -> None:
        """Durable-crash restart: the outboxes died, so every stream
        closes (the failover driver re-bootstraps live backups); backup
        state is adopted as the WAL replay rebuilt it, with the store."""
        for stream in self.streams.values():
            self._close_stream(stream)
        self.backup_state = replayed


class ClusterReplication:
    """Cluster-wide replication state: placement, routing, failover.

    Built by :class:`repro.system.Cluster` when ``ReplicationConfig.enabled``
    (on a ShardMap directory); attaches a :class:`NodeReplication` to every
    MVCC node.  ``placement`` is seeded from the directory
    (:func:`backups_for_shard`) and mutated only by failover."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.config: ReplicationConfig = cluster.config.replication
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.shard_map = cluster.directory
        #: Sites deposed by a failover (or crashed beyond repair); they
        #: receive no stream traffic.
        self.down: Set[int] = set()
        #: Bumped on every placement mutation (cache invalidation).
        self.version = 0
        #: shard -> backup ids (never contains the shard's owner).
        factor = self.config.replication_factor
        self.placement: Dict[int, Tuple[int, ...]] = {
            shard: backups_for_shard(self.shard_map, shard, factor)
            for shard in range(self.shard_map.num_shards)
        }
        self.driver = FailoverDriver(self)
        for node in cluster.nodes:
            self.attach(node)

    def attach(self, node) -> None:
        """Wire one protocol node into the replication substrate."""
        rep = node.replication = NodeReplication(node, self)
        node.node.on(MessageType.REPLICATE, rep.on_replicate)
        node.node.on(MessageType.REPLICATE_ACK, rep.on_replicate_ack)

    # ------------------------------------------------------------------
    # Placement queries
    # ------------------------------------------------------------------
    def backups_for_key(self, key: Hashable) -> Tuple[int, ...]:
        return self.placement.get(self.shard_map.shard_of(key), ())

    def is_excluded(self, node_id: int) -> bool:
        cluster = self.cluster
        return (node_id in self.down or node_id in cluster._removed
                or cluster.network.is_crashed(node_id))

    # ------------------------------------------------------------------
    # Foreground failover waits
    # ------------------------------------------------------------------
    def failover_armed(self) -> bool:
        return self.config.failover_timeout is not None

    def wait_for_failover(self, sites):
        """Park until every listed site owns no shards (failed over):
        the commit retry loop waits out a dead participant's promotion,
        then re-prepares at the new owners.  True if it flipped in time."""
        sites = list(sites)
        shards_of = self.shard_map.shards_of
        return (yield from self._park_until(
            lambda: all(not shards_of(site) for site in sites)
        ))

    def wait_for_site_flip(self, key: Hashable, stale_owner: int):
        """Park until ``key`` routes away from ``stale_owner`` (bounded)."""
        site = self.shard_map.site
        return (yield from self._park_until(lambda: site(key) != stale_owner))

    def _park_until(self, flipped):
        """Poll ``flipped()`` every half failover timeout, for ten."""
        if not self.failover_armed():
            return False
        timeout = self.config.failover_timeout
        deadline = self.sim.now + timeout * 10
        while not flipped():
            if self.sim.now >= deadline:
                return False
            yield self.sim.timeout(timeout / 2)
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.driver.start()

    def stop(self) -> None:
        self.driver.stop()

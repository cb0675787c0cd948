"""Per-shard primary-backup replication under the transactional core.

The paper treats each preferred site as one highly-available node; this
module discharges that assumption under the cluster's one-node-per-site
abstraction: every :class:`~repro.cluster.directory.ShardMap` shard
keeps its primary -- the site the directory already names -- plus
``replication_factor - 1`` backups chosen deterministically from the
directory, and the primary streams its transactional state changes to
them over per-(primary, backup) FIFO streams (``docs/replication.md``).

The stream carries five record kinds (:class:`~repro.core.wire.
ReplicationEntry`): ``prepare`` stages an in-flight 2PC participant's
writes, ``abort`` drops a staged entry, ``decision`` records a commit
this primary coordinated, ``apply`` installs a commit's versions
verbatim, and ``frontier`` is a clock-only freshness update (coalesced
in the outbox; enqueued only under ``read_from_backups``, whose frozen
reads are its one consumer).  Acknowledgements are cumulative -- the
backup applies strictly in sequence order and replies with its applied
high-water mark -- so an unacknowledged suffix simply retransmits after
a partition or a lost reply, and duplicates are dropped by sequence.

In ``sync`` mode the primary defers its externally visible effects on
the stream acks: a participant's yes-vote waits for the ``prepare``
record, the coordinator's commit acknowledgement for the ``decision``
record (both bounded by ``sync_timeout``; on expiry the commit
*degrades* to asynchronous replication and proceeds -- availability
over redundancy, counted in ``replication_sync_degraded``).  ``async``
mode never waits and only tracks the per-backup replicated frontier.

Failover is driven by :class:`FailoverDriver`: when a majority of live
armed failure detectors classify a shard owner dead, the freshest
backup (highest applied stream sequence) is promoted behind the
membership fence -- staged prepares resolve through the decision log
(or a TXN_STATUS query), the dead coordinator's decisions are
re-announced, the shard-map entries flip, and the surviving backups are
re-bootstrapped.  Racing prepares park on the fence and re-prepare
against the new owner, so a failover costs round trips, never aborts.

Read-forwarding (``read_from_backups``) lets backups serve *frozen*
read-only requests Walter-style, but only when the backup's replicated
frontier dominates the request's snapshot; otherwise the request is
forwarded to the primary (soundness argument: ``docs/replication.md``).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.cluster.handoff import fenced_handoff
from repro.config import ReplicationConfig
from repro.core.repair import decision_table, reannounce
from repro.core.transaction import PreparedTxn
from repro.core.vector_clock import VectorClock, covers
from repro.core.walter.visibility import select_walter_version
from repro.core.wire import (
    DecideBody,
    ReadRequestBody,
    ReadReturnBody,
    ReplicateAckBody,
    ReplicateBody,
    ReplicationEntry,
    VoteBody,
)
from repro.net.message import MessageType
from repro.replication.backup import BackupState
from repro.sim import Event, PeriodicLoop
from repro.storage.wal import ReplicationRecord

#: Stream records per REPLICATE message (flow control).
BATCH_RECORDS = 16
#: Reply deadline of one REPLICATE batch, and the pump's further pause
#: before it retransmits an unacknowledged one.
RETRY_INTERVAL = 1e-3


def backups_for_shard(
    shard_map,
    shard: int,
    factor: int,
    down: Optional[Set[int]] = None,
    keep: Sequence[int] = (),
) -> Tuple[int, ...]:
    """The deterministic backup set for one shard.

    ``keep`` (a failover's live surviving backups) comes first; the rest
    are the member ids minus the shard's owner and any ``down`` sites, in
    sorted order rotated by the shard index -- so backup load spreads
    evenly across the cluster and the placement is a pure function of
    the directory (any node, or a test, can recompute it without
    coordination).  Returns at most ``factor - 1`` backups; a cluster
    smaller than the replication factor simply gets every other live
    member.
    """
    owner = shard_map.owner_of(shard)
    excluded = down if down is not None else ()
    candidates = sorted(
        n for n in shard_map.node_ids
        if n != owner and n not in excluded and n not in keep
    )
    rotation = shard % len(candidates) if candidates else 0
    rotated = candidates[rotation:] + candidates[:rotation]
    return tuple((list(keep) + rotated)[: max(0, factor - 1)])


class _AckLatch(Event):
    """One sync wait over several streams: True once every stream it is
    registered on acknowledged (or closed), False if ``sync_timeout``
    expires first -- either way its waiter wakes exactly once."""

    __slots__ = ("remaining",)

    def __init__(self, sim, count: int) -> None:
        super().__init__(sim, name="ack-latch")
        self.remaining = count

    def count_down(self) -> None:
        self.remaining -= 1
        if self.remaining == 0 and not self.triggered:
            self.succeed(True)

    def expire(self) -> None:
        if not self.triggered:
            self.succeed(False)


class ReplicationStream:
    """Primary-side state of one primary -> backup FIFO stream."""

    __slots__ = (
        "backup", "next_seq", "acked", "inflight_hi", "outbox", "closed",
        "inflight", "waiters",
    )

    def __init__(self, backup: int) -> None:
        self.backup = backup
        #: Next sequence number to assign (dense, starting at 1).
        self.next_seq = 1
        #: Cumulative ack: every record at or below this was applied.
        self.acked = 0
        #: Highest sequence number ever handed to the wire; frontier
        #: coalescing may only mutate entries above it.
        self.inflight_hi = 0
        #: Unacknowledged suffix, dense: the head is ``acked + 1``.
        self.outbox: List[ReplicationEntry] = []
        #: Closed streams accept no records: the sender was deposed by a
        #: failover, or the backup lost its stream state and must be
        #: re-bootstrapped before streaming can resume.
        self.closed = False
        #: The one REPLICATE request on the wire or awaiting its
        #: retransmission; later records ride the next batch.  Cleared
        #: on close/restart, which makes that request's reply stale.
        self.inflight: Optional[Event] = None
        #: ``(seq, latch)`` per sync wait parked on this stream, in
        #: sequence order; the ack path counts the latches down.
        self.waiters: List[Tuple[int, _AckLatch]] = []


class NodeReplication:
    """The per-node half of the replication substrate.

    Lives on every MVCC protocol node of a replication-enabled cluster
    (``node.replication``); owns the primary-side streams to this
    node's backups and the backup-side state for every primary this
    node backs.  The protocol node calls in at four points: prepare
    (stage), commit decision (log), decide-apply (install + frontier),
    and propagate (frontier); the REPLICATE message handler is the
    backup side.
    """

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
        #: A deposed (failed-over) primary stops pumping forever; its
        #: retransmissions must not race the promoted successor.
        self._retired = False
        self._backup_cache: Tuple[int, ...] = ()
        self._backup_cache_key: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _all_backups(self) -> Tuple[int, ...]:
        """Every backup of every shard this node currently owns."""
        rep = self.cluster_rep
        key = (rep.shard_map.epoch, rep.version)
        if self._backup_cache_key != key:
            backups: Set[int] = set()
            for shard in rep.shard_map.shards_of(self.node_id):
                backups.update(rep.placement.get(shard, ()))
            backups.discard(self.node_id)
            backups.difference_update(rep.down)
            self._backup_cache = tuple(sorted(backups))
            self._backup_cache_key = key
        return self._backup_cache

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
        if kind == "frontier" and stream.outbox:
            last = stream.outbox[-1]
            if last.kind == "frontier" and last.seq > stream.inflight_hi:
                # Coalesce: the trailing un-sent frontier record absorbs
                # the newer snapshot instead of growing the outbox.
                last.frontier = fields["frontier"]
                return last.seq
        entry = ReplicationEntry(seq=stream.next_seq, kind=kind, **fields)
        stream.next_seq += 1
        stream.outbox.append(entry)
        if stream.inflight is None:
            self._send_batch(stream)
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
            entry_writes = tuple(
                sorted(by_backup[backup], key=lambda kv: repr(kv[0]))
            )
            seq = self._enqueue(backup, kind, writes=entry_writes, **fields)
            if seq is not None:
                targets.append((self.streams[backup], seq))
        return targets

    def _send_batch(self, stream: ReplicationStream) -> None:
        """Put the outbox head on the wire: one batch in flight per stream.

        Its reply sends the next one; the ``RETRY_INTERVAL`` deadline
        means a crashed backup can never hang the stream.
        """
        if self.cluster_rep.is_excluded(stream.backup):
            # Crashed or failed over: the driver re-bootstraps it later.
            self._close_stream(stream)
            return
        batch = tuple(stream.outbox[:BATCH_RECORDS])
        hi = batch[-1].seq
        if hi > stream.inflight_hi:
            stream.inflight_hi = hi
        stream.inflight = self.owner.node.rpc.request(
            stream.backup,
            MessageType.REPLICATE,
            ReplicateBody(self.node_id, batch),
            deadline=RETRY_INTERVAL,
        )
        stream.inflight.add_callback(partial(self._on_batch_reply, stream))

    def _on_batch_reply(self, stream: ReplicationStream, reply: Event) -> None:
        """A batch's cumulative ack arrived, or its deadline expired."""
        if stream.inflight is not reply:
            return  # closed, retired, crashed or re-bootstrapped since
        if reply.ok:
            applied = reply.value.applied
            acked = stream.acked
            if applied < acked:
                # -1: a failover deposed us.  Otherwise the backup
                # restarted and lost stream state we no longer hold:
                # close, and let the driver re-bootstrap.
                self._close_stream(stream)
                return
            if applied > acked:
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
                if stream.outbox:
                    self._send_batch(stream)
                else:
                    stream.inflight = None
                return
        # Timed out (the endpoint struck the failure detector), or no
        # progress: retransmit after a pacing interval.
        self.sim.call_later(
            RETRY_INTERVAL, self._retransmit, stream, reply
        )

    def _retransmit(self, stream: ReplicationStream, failed: Event) -> None:
        if stream.inflight is failed:
            self._send_batch(stream)

    def _close_stream(self, stream: ReplicationStream) -> None:
        stream.closed = True
        stream.outbox.clear()
        self._release(stream)

    @staticmethod
    def _release(stream: ReplicationStream) -> None:
        """Orphan the in-flight batch and wake every parked waiter."""
        stream.inflight = None
        for _seq, latch in stream.waiters:
            latch.count_down()
        stream.waiters.clear()

    def _await_acks(self, targets: List[Tuple[ReplicationStream, int]]):
        """Sync mode: wait (bounded) for the listed records' acks.

        True when every target stream acknowledged, False when
        ``sync_timeout`` expired first -- the caller proceeds anyway
        (the records stay queued and retransmit), so a partitioned
        backup costs latency and redundancy, never availability.
        Closed streams count as satisfied: their backup is gone.
        """
        if self.config.mode != "sync":
            return True
        pending = [
            (stream, seq) for stream, seq in targets
            if not stream.closed and stream.acked < seq
        ]
        if not pending:
            return True
        latch = _AckLatch(self.sim, len(pending))
        for stream, seq in pending:
            stream.waiters.append((seq, latch))
        timer = self.sim.call_later(self.config.sync_timeout, latch.expire)
        acked = yield latch
        if acked:
            timer.cancel()
            return True
        late = []
        for stream, seq in pending:
            if (seq, latch) in stream.waiters:
                stream.waiters.remove((seq, latch))
                late.append(stream.backup)
        self.metrics.count("replication_sync_degraded")
        if self.tracer._enabled:
            self.tracer.emit(
                self.node_id, "replication_degraded", backups=tuple(late)
            )
        return False

    # ------------------------------------------------------------------
    # Hooks called by the protocol node
    # ------------------------------------------------------------------
    def replicate_prepare(self, request):
        """Stream a participant's staged writes; sync-gate the yes-vote.

        Self-coordinated prepares skip the wait: their vote never
        leaves the node, and the later ``decision`` record on the same
        FIFO streams (higher seq, cumulative ack) covers this one
        before the commit acknowledgement escapes.
        """
        targets = self._enqueue_by_key(
            request.writes,
            "prepare",
            txn_id=request.txn_id,
            coordinator=request.coordinator,
            round=request.round,
        )
        if request.coordinator != self.node_id:
            yield from self._await_acks(targets)

    def note_abort(self, txn_id: int, writes, round_no: int = 0) -> None:
        """Stream the unstaging of an aborted prepare (asynchronous)."""
        self._enqueue_by_key(
            dict(writes) if not isinstance(writes, dict) else writes,
            "abort",
            txn_id=txn_id,
            round=round_no,
        )

    def replicate_decision(self, txn_id: int, seq_no: int, commit_vc, collected):
        """Stream a coordinator's commit decision; sync-gate the ack.

        Decision records go to *every* stream this node keeps (not just
        the written keys' backups): the promotion protocol re-announces
        them, so each backup must hold the contiguous decision prefix.
        """
        targets: List[Tuple[ReplicationStream, int]] = []
        for backup in self._all_backups():
            seq = self._enqueue(
                backup,
                "decision",
                txn_id=txn_id,
                origin=self.node_id,
                seq_no=seq_no,
                commit_vc=commit_vc,
                collected=collected,
            )
            if seq is not None:
                targets.append((self.streams[backup], seq))
        yield from self._await_acks(targets)

    def note_apply(self, body: DecideBody, writes: Dict[Hashable, object]) -> None:
        """Stream an installed commit's versions, plus the new frontier.

        Called right after the install and clock advance, so the
        carried frontier provably covers every version a backed key
        holds below it (the read-forwarding soundness invariant).
        With ``read_from_backups`` on, backups not touched by these
        writes get a coalesced clock-only frontier record instead.
        """
        frontier = self.owner.site_vc.to_tuple()
        targets = self._enqueue_by_key(
            writes,
            "apply",
            txn_id=body.txn_id,
            origin=body.origin,
            seq_no=body.seq_no,
            commit_vc=body.commit_vc,
            collected=body.collected,
            frontier=frontier,
        )
        if self.config.read_from_backups:
            self.note_frontier({stream.backup for stream, _seq in targets})

    def note_frontier(self, covered=frozenset()) -> None:
        """Stream a clock-only freshness update (coalesced per stream) to
        every backup not ``covered`` by a record that already carries it;
        frozen backup reads are the frontier's only reader."""
        if not self.config.read_from_backups:
            return
        frontier = self.owner.site_vc.to_tuple()
        for backup in self._all_backups():
            if backup not in covered:
                self._enqueue(backup, "frontier", frontier=frontier)

    # ------------------------------------------------------------------
    # Backup side: the REPLICATE handler
    # ------------------------------------------------------------------
    def on_replicate(self, envelope) -> None:
        """Apply a stream batch in order; reply the cumulative ack.

        Plain (non-generator) handler: applies are synchronous verbatim
        installs, so a whole batch lands atomically at delivery time.
        Records at or below the applied mark are duplicates from a
        retransmission and are dropped; out-of-order records (an
        earlier batch lost) wait in the buffer until the gap closes.
        """
        rpc = self.owner.node.rpc
        body: ReplicateBody = rpc.body_of(envelope)
        state = self.backup_state.get(body.primary)
        if state is None:
            state = self.backup_state[body.primary] = BackupState()
        if state.closed:
            rpc.reply(envelope, ReplicateAckBody(-1))
            return
        for entry in body.entries:
            if entry.seq <= state.applied:
                continue
            state.buffer[entry.seq] = entry
        store, wal, now = self.owner.store, self.owner.wal, self.sim.now
        while state.applied + 1 in state.buffer:
            entry = state.buffer.pop(state.applied + 1)
            state.apply(entry, store, now)
            if wal is not None:
                wal.append(ReplicationRecord(body.primary, entry))
        rpc.reply(envelope, ReplicateAckBody(state.applied))

    # ------------------------------------------------------------------
    # Read-forwarding (backup side of a frozen read)
    # ------------------------------------------------------------------
    def serve_or_forward(self, envelope, request: ReadRequestBody):
        """Serve a frozen read locally, or forward it to the primary.

        Generator subroutine called from ``on_read_request``.  Returns
        True when the request was fully handled (replied, or
        deliberately dropped so the requester's own retry re-routes it)
        and False when this node turns out to *own* the key -- a
        failover promoted it mid-flight -- in which case the caller
        falls through to the normal read path.

        The local serve is Walter's rule against the carried snapshot
        (``max_vc=None``: the requester's clock never advances), gated
        on the replicated frontier dominating the snapshot: every
        version of a backed key at or below the frontier is provably in
        the local chains, so "freshest visible" here equals "freshest
        visible at the primary" for this snapshot.
        """
        owner = self.owner
        key = request.key
        shard_map = self.cluster_rep.shard_map
        primary = shard_map.site(key)
        if primary == self.node_id:
            return False
        state = self.backup_state.get(primary)
        store = owner.store
        if (
            state is not None
            and not state.closed
            and state.frontier is not None
            and covers(state.frontier, request.vc, owner.membership.dropped)
            and key in store
        ):
            chain = store.chain(key)
            try:
                version, _ = select_walter_version(
                    chain, request.vc, owner.membership.dropped
                )
            except RuntimeError:
                version = None
            if version is not None:
                latest_vid = chain.latest.vid
                cost = (
                    owner.costs.read_handler
                    + owner.costs.version_scan_item
                    * (latest_vid - version.vid + 1)
                )
                yield from owner.cpu.consume(cost)
                self.metrics.count("backup_reads_served")
                if self.tracer._enabled:
                    self.tracer.emit(
                        self.node_id, "backup_read", txn=request.txn_id,
                        key=key, vid=version.vid, primary=primary,
                    )
                owner.node.rpc.reply(
                    envelope,
                    ReadReturnBody(version.value, None, version.vid, latest_vid),
                )
                return True
        # Forward: re-read the directory each attempt so a concurrent
        # failover re-routes the read to the promoted primary.
        body = ReadRequestBody(
            txn_id=request.txn_id,
            is_read_only=request.is_read_only,
            key=key,
            vc=request.vc,
            has_read=request.has_read,
        )
        for _attempt in range(8):
            target = shard_map.site(key)
            if target == self.node_id:
                return False  # promoted meanwhile: serve it ourselves
            ok, reply = yield from owner.node.rpc.call_settled(
                target, MessageType.READ_REQUEST, body
            )
            if ok:
                self.metrics.count("backup_reads_forwarded")
                owner.node.rpc.reply(envelope, reply)
                return True
            yield self.sim.timeout(RETRY_INTERVAL)
        # Give up silently: the requester's own RPC timeout re-routes
        # the read (possibly to the promoted primary) -- replying a
        # stale value here would be the one unsound option.
        return True

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
        """Refuse future stream traffic from a failed-over primary."""
        state = self.backup_state.get(primary)
        if state is not None:
            state.closed = True
            state.buffer.clear()

    def reset_stream(self, backup: int) -> None:
        """Reopen a stream after a verbatim re-bootstrap of the backup.

        The shipped chains already reflect everything this primary ever
        streamed, so the outbox clears and the ack jumps to the stream
        head -- the next record continues the dense numbering.
        """
        stream = self._stream(backup)
        stream.outbox.clear()
        stream.closed = False
        stream.acked = stream.next_seq - 1
        stream.inflight_hi = stream.acked
        self._release(stream)

    def adopt_stream(
        self, primary: int, applied: int, frontier: Optional[Tuple[int, ...]]
    ) -> None:
        """Install fresh backup-side state after a verbatim bootstrap."""
        self.backup_state[primary] = BackupState(
            applied=applied, frontier=frontier
        )

    def on_recovered(self, replayed: Dict[int, BackupState]) -> None:
        """Durable-crash restart: the volatile stream state died.

        Primary-side outboxes are gone, so every stream closes -- the
        failover driver re-bootstraps live backups with a verbatim
        re-ship.  Backup-side state is adopted as the WAL replay rebuilt
        it (the rebuilt store already holds the replayed installs).
        """
        for stream in self.streams.values():
            self._close_stream(stream)
        self.backup_state = replayed


class ClusterReplication:
    """Cluster-wide replication state: placement, routing, failover.

    Constructed by :class:`repro.system.Cluster` when
    ``ReplicationConfig.enabled`` is set (requires a ShardMap
    directory); attaches a :class:`NodeReplication` to every MVCC node
    and registers the REPLICATE handlers.  The explicit ``placement``
    table is seeded deterministically from the directory
    (:func:`backups_for_shard`) and mutated only by failover --
    mirroring how the ShardMap itself is deterministic state mutated by
    migrations.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.config: ReplicationConfig = cluster.config.replication
        self.sim = cluster.sim
        self.metrics = cluster.metrics
        self.tracer = cluster.tracer
        self.shard_map = cluster.directory
        #: Sites deposed by a failover (or crashed beyond repair); they
        #: receive no stream traffic and serve no backup reads.
        self.down: Set[int] = set()
        #: Bumped on every placement mutation (cache invalidation).
        self.version = 0
        #: shard -> backup ids (never contains the shard's owner).
        self.placement: Dict[int, Tuple[int, ...]] = {
            shard: backups_for_shard(
                self.shard_map, shard, self.config.replication_factor
            )
            for shard in range(self.shard_map.num_shards)
        }
        self.driver = FailoverDriver(self)
        for node in cluster.nodes:
            self.attach(node)

    def attach(self, node) -> None:
        """Wire one protocol node into the replication substrate."""
        node.replication = NodeReplication(node, self)
        node.node.on(MessageType.REPLICATE, node.replication.on_replicate)

    # ------------------------------------------------------------------
    # Placement queries
    # ------------------------------------------------------------------
    def backups_for_key(self, key: Hashable) -> Tuple[int, ...]:
        return self.placement.get(self.shard_map.shard_of(key), ())

    def is_excluded(self, node_id: int) -> bool:
        return (
            node_id in self.down
            or node_id in self.cluster._removed
            or self.cluster.network.is_crashed(node_id)
        )

    def read_targets(self, key: Hashable) -> List[int]:
        """Candidate servers for a read-only read of ``key``: the owner
        first, then every live backup (``read_from_backups`` only)."""
        owner = self.shard_map.site(key)
        targets = [owner]
        if self.config.read_from_backups:
            for backup in self.backups_for_key(key):
                if backup != owner and not self.is_excluded(backup):
                    targets.append(backup)
        return targets

    # ------------------------------------------------------------------
    # Foreground failover waits
    # ------------------------------------------------------------------
    def failover_armed(self) -> bool:
        return self.config.failover_timeout is not None

    def wait_for_failover(self, sites):
        """Park until every listed site owns no shards (failed over).

        Generator subroutine used by the commit retry loop: instead of
        aborting on a dead participant, the coordinator waits for the
        promotion to flip the dead site's shards, then re-prepares
        against the new owners.  Returns True when the flip happened in
        time.
        """
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
        while True:
            if flipped():
                return True
            if self.sim.now >= deadline:
                return False
            yield self.sim.timeout(timeout / 2)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.driver.start()

    def stop(self) -> None:
        self.driver.stop()


class FailoverDriver:
    """Detector-driven promotion of backups over dead shard owners.

    Runs as a cluster-level background loop when ``failover_timeout`` is
    set.  Each scan asks the *live* nodes' armed accrual detectors for
    a majority verdict on every shard owner -- a node partitioned away
    sees everyone dead, but cannot out-vote the connected majority, so
    a pairwise partition never triggers a spurious failover.  A dead
    owner's shards are promoted to the freshest live backup of each
    (highest applied stream sequence, ties to the lowest id), and the
    scan also repairs broken streams by re-bootstrapping restarted
    backups from their primaries.
    """

    def __init__(self, rep: ClusterReplication) -> None:
        self.rep = rep
        self.cluster = rep.cluster
        self.sim = rep.sim
        self.config = rep.config
        self.metrics = rep.metrics
        self.tracer = rep.tracer
        timeout = self.config.failover_timeout
        self._loop = PeriodicLoop(
            self.sim, None if timeout is None else timeout / 2, self._scan,
            "failover-driver",
        )

    def start(self) -> None:
        self._loop.start()

    def stop(self) -> None:
        self._loop.stop()

    # ------------------------------------------------------------------
    # Scan
    # ------------------------------------------------------------------
    def _live(self, node_id: int) -> bool:
        return not self.rep.is_excluded(node_id)

    def _majority_dead(self, target: int) -> bool:
        """Do a majority of live armed detectors classify ``target`` dead?

        Crashed voters are excluded (their silent detectors would see
        everyone dead); so are deposed and removed sites.  With no
        armed detectors anywhere the answer is always False -- failover
        requires the healing layer's detector to be configured.
        """
        votes = 0
        voters = 0
        for node in self.cluster.nodes:
            node_id = node.node_id
            if node_id == target or not self._live(node_id):
                continue
            healing = node.healing
            if not healing.armed:
                continue
            voters += 1
            if healing.detector.is_dead(target):
                votes += 1
        return voters > 0 and votes * 2 > voters

    def _scan(self):
        rep = self.rep
        for primary in list(rep.shard_map.node_ids):
            if primary in self.cluster._removed:
                continue
            if not rep.shard_map.shards_of(primary):
                continue
            # A site already deposed but still owning shards is a
            # partially-failed promotion (its successor crashed
            # mid-promotion): retry until every shard flips.
            if primary in rep.down or self._majority_dead(primary):
                yield from self.fail_over(primary)
        yield from self._repair_backups()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def fail_over(self, dead: int):
        """Depose ``dead`` and promote the freshest backup per shard."""
        rep = self.rep
        nodes = self.cluster.nodes
        first = dead not in rep.down
        rep.down.add(dead)
        rep.version += 1
        nodes[dead].replication.retire()
        if first and self.tracer._enabled:
            self.tracer.emit(dead, "failover_start", shards=len(rep.shard_map.shards_of(dead)))
        shards = rep.shard_map.shards_of(dead)
        by_successor: Dict[int, List[int]] = {}
        orphaned: List[int] = []
        for shard in shards:
            live_backups = [
                b for b in rep.placement.get(shard, ()) if self._live(b)
            ]
            if not live_backups:
                orphaned.append(shard)
                continue
            successor = max(
                live_backups,
                key=lambda b: (nodes[b].replication.applied_from(dead), -b),
            )
            by_successor.setdefault(successor, []).append(shard)
        promoted = 0
        for successor in sorted(by_successor):
            done = yield from self._promote(
                dead, successor, by_successor[successor]
            )
            if done:
                promoted += len(by_successor[successor])
        if promoted and not rep.shard_map.shards_of(dead):
            # The deposed site owns nothing anymore: refuse any
            # straggling stream traffic from it, everywhere.
            for node in nodes:
                if node.node_id != dead:
                    node.replication.close_backup_state(dead)
            self.metrics.count("failovers_completed", promoted)
            if self.tracer._enabled:
                self.tracer.emit(
                    dead, "failover_complete", shards=promoted,
                )
        if orphaned and self.tracer._enabled:
            self.tracer.emit(dead, "failover_orphaned", shards=tuple(orphaned))

    def _promote(self, dead: int, successor: int, shards: List[int]):
        """Promote ``successor`` to own ``shards`` of the dead primary.

        Behind the key fence: (1) resolve every staged prepare through
        the replicated decision log, a TXN_STATUS query to its live
        coordinator, or -- when the coordinator is unreachable --
        a transplant into the prepared table so the re-announced Decide
        or the termination protocol finishes the job; (2) re-announce
        the dead coordinator's decisions (a contiguous seq prefix, in
        order) to every live peer, unwedging participants that would
        otherwise presume abort and advancing ``siteVC[dead]``
        everywhere; (3) flip the shard-map entries.  Afterwards the
        shard's backup set is recomputed and re-bootstrapped from the
        new primary.
        """
        rep = self.rep
        cluster = self.cluster
        shard_map = rep.shard_map
        successor_node = cluster.nodes[successor]
        incarnation = successor_node._incarnation
        shard_set = set(shards)
        shard_of = shard_map.shard_of
        state = successor_node.replication.backup_state.get(dead)
        staged: List = []
        decisions: List = []
        if state is not None and not state.closed:
            # Stream order for staged installs: per-key conflicts were
            # lock-serialized at the dead primary, so prepare-stream
            # order is install order.  Decisions re-announce in commit
            # (seq_no) order for the in-order apply rule.
            staged = sorted(state.staged.values(), key=lambda e: e.seq)
            decisions = sorted(state.decisions.values(), key=lambda e: e.seq_no)
        keys = {
            key for key in successor_node.store.keys()
            if shard_of(key) in shard_set
        }
        for entry in staged:
            keys.update(
                key for key, _value in entry.writes
                if shard_of(key) in shard_set
            )
        keys = sorted(keys, key=repr)
        successor_node.fence.raise_keys(keys)
        flipped = False
        installed = 0
        try:
            for entry in staged:
                writes = tuple(
                    (key, value) for key, value in entry.writes
                    if shard_of(key) in shard_set
                )
                if not writes:
                    continue
                resolved = None
                decision = state.decisions.get(entry.txn_id)
                if decision is not None:
                    resolved = decision
                elif entry.coordinator == dead:
                    # The dead primary coordinated it and logged no
                    # decision on this stream: by decision-before-
                    # Decide, no participant installed it.  Presumed
                    # abort is exact, not a guess.
                    resolved = False
                elif self._live(entry.coordinator):
                    resolved = yield from successor_node.in_doubt.outcome(
                        entry.txn_id, entry.coordinator
                    )
                    if (
                        successor_node._incarnation != incarnation
                        or not self._live(successor)
                    ):
                        return False
                if resolved is False:
                    continue
                if resolved is None:
                    # Coordinator unreachable (it may be mid-failover
                    # itself): park the writes in the prepared table --
                    # no locks held -- so its successor's re-announced
                    # Decide, or the termination query, resolves them.
                    self._transplant_staged(successor_node, entry, writes)
                    continue
                vc = VectorClock(resolved.commit_vc)
                for key, value in writes:
                    if not self._has_version(
                        successor_node, key, resolved.origin, resolved.seq_no
                    ):
                        successor_node.store.install(
                            key,
                            value,
                            vc.copy(),
                            origin=resolved.origin,
                            seq=resolved.seq_no,
                            writer_txn=entry.txn_id,
                            installed_at=self.sim.now,
                        )
                        installed += 1
            # Nobody knows how far each peer got on the dead origin, so
            # every live peer hears the whole decision prefix, in commit
            # order for the in-order apply rule.
            if decisions:
                below = decisions[0].seq_no - 1
                reannounce(
                    successor_node,
                    decision_table(dead, decisions),
                    {
                        node.node_id: below for node in cluster.nodes
                        if self._live(node.node_id)
                    },
                    decisions[-1].seq_no,
                )
            if state is not None:
                state.staged.clear()
            # Cutover: flip each shard's owner entry under the fence.
            for shard in shards:
                shard_map.assign(shard, successor)
            flipped = True
        finally:
            successor_node.fence.lower_keys(keys)
        if not flipped:
            return False
        if self.tracer._enabled:
            self.tracer.emit(
                successor, "failover_promoted", dead=dead,
                shards=tuple(shards), staged_installed=installed,
                decisions=len(decisions),
            )
        # Recompute the flipped shards' backup sets (keep live
        # survivors, top up deterministically) and re-bootstrap each
        # from the new primary -- a verbatim re-ship also restarts the
        # record streams from a clean, provably consistent point.
        down = {n for n in shard_map.node_ids if not self._live(n)}
        for shard in shards:
            survivors = [
                b for b in rep.placement.get(shard, ())
                if b != successor and self._live(b)
            ]
            rep.placement[shard] = backups_for_shard(
                shard_map, shard, self.config.replication_factor, down,
                keep=survivors,
            )
        rep.version += 1
        backups = sorted(
            {b for shard in shards for b in rep.placement[shard]}
        )
        for backup in backups:
            backed = [s for s in shards if backup in rep.placement[s]]
            yield from self._bootstrap_backup(successor, backup, backed)
        return True

    @staticmethod
    def _has_version(node, key: Hashable, origin: int, seq_no: int) -> bool:
        if key not in node.store:
            return False
        for version in node.store.chain(key).newest_first():
            if version.origin == origin and version.seq == seq_no:
                return True
            if version.origin == origin and version.seq < seq_no:
                break
        return False

    def _transplant_staged(self, node, entry, writes) -> None:
        """Park unresolved staged writes in the node's prepared table."""
        if entry.txn_id in node._prepared:
            return
        transplanted = PreparedTxn(
            dict(writes),
            [],  # no locks: the dead primary's locks died with it
            VoteBody(True),
            entry.coordinator,
            round=entry.round,
        )
        node._stage(entry.txn_id, transplanted)

    # ------------------------------------------------------------------
    # Backup repair / bootstrap
    # ------------------------------------------------------------------
    def _repair_backups(self):
        """Re-bootstrap live backups whose streams closed.

        A stream closes when its backup crashed or restarted with lost
        stream state; once both ends are live again, a verbatim re-ship
        from the primary resumes replication from a consistent point.
        """
        rep = self.rep
        for node in self.cluster.nodes:
            node_rep = node.replication
            if node_rep._retired or not self._live(node.node_id):
                continue
            for backup, stream in list(node_rep.streams.items()):
                if not stream.closed or not self._live(backup):
                    continue
                shards = [
                    shard
                    for shard in rep.shard_map.shards_of(node.node_id)
                    if backup in rep.placement.get(shard, ())
                ]
                if not shards:
                    continue
                yield from self._bootstrap_backup(node.node_id, backup, shards)

    def _bootstrap_backup(
        self, primary_id: int, backup_id: int, shards: List[int]
    ):
        """Verbatim-ship ``shards`` to a backup and restart its stream.

        A fenced handoff without the ownership flip: chains are stable
        for the transfer, and the stream restarts -- with its frontier
        snapshot -- before the unfence, so every backed version at or
        below that frontier is provably in the shipped chains.
        """
        cluster = self.cluster
        if not self._live(primary_id) or not self._live(backup_id):
            return False
        primary = cluster.nodes[primary_id]
        shard_map = self.rep.shard_map
        shard_set = set(shards)
        keys = sorted(
            (
                key for key in primary.store.keys()
                if shard_map.shard_of(key) in shard_set
            ),
            key=repr,
        )

        def restart_stream():
            if not self._live(backup_id):
                return False
            primary.replication.reset_stream(backup_id)
            cluster.nodes[backup_id].replication.adopt_stream(
                primary_id,
                applied=primary.replication.streams[backup_id].acked,
                frontier=primary.site_vc.to_tuple(),
            )

        shipped = yield from fenced_handoff(
            primary, {backup_id: keys}, act=restart_stream
        )
        if not shipped:
            return False
        self.metrics.count("backup_bootstraps")
        if self.tracer._enabled:
            self.tracer.emit(
                primary_id, "backup_bootstrap", backup=backup_id,
                shards=tuple(shards), keys=len(keys),
            )
        return True

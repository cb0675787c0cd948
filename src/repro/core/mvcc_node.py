"""Shared multi-version PSI machinery for Walter and FW-KV.

Both protocols keep per-node vector clocks advanced by per-origin sequence
numbers, buffer writes until a 2PC commit across the written keys'
preferred sites, and propagate commits asynchronously to uninvolved nodes.
They differ in how reads select versions and in the version-access-set
(visible reads) bookkeeping; those differences live in the protocol
subclasses via the hook methods marked below.

This module is the paper's Algorithms 1-6 and nothing else: begin, read
and commit at the coordinator, and the read / prepare / decide handlers
with their validation and version GC (the in-order gate and Propagate:
:mod:`repro.core.apply`).  What the paper leaves out -- crashes, lost
messages, moving keys -- is composed in
(:mod:`repro.core.repair`, :mod:`repro.core.recovery`,
:mod:`repro.healing`, :mod:`repro.cluster.handoff`) across the seam
DESIGN.md "Layer contracts" writes down.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.cluster.handoff import Shipments
from repro.cluster.node import Node
from repro.core.apply import Applier
from repro.core.cost_model import (
    COMMIT_BASE, INSTALL_KEY, LOCK_OP, PREPARE_KEY, READ_HANDLER, VAS_ITEM,
    VERSION_SCAN_ITEM,
)
from repro.core.interfaces import BaseProtocolNode, SharedState
from repro.core.recovery import NodeRecovery
from repro.core.repair import Fence, InDoubtResolver, Round
from repro.core.transaction import PreparedTxn, Transaction
from repro.core.vector_clock import VectorClock, covers
from repro.core.wire import (
    NOTHING_COLLECTED, DecideBody, PrepareBody, PropagateBody, ReadRequestBody,
    ReadReturnBody, VoteBody,
)
from repro.healing import NodeHealing
from repro.metrics.stats import AbortReason
from repro.net.message import Envelope, MessageType
from repro.net.rpc import RpcTimeoutError
from repro.sim import AllOf, wait_until
from repro.storage.chain import GC_KEEP_VERSIONS, GC_MIN_AGE, GC_TRIGGER_LENGTH
from repro.storage.locks import LockTable
from repro.storage.store import MultiVersionStore
from repro.storage.version import Version
from repro.storage.group_commit import WalFlusher
from repro.storage.wal import (
    AbortRecord,
    ApplyRecord,
    LoadRecord,
    PrepareRecord,
    WriteAheadLog,
)

#: Prepare rounds :meth:`MVCCNode.commit` spends regrouping across
#: handoffs and failovers before it aborts.
MAX_ATTEMPTS = 5


class MVCCNode(BaseProtocolNode):
    """Common node logic for the two PSI protocols."""

    #: Whether the read handler takes the shared per-key lock, and whether
    #: a validation loss sends the retry to stand in line (FW-KV: both).
    reads_lock = retries_in_line = False

    def __init__(self, node: Node, shared: SharedState) -> None:
        super().__init__(node, shared)
        #: ``siteVC``: entry j is the newest sequence number from origin j
        #: applied at this node (paper Section 4.1).
        self.site_vc = VectorClock.zeros(shared.num_nodes)
        #: The one gate every advance of ``site_vc`` goes through.
        self.applier = Applier(self)
        #: Retried/duplicated read requests spawn concurrent handlers for
        #: the same transaction; a per-invocation token keeps their shared
        #: lock acquisitions independent of each other.
        self._read_token = 0
        self._reset_volatile()

        durability = shared.config.durability
        #: The node's "disk": survives a durable crash (see repro.storage.wal).
        #: Buffered (group-commit) mode iff syncs cost virtual time.
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog(buffered=durability.fsync_latency > 0)
            if durability.wal_enabled
            else None
        )
        #: The WAL's sync scheduler (inert when ``fsync_latency == 0``).
        self.flusher: Optional[WalFlusher] = (
            WalFlusher(
                self.sim,
                self.wal,
                durability,
                metrics=self.metrics,
                tracer=self.tracer,
                node_id=node.node_id,
            )
            if self.wal is not None
            else None
        )
        #: What parks reads and prepares while the state under them is
        #: repaired: node-wide from a durable crash until recovery
        #: completes, shard-scoped during a handoff.
        self.fence = Fence(self.sim, self.directory)
        #: Bumped by every volatile wipe.  In-flight processes that carry
        #: state across yields (decide appliers, ``Applier.advance`` runs,
        #: recovery itself) re-check it before mutating the store or the
        #: clock: a process from a wiped incarnation must not leak its
        #: effects into the rebuilt one.
        self._incarnation = 0

        node.on(MessageType.READ_REQUEST, self.on_read_request)
        node.on(MessageType.PREPARE, self.on_prepare)
        node.on(MessageType.DECIDE, self.on_decide)
        node.on(MessageType.PROPAGATE, self.applier.on_propagate)
        # The machinery around the protocol, composed: each component
        # owns its handlers; DESIGN.md "Layer contracts" states what it
        # may assume about this node and what it must leave true.
        #: In-doubt termination, both ends, and the coordinator's decision log.
        self.in_doubt = InDoubtResolver(self)
        node.on(MessageType.TXN_STATUS, self.in_doubt.on_txn_status)
        #: Durable crash and WAL recovery.
        self.recovery = NodeRecovery(self)
        #: The self-healing layer (failure detector, anti-entropy,
        #: checkpoints).  Constructed unconditionally -- with the default
        #: configuration it installs no hooks and its loops never spawn.
        self.healing = NodeHealing(self)
        node.on(MessageType.SYNC, self.healing.on_sync)
        node.on(MessageType.HEARTBEAT, self.healing.on_heartbeat)
        #: Chain shipping for shard handoffs, both ends.
        self.shipments = Shipments(self)
        node.on(MessageType.SHARD_SHIPMENT, self.shipments.on_shipment)
        #: Per-shard primary-backup replication substrate; attached by
        #: :class:`repro.replication.shard.ClusterReplication` when
        #: ``ReplicationConfig.enabled`` is set, ``None`` otherwise.
        self.replication = None

    def _reset_volatile(self) -> None:
        """(Re)create the state a durable crash loses: everything but the
        WAL -- and ``site_vc``, which the wipe zeroes in place."""
        #: ``CurrSeqNo``: sequence number of the latest transaction issued
        #: and committed at this node.
        self.curr_seq_no = 0
        self.store = MultiVersionStore()
        self.locks = LockTable(self.sim)
        #: Per contended key, whose turn it is to read it and commit
        #: (DESIGN.md 4; FW-KV).  A place is advice: ``_validate`` decides.
        self.line = LockTable(self.sim)
        self._prepared: Dict[int, PreparedTxn] = {}
        #: Transactions whose prepare handler is currently between lock
        #: acquisition and voting; duplicates racing that window vote no
        #: instead of double-acquiring the same owner's locks.
        self._preparing: Set[int] = set()
        #: Decide appliers between popping their prepared entry and the
        #: clock tick (with its ApplyRecord): txn -> ``(origin, seq)``.
        #: While non-empty the live store may hold versions the log does
        #: not yet explain, so the checkpoint manager refuses to snapshot;
        #: a duplicate Decide, or a catch-up, leaves that tick to them.
        self._applying: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_many(self, items: Iterable[Tuple[Hashable, object]]) -> int:
        """Bulk-install initial versions (all share the interned zero VC),
        all or nothing: checked and installed by the store, then logged."""
        items = list(items)
        count = self.store.create_many(items, VectorClock.zero(self.shared.num_nodes))
        if self.wal is not None:  # durable at once: see ``append_durable``
            self.wal.append_durable(LoadRecord.of(items))
        return count

    # ------------------------------------------------------------------
    # Coordinator API
    # ------------------------------------------------------------------
    def _on_begin(self, txn: Transaction) -> None:
        # Alg. 1: T.VC <- siteVC_i; hasRead all false (fresh Transaction
        # objects already satisfy the latter).
        txn.vc = self.site_vc.copy()

    def _read_request(
        self, txn: Transaction, key: Hashable, queue: bool = False
    ) -> ReadRequestBody:
        return ReadRequestBody(
            txn.txn_id, txn.is_read_only, key, txn.vc.to_tuple(),
            txn.has_read_tuple(), queue,
        )

    def _observe(
        self, txn: Transaction, key: Hashable, target: int,
        reply: ReadReturnBody,
    ):
        """Alg. 2 lines 8-12: fold one ReadReturn into the transaction."""
        if reply.max_vc is not None:
            txn.vc.merge_seq(reply.max_vc)  # Alg. 2 line 9
        first_contact = txn.note_read_site(target)  # Alg. 2 line 8
        if txn.is_read_only:
            txn.read_keys.add(key)  # Alg. 2 lines 10-12, for Remove
            self.metrics.on_ro_read(
                gap=reply.latest_vid - reply.vid,
                first_contact=first_contact,
            )
        elif reply.spoken_for and not txn.in_line:
            txn.lost_key = key  # commit() yields it if we write it
        txn.read_cache[key] = reply.value
        txn.read_versions[key] = reply.vid
        if self.tracer._enabled:
            self.tracer.emit(
                self.node_id, "read", txn=txn.txn_id, key=key, vid=reply.vid,
                latest=reply.latest_vid, site=target,
            )
        txn.ops.append(("r", key, reply.vid, reply.latest_vid))
        return reply.value

    def read(self, txn: Transaction, key: Hashable, queue: bool = False):
        """Alg. 2: serve from the writeset, else ask the preferred site --
        with ``queue`` (a retry's first read of the key it lost), in line."""
        found, value = txn.buffered_write(key)
        if found:
            return value
        if key in txn.read_cache:
            # Re-reads return the version already observed; see the
            # read-cache note on Transaction.
            return txn.read_cache[key]

        target = self.directory.site(key)
        attempts = 0
        while True:
            try:
                reply: ReadReturnBody = yield from self.node.rpc.call(
                    target,
                    MessageType.READ_REQUEST,
                    self._read_request(txn, key, queue),
                )
                break
            except RpcTimeoutError:
                # With failover armed, a read that timed out against a
                # (possibly dead) server parks until the directory routes
                # the key elsewhere, then retries at the new owner --
                # keys stay readable across a primary failure.
                attempts += 1
                rep = self.replication
                if rep is None or attempts >= 3:
                    raise
                flipped = yield from rep.cluster_rep.wait_for_site_flip(
                    key, target
                )
                if not flipped and self.directory.site(key) == target:
                    raise
                target = self.directory.site(key)
        if queue:
            txn.in_line = not reply.spoken_for  # else served unplaced, at the cap
        return self._observe(txn, key, target, reply)

    def read_many(self, txn: Transaction, keys):
        """Parallel multi-get for *read-only* transactions.

        Runs one :meth:`read` per key concurrently and returns ``{key:
        value}``; a read that exhausts its retries fails the whole call
        with its ``RpcTimeoutError``.  Safe for read-only transactions
        because consistency is enforced by the version-access-set, not by
        request ordering: if an update overwrites one of the versions read
        here before another request is served, the propagated VAS entry
        excludes the conflicting version exactly as in the sequential
        case.  Update transactions must read sequentially (their safe
        snapshot hinges on the *first* read), so they are rejected.
        """
        if not txn.is_read_only:
            raise ValueError(
                "read_many is only available to read-only transactions"
            )
        keys = list(keys)
        values = yield AllOf(self.sim, [
            self.sim.spawn(self.read(txn, key), name=f"read-many-{txn.txn_id}")
            for key in keys
        ])
        return dict(zip(keys, values))

    def commit(self, txn: Transaction):
        """Alg. 4: read-only cleanup, or 2PC across written keys' sites.

        Per Alg. 4 line 2 the branch tests the *writeset*: a declared-
        update transaction that ended up writing nothing commits like a
        read-only one (no 2PC, no sequence number).

        The ``while`` loop is not in the paper: a round that straddled a
        change of ownership (a handoff answered "moved", a failover left
        a participant silent) or that a status query doomed (it was told
        "not committed" while the votes were still coming in) is aborted
        at every participant -- round-tagged, so the abort cannot cancel
        a successor round's prepare -- regrouped against the directory
        and prepared again: it costs a round trip, never an abort.
        """
        if txn.is_read_only or not txn.writeset:
            self._commit_read_only(txn)
            return self._committed(txn, ro=True)
        if txn.lost_key is not None and txn.lost_key in txn.writeset:
            # Its place's holder commits first: no prepare, retry in line.
            return self._aborted(txn, AbortReason.SPOKEN_FOR, key=txn.lost_key)

        yield from self.cpu.consume(COMMIT_BASE)

        round_no = 0

        def prepare_body(writes):
            return PrepareBody(
                txn.txn_id,
                self.node_id,
                writes,
                txn.vc.to_tuple(),
                read_vids={
                    key: txn.read_versions[key]
                    for key in writes
                    if key in txn.read_versions
                },
                round=round_no,
            )

        def abort_round():
            abort = DecideBody(
                txn.txn_id, False, self.node_id, None, None, round=round_no
            )
            for site in sorted(by_site):
                self.node.send(site, MessageType.DECIDE, abort)

        while True:
            by_site = self._group_writes_by_site(txn)
            rnd = self.in_doubt.rounds[txn.txn_id] = Round(by_site)

            if self.healing.armed and len(by_site) > (self.node_id in by_site):
                # Fail fast instead of burning the prepare timeout ladder on
                # a participant the detector already classified dead.  The
                # commit would have aborted anyway (RPC_TIMEOUT) -- this only
                # moves the abort earlier, it never aborts a commit that
                # could have succeeded against a genuinely live peer, because
                # DEAD requires hard evidence (consecutive timeouts or deep
                # accrual silence) and any arrival clears it.
                detector = self.healing.detector
                dead = [
                    site
                    for site in by_site
                    if site != self.node_id and detector.is_dead(site)
                ]
                if dead:
                    if round_no + 1 < MAX_ATTEMPTS and (
                        yield from self._failed_over(txn, dead, round_no + 1)
                    ):
                        round_no += 1
                        continue
                    return self._aborted(
                        txn, AbortReason.PEER_DEAD, peers=tuple(dead)
                    )

            timed_out = False
            if set(by_site) == {self.node_id}:
                # Fast path: every written key is local -- the point of the
                # preferred-site design ("Walter can quickly commit these
                # transactions without checking other nodes for write
                # conflicts").  Prepare runs inline, skipping the loopback RPC.
                vote = yield from self._handle_prepare(
                    prepare_body(by_site[self.node_id])
                )
                votes: List[VoteBody] = [vote]
            else:
                # Each prepare is an independently-retried call; a site whose
                # retries are exhausted settles as (False, None) rather than
                # hanging the coordinator forever on a crashed peer.
                sites = list(by_site)
                settles = [
                    self.node.rpc.spawn_call(
                        site, MessageType.PREPARE, prepare_body(by_site[site])
                    )
                    for site in sites
                ]
                results = yield AllOf(self.sim, settles)
                votes = [vote for ok, vote in results if ok]
                timed_out = len(votes) < len(results)
                if (
                    timed_out
                    and round_no + 1 < MAX_ATTEMPTS
                    and self.replication is not None
                    and self.replication.cluster_rep.failover_armed()
                ):
                    # Some participant stopped answering mid-round: wait
                    # for the silent sites' shards to fail over.
                    abort_round()
                    missing = [
                        site
                        for (ok, _vote), site in zip(results, sites)
                        if not ok
                    ]
                    if (yield from self._failed_over(txn, missing, round_no + 1)):
                        round_no += 1
                        continue

            for vote in votes:
                txn.collected_set |= vote.collected  # Alg. 4 line 19

            if (
                not timed_out
                and round_no + 1 < MAX_ATTEMPTS
                and (rnd.doomed or any(not vote.ok for vote in votes))
                and all(vote.ok or vote.reason == "moved" for vote in votes)
            ):
                # The prepare straddled a handoff, or the round was doomed.
                # By the time a "moved" vote arrives the shared directory
                # has already flipped -- the fence only lifts after the
                # flip -- so the regroup sees the new placement at once.
                abort_round()
                round_no += 1
                if self.tracer._enabled:
                    self.tracer.emit(
                        self.node_id, "moved_retry", txn=txn.txn_id,
                        round=round_no,
                    )
                continue
            break

        # No yield from here to the decision's append: ``doomed`` is final.
        outcome = (
            not timed_out and not rnd.doomed and all(vote.ok for vote in votes)
        )

        if outcome:
            # Alg. 4 lines 22-25: assign the sequence number and finalize
            # the commit vector clock from the *current* siteVC.
            self.curr_seq_no += 1
            txn.seq_no = self.curr_seq_no
            commit_vc = self.site_vc.copy()
            commit_vc[self.node_id] = txn.seq_no
            txn.commit_vc = commit_vc
            self._on_update_commit_decided(txn)

        participant_sites = set(by_site)
        decide = DecideBody(
            txn_id=txn.txn_id,
            outcome=outcome,
            origin=self.node_id,
            seq_no=txn.seq_no,
            commit_vc=txn.commit_vc.to_tuple() if txn.commit_vc else None,
            collected=frozenset(txn.collected_set) or NOTHING_COLLECTED,
            round=round_no,
        )
        if outcome:
            # Presumed abort's commit rule: the decision is on record --
            # durably, when the WAL is on -- before any Decide leaves the
            # node, so an in-doubt participant asking after our crash and
            # recovery gets the same answer its lost Decide carried.
            rnd.lsn = self.in_doubt.log.record(decide, by_site)
            if rnd.lsn and self.flusher.active:
                # The one force of a commit (C1).  The record carries every
                # participant's staged writes -- none of them waited for
                # its own PrepareRecord -- and the acknowledgement, every
                # Decide and every status answer wait for its sync.
                durable = yield from self.flusher.ensure_durable(rnd.lsn)
                if not durable:
                    # Crashed between buffer and flush: the decision
                    # never hit disk and no Decide was sent, so the
                    # recovered coordinator -- and every in-doubt
                    # participant querying it -- presumes abort.  The
                    # unacknowledged commit simply vanishes.
                    return self._aborted(txn, AbortReason.NODE_CRASHED)
            if self.replication is not None:
                # Stream the decision record, writes and all (to our decision
                # homes and the backups of the own shards written), before
                # any Decide or the client acknowledgement leaves the node:
                # the one replication wait of a commit (S3/S4), bounded by
                # SYNC_TIMEOUT.  Promotion re-creates what a crash took.
                yield from self.replication.replicate_decision(
                    txn.txn_id, txn.seq_no, decide.commit_vc, decide.collected,
                    self.in_doubt.log.by_txn[txn.txn_id].writes,
                )
        for site in sorted(participant_sites | {self.node_id} if outcome else participant_sites):
            self.node.send(site, MessageType.DECIDE, decide)
        self.in_doubt.rounds.pop(txn.txn_id, None)
        if outcome:
            # Alg. 4 line 27: asynchronous propagation to everyone else.
            self._send_propagate(participant_sites, txn.seq_no)
            return self._committed(txn, seq=txn.seq_no)
        # Presumed abort: the abort Decide sent above is best-effort -- a
        # participant that never hears it asks when its lease expires.
        if timed_out:
            return self._aborted(txn, AbortReason.RPC_TIMEOUT)
        noes = [vote for vote in votes if not vote.ok]
        if noes and self.retries_in_line:
            txn.lost_key = noes[0].lost
        return self._aborted(txn, noes[0].reason if noes else AbortReason.VOTE_NO)

    def _committed(self, txn: Transaction, **details) -> bool:
        """Record an attempt's commit; returns ``True`` for ``commit``."""
        txn.mark_committed(self.sim.now)
        self._record_commit(txn)
        if self.tracer._enabled:
            self.tracer.emit(self.node_id, "commit", txn=txn.txn_id, **details)
        return True

    def _aborted(self, txn: Transaction, reason: str, **details) -> bool:
        """Record an attempt's abort; returns ``False`` for ``commit``."""
        self.in_doubt.rounds.pop(txn.txn_id, None)
        txn.mark_aborted(self.sim.now)
        self.metrics.on_abort(txn, reason)
        self.tracer.emit(
            self.node_id, "abort", txn=txn.txn_id, reason=reason, **details
        )
        return False

    def _failed_over(self, txn: Transaction, sites: List[int], next_round: int):
        """Generator: park until ``sites``' shards are promoted away.

        True when the flip happened in time (never, unless failover is
        armed) -- the caller re-prepares against the new owners, so a
        failover costs a retry, not an abort.
        """
        flipped = self.replication is not None and (
            yield from self.replication.cluster_rep.wait_for_failover(sites)
        )
        if flipped and self.tracer._enabled:
            self.tracer.emit(
                self.node_id, "failover_retry", txn=txn.txn_id,
                round=next_round, peers=tuple(sites),
            )
        return flipped

    def _send_propagate(self, participant_sites: Set[int], seq_no: int) -> None:
        """Alg. 4 line 27: one Propagate per uninvolved site, at commit."""
        node_id = self.node_id
        propagate = PropagateBody(node_id, seq_no)
        for site in self.shared.config.node_ids:
            if site not in participant_sites and site != node_id:
                self.node.send(site, MessageType.PROPAGATE, propagate)

    def _group_writes_by_site(
        self, txn: Transaction
    ) -> Dict[int, Dict[Hashable, object]]:
        by_site: Dict[int, Dict[Hashable, object]] = {}
        for key, value in txn.writeset.items():
            by_site.setdefault(self.directory.site(key), {})[key] = value
        return by_site

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def _commit_read_only(self, txn: Transaction) -> None:
        """Read-only commit step (FW-KV sends Removes; Walter is a no-op)."""

    def _on_update_commit_decided(self, txn: Transaction) -> None:
        """Called once an update transaction's commit is decided."""

    def _collect_antideps(self, writes: Iterable[Hashable]):
        """Prepare-time VAS harvest (FW-KV); Walter collects nothing.

        Generator subroutine: may charge CPU time.  Returns a frozenset.
        """
        return NOTHING_COLLECTED
        yield  # pragma: no cover - makes this a generator subroutine

    def _on_versions_installed(
        self, versions: List[Version], collected: frozenset
    ):
        """Decide-time VAS propagation (FW-KV); Walter does nothing.

        Generator subroutine: may charge CPU time.
        """
        return None
        yield  # pragma: no cover

    def _select_version(self, request: ReadRequestBody) -> Tuple[Version, int]:
        """Pick the version a read request observes.

        Returns ``(version, inspected_vas_entries)``.  Implemented by the
        protocol subclasses.
        """
        raise NotImplementedError

    def _freshness_bound(
        self, request: ReadRequestBody, version: Version
    ) -> Optional[Tuple[int, ...]]:
        """The ``maxVC`` carried back by ReadReturn (None for Walter)."""
        raise NotImplementedError

    def _register_visible_read(
        self, request: ReadRequestBody, version: Version
    ) -> None:
        """Alg. 3 line 8 (FW-KV read-only only)."""

    def _on_volatile_wiped(self) -> None:
        """A durable crash wiped this node: clear subclass volatile state
        (FW-KV's pending Removes)."""

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_read_request(self, envelope: Envelope):
        """Alg. 3: version selection at the storage node."""
        request: ReadRequestBody = self.node.rpc.body_of(envelope)

        if self.fence.node_wide:
            yield from self.fence.wait()

        # Snapshot-completeness wait.  The requester's T.VC may run ahead
        # of this node (it can learn a commit through its own Decide
        # participation while our in-order apply is still pending); serving
        # the read before catching up could miss a committed-but-not-yet-
        # installed version inside the snapshot -- a fractured read.  The
        # original Walter never hits this because every site holds a full
        # replica and reads locally; in the partitioned preferred-site port
        # the handler must wait until this node's clock dominates the
        # request's snapshot.  Without injected congestion the wait is
        # almost always vacuous.
        txn_vc = request.vc
        site_entries = self.site_vc.entries
        if not covers(site_entries, txn_vc):
            stall_started = self.sim.now
            yield from wait_until(
                self.applier.site_vc_changed,
                lambda: covers(site_entries, txn_vc),
            )
            self.metrics.on_read_stall(self.sim.now - stall_started)
            self.tracer.emit(
                self.node_id, "stall", txn=request.txn_id,
                waited=self.sim.now - stall_started,
            )

        # Bound locally: a durable crash replaces both tables mid-run, and
        # a handler that acquired on the old one must release there.
        locks, line = self.locks, self.line
        if request.queue and self.retries_in_line:
            yield from self._stand_in_line(line, request)

        needs_lock = self.reads_lock
        cost = READ_HANDLER
        if needs_lock:
            # Shared mode: concurrent read handlers proceed together, but
            # conflicting update commits (write lockers) are excluded.
            self._read_token += 1
            lock_owner = ("read", request.txn_id, self._read_token)
            granted = yield locks.acquire_read(request.key, lock_owner, None)
            assert granted, "untimed lock acquisition cannot fail"
            cost += LOCK_OP

        version, inspected = self._select_version(request)
        latest_vid = self.store.chain(request.key).latest.vid  # as chosen
        self._register_visible_read(request, version)
        cost += (
            VERSION_SCAN_ITEM * (latest_vid - version.vid + 1)
            + VAS_ITEM * inspected
        )
        yield from self.cpu.consume(cost)
        if inspected:
            self.metrics.on_vas_inspected(inspected)
        max_vc = self._freshness_bound(request, version)

        if needs_lock:
            locks.release(request.key, owner=lock_owner)

        self.node.rpc.reply(
            envelope,
            ReadReturnBody(
                version.value, max_vc, version.vid, latest_vid,
                bool(line._locks) and line.spoken_for(request.key, request.txn_id),
            ),
        )

    def on_prepare(self, envelope: Envelope):
        """Alg. 5 lines 1-13: lock, validate, harvest anti-dependencies."""
        request: PrepareBody = self.node.rpc.body_of(envelope)
        vote = yield from self._handle_prepare(request)
        self.node.rpc.reply(envelope, vote)

    def _handle_prepare(self, request: PrepareBody):
        """The prepare logic itself, callable inline for local commits.

        Idempotent under retries: a duplicated Prepare for an
        already-prepared transaction replays the recorded vote instead of
        re-acquiring (and then leaking) the same owner's locks, and a
        duplicate racing the original through its lock wait votes no.
        """
        fence = self.fence
        if fence.node_wide:
            yield from fence.wait()
        existing = self._prepared.get(request.txn_id)
        if existing is not None:
            if existing.round == request.round:
                return existing.vote
            if request.round < existing.round:
                # A stale round's retried Prepare arrived after its
                # successor round already prepared here.
                return VoteBody(False, reason="moved")
            # A newer round supersedes the stale entry: the coordinator
            # has aborted that round (its abort Decide may still be in
            # flight), so unstage it before preparing afresh.
            self._abort_prepared(request.txn_id, existing)
        if request.txn_id in self._preparing:
            return VoteBody(False, reason=AbortReason.VOTE_NO)
        self._preparing.add(request.txn_id)
        # Bound locally: a durable crash replaces ``self.locks`` mid-run,
        # and locks acquired on the old table must be released there.
        locks, line = self.locks, self.line
        try:
            keys = list(request.writes)
            if self.directory.epoch > 0 or fence.shards:
                # A key mid-handoff parks the prepare until the fence
                # lifts; once any owner has ever flipped, the ownership
                # re-check below answers "moved" if the key is no longer
                # ours -- the coordinator regroups and retries, so the
                # handoff costs a round trip, never an abort.
                if fence.blocks(keys):
                    yield from fence.wait(keys)
                if any(
                    self.directory.site(key) != self.node_id for key in keys
                ):
                    return VoteBody(False, reason="moved")
            if (lost := self._validate(request)) is not None:
                # A chain's latest version only advances, so a "no" taken
                # without the locks is final: refuse before queueing, or
                # every doomed prepare holds a hot key's write lock for
                # ``LOCK_OP + PREPARE_KEY`` ahead of the one that can win.
                yield from self.cpu.consume(PREPARE_KEY * len(keys))
                return VoteBody(False, reason=AbortReason.VALIDATION, lost=lost)
            granted = yield from locks.acquire_write_all(
                keys, request.txn_id, self.shared.config.lock_timeout
            )
            if not granted:
                yield from self.cpu.consume(LOCK_OP * len(keys))
                return VoteBody(False, reason=AbortReason.LOCK_TIMEOUT)

            yield from self.cpu.consume((LOCK_OP + PREPARE_KEY) * len(keys))
            if (lost := self._validate(request)) is not None:
                locks.release_write_all(keys, owner=request.txn_id)
                return VoteBody(False, reason=AbortReason.VALIDATION, lost=lost)

            collected = yield from self._collect_antideps(keys)
            vote = VoteBody(True, collected)
            entry = PreparedTxn(
                request.writes, keys, vote, request.coordinator,
                round=request.round,
            )
            if self.locks is not locks:
                # A durable crash across a yield above replaced the table:
                # the locks and validation belong to the wiped incarnation,
                # the vote and the staged writes die with it.  Unwind on the
                # old table and vote no -- the coordinator (whose RPC may
                # still be live now that the node is back up) aborts.
                locks.release_write_all(keys, owner=request.txn_id)
                return VoteBody(False, reason=AbortReason.VOTE_NO)
            # Logged and streamed before the vote, never waited on (C1, S4):
            # what a crash takes of either, recovery or promotion re-stages
            # from the coordinator's decision record, which carries them.
            if self.wal is not None:
                entry.logged = tuple(request.writes.items())
                entry.lsn = self.wal.append(
                    PrepareRecord(request.txn_id, request.coordinator, entry.logged)
                )
            if self.replication is not None:
                entry.acks = self.replication.replicate_prepare(request)
            self._stage(request.txn_id, entry)
            self.tracer.emit(
                self.node_id, "prepare", txn=request.txn_id,
                keys=len(keys), collected=len(collected),
            )
            return vote
        finally:
            self._preparing.discard(request.txn_id)
            if line._locks:  # locked, or voted no: the next in line reads
                line.leave(request.writes, request.txn_id)

    def _stage(self, txn_id: int, entry: PreparedTxn) -> None:
        """Enter a yes-vote into the prepared table and arm its lease."""
        self._prepared[txn_id] = entry
        lease = self.shared.config.prepared_lease
        if lease is not None:
            self.sim.call_later(lease, self._expire_prepared, txn_id, entry)

    def _expire_prepared(self, txn_id: int, entry: PreparedTxn) -> None:
        """Prepared-lock lease fired: ask the coordinator how it ended.

        Fires ``prepared_lease`` after the yes-vote; a no-op if the Decide
        came in time (the entry was popped, or replaced).  Silence is not
        an abort -- the coordinator may have committed, or still may -- so
        the participant asks it (itself included) and applies the exact
        answer; only a coordinator unreachable for the whole bounded
        budget is presumed to have aborted (``InDoubtResolver.terminate``).
        """
        if self._prepared.get(txn_id) is entry:
            self.sim.spawn(
                self.in_doubt.terminate(txn_id, entry),
                name=f"n{self.node_id}:terminate-{txn_id}",
            )

    def _abort_prepared(self, txn_id: int, entry: PreparedTxn) -> None:
        """Resolve a prepared transaction as aborted and free its locks."""
        del self._prepared[txn_id]
        if self.wal is not None:
            self.wal.append(AbortRecord(txn_id))
        if self.replication is not None:
            self.replication.note_abort(txn_id, entry.writes, entry.round)
        self.locks.release_write_all(entry.locked_keys, owner=txn_id)

    def _validate(self, request: PrepareBody) -> Optional[Hashable]:
        """First-committer-wins validation: the written key that fails it.

        For a key the transaction also *read*, the latest version must be
        exactly the version it observed (``read_vids``).  For Walter this
        is equivalent to the paper's clock test (a frozen ``T.VC`` makes
        "visible" and "validates" coincide), but for FW-KV the clock test
        alone (Alg. 5 lines 27-34) is unsound: ``T.VC[j]`` can advance past
        a version's sequence number via a fresh contact or the begin
        snapshot while the *read* of that key was constrained to an older
        version -- the clock test then passes and the intermediate version
        is silently overwritten (a lost update, caught by the randomized
        soak test).  Blind writes keep the paper's clock rule.
        """
        txn_vc = request.vc
        for key in request.writes:
            if key not in self.store:
                continue  # fresh insert: nothing to have been overwritten
            last = self.store.chain(key).latest
            read_vid = request.read_vids.get(key)
            if read_vid is not None:
                if last.vid != read_vid:
                    return key
            elif last.seq > txn_vc[last.origin]:
                return key
        return None

    def on_decide(self, envelope: Envelope):
        """Alg. 5 lines 14-26: ordered application of a decided commit."""
        body: DecideBody = envelope.payload
        if not body.outcome:
            prepared = self._prepared.get(body.txn_id)
            # Round-gated: a moved-retry's abort for round N must not
            # cancel the successor round's prepared entry.
            if prepared is not None and prepared.round == body.round:
                self._abort_prepared(body.txn_id, prepared)
            return
        if self.fence.node_wide and body.txn_id not in self._prepared:
            # Recovery may be about to re-stage this commit's lost prepare
            # (C3); a clock-only tick now would drop its writes.
            yield from self.fence.wait()
        yield from self._apply_committed_decide(body)

    def _apply_committed_decide(self, body: DecideBody):
        """Apply one committed Decide: in-order install + clock advance.

        Also the terminal step of in-doubt termination and recovery --
        those paths synthesize the ``DecideBody`` from the coordinator's
        recorded decision and funnel through here so the install, VAS
        propagation, WAL apply record, and lock release stay identical to
        a Decide that arrived on time.
        """
        assert body.seq_no is not None and body.commit_vc is not None
        # Alg. 5 line 16: apply commits from one origin in sequence order.
        # The prepared entry stays in the table across this wait so the
        # lease can still reclaim its locks: if a predecessor Decide was
        # lost to a crash, this wait never completes and would otherwise
        # pin the locks forever.
        yield from self.applier.turn(body.origin, body.seq_no)
        prepared = self._prepared.pop(body.txn_id, None)
        if prepared is None and body.txn_id in self._applying:
            # A duplicate Decide: the applier that popped the entry is
            # installing its writes; a tick from here would outrun them.
            return
        # The entry popped (and the locks it holds) belong to the current
        # incarnation; if a durable crash wipes the node across one of the
        # yields below, this process must stop mutating the rebuilt state
        # -- the WAL's in-doubt machinery re-applies the commit instead.
        locks = self.locks
        incarnation = self._incarnation
        # From here to the ApplyRecord the transaction is in neither the
        # prepared table nor (yet) the log while its versions may already
        # sit in the live store; checkpoints must not observe the window.
        applying = self._applying  # a wipe replaces it: leave the new one be
        applying[body.txn_id] = (body.origin, body.seq_no)
        try:
            if self.site_vc[body.origin] < body.seq_no:
                writes = prepared.writes if prepared is not None else {}
                if writes:
                    yield from self.cpu.consume(INSTALL_KEY * len(writes))
                if self._incarnation != incarnation:
                    return
                commit_vc = VectorClock.frozen(body.commit_vc)
                installed: List[Version] = []
                for key, value in writes.items():
                    version = self.store.install(
                        key, value, commit_vc, origin=body.origin, seq=body.seq_no,
                        writer_txn=body.txn_id, installed_at=self.sim.now,
                    )
                    installed.append(version)
                    self._maybe_collect_garbage(key)
                yield from self._on_versions_installed(installed, body.collected)
                if self._incarnation != incarnation:
                    return
                if self.wal is not None:
                    # Logged atomically with the clock advance (no yields
                    # between): a crash before this point leaves the prepare
                    # in doubt and recovery re-applies it; a crash after has
                    # the full install on record.
                    self.wal.append(ApplyRecord(
                        body.txn_id, body.origin, body.seq_no, body.commit_vc,
                        (prepared.logged if prepared else ()) or tuple(writes.items()),
                    ))
                self.site_vc[body.origin] = body.seq_no  # Alg. 5 line 21
                self.applier.site_vc_changed.notify_all()
                if self.replication is not None:
                    # Stream the installed versions (and the advanced
                    # frontier) to the written shards' backups; the
                    # frontier snapshot taken *after* the clock advance
                    # provably covers this install.
                    self.replication.note_apply(body, writes)
                if self.tracer._enabled:
                    self.tracer.emit(
                        self.node_id, "decide", txn=body.txn_id,
                        origin=body.origin, seq=body.seq_no,
                    )
        finally:
            # On every way out, on the table the locks were taken on -- but
            # not before the vote's own PrepareRecord is durable (C4) and
            # its ``prepare`` stream record acknowledged (S5): what a crash
            # loses must still have held its locks at the crash.
            if prepared is not None:
                release = partial(
                    locks.release_write_all, prepared.locked_keys, body.txn_id
                )
                if prepared.acks:
                    release = partial(
                        self.replication.after_acked, prepared.acks, release
                    )
                if prepared.lsn:
                    self.flusher.after_durable(
                        prepared.lsn, lambda _durable: release()
                    )
                else:
                    release()
            del applying[body.txn_id]

    def _maybe_collect_garbage(self, key: Hashable) -> None:
        """Reclaim cold versions once a chain outgrows the trigger length."""
        if not self.shared.config.gc_enabled:
            return
        chain = self.store.chain(key)
        if len(chain) > GC_TRIGGER_LENGTH:
            dropped = chain.collect_garbage(GC_KEEP_VERSIONS, GC_MIN_AGE, self.sim.now)
            if dropped:
                self.metrics.count("versions_reclaimed", dropped)

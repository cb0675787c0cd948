"""The 2PC-baseline: optimistic execution, validated serializable commits.

Paper Section 1: "In 2PC-baseline, all transactions, including read-only,
validate read keys to ensure correct and the most recent reading snapshot,
and use the Two-Phase Commit protocol (2PC) to commit."  The store is
single-versioned ("thus without needing multiversioning", Section 5);
transactions execute optimistically against committed state, then lock
read keys shared / written keys exclusive at prepare, re-validate that
read versions are unchanged, and apply writes at decide.  A prepared
lease that expires asks the coordinator first, like ``MVCCNode``'s
(DESIGN.md 5.10, C2).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.cluster.node import Node
from repro.config import RpcConfig
from repro.core.cost_model import (
    COMMIT_BASE, INSTALL_KEY, LOCK_OP, PREPARE_KEY, READ_HANDLER,
)
from repro.core.interfaces import BaseProtocolNode, SharedState
from repro.core.repair import TERMINATION_ATTEMPTS
from repro.core.transaction import Transaction
from repro.core.wire import (
    SimpleDecideBody,
    SimplePrepareBody,
    SimpleReadRequestBody,
    SimpleReadReturnBody,
    SimpleVoteBody,
    TxnStatusReplyBody,
    TxnStatusRequestBody,
)
from repro.metrics.stats import AbortReason
from repro.net.message import Envelope, MessageType
from repro.sim import AllOf
from repro.storage.locks import LockTable
from repro.storage.simple_store import SimpleStore


class _PreparedTxn:
    __slots__ = ("read_held", "write_held", "writes", "vote", "coordinator")

    def __init__(self, read_held, write_held, writes, vote, coordinator) -> None:
        self.read_held = list(read_held)
        self.write_held = list(write_held)
        self.writes = writes
        #: Replayed verbatim for retried/duplicated Prepares (idempotency).
        self.vote = vote
        #: Who an expiring lease asks how the transaction ended.
        self.coordinator = coordinator


class TwoPCNode(BaseProtocolNode):
    """One node of the serializable baseline."""

    protocol_name = "2pc"

    def __init__(self, node: Node, shared: SharedState) -> None:
        super().__init__(node, shared)
        self.store = SimpleStore()
        self.locks = LockTable(self.sim)
        self._prepared: Dict[int, _PreparedTxn] = {}
        #: Prepares currently between lock acquisition and voting;
        #: duplicates racing that window vote no (see MVCCNode).
        self._preparing: set = set()
        #: (key, version) -> (origin, seq, writer txn id) for the history
        #: checker; origin/seq carry no meaning under 2PC and stay 0.
        self.catalog: Dict[Tuple[Hashable, int], Tuple[int, int, Optional[int]]] = {}
        #: Coordinator side: txn_id -> doomed, for each round collecting
        #: votes here (a status query dooms it: C2's exact "no").
        self._collecting: Dict[int, bool] = {}
        #: Coordinator side: commits some participant has not acknowledged
        #: yet -- what a status query answers "committed" to.
        self._committed: set = set()
        #: A status query must not hang on a dead coordinator.
        rpc = node.rpc.config
        self._status_rpc = rpc if rpc.request_timeout is not None else RpcConfig(
            request_timeout=shared.config.healing.digest_timeout, max_attempts=1
        )

        node.on(MessageType.READ_REQUEST, self.on_read_request)
        node.on(MessageType.PREPARE, self.on_prepare)
        node.on(MessageType.DECIDE, self.on_decide)
        node.on(MessageType.TXN_STATUS, self.on_txn_status)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_many(self, items: Iterable[Tuple[Hashable, object]]) -> int:
        count = 0
        for key, value in items:
            self.store.create(key, value)
            self.catalog[(key, 0)] = (0, 0, None)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Coordinator API
    # ------------------------------------------------------------------
    def read(self, txn: Transaction, key: Hashable):
        found, value = txn.buffered_write(key)
        if found:
            return value
        if key in txn.read_cache:
            return txn.read_cache[key]

        target = self.directory.site(key)
        reply: SimpleReadReturnBody = yield from self.node.rpc.call(
            target,
            MessageType.READ_REQUEST,
            SimpleReadRequestBody(txn.txn_id, key),
        )
        txn.read_versions[key] = reply.version
        txn.read_cache[key] = reply.value
        # A single-version read is the current committed state by
        # construction; gap is 0 (validation will abort the transaction if
        # the version changes before commit).
        txn.ops.append(("r", key, reply.version, reply.version))
        if txn.is_read_only:
            self.metrics.on_ro_read(gap=0, first_contact=True)
        return reply.value

    def commit(self, txn: Transaction):
        yield from self.cpu.consume(COMMIT_BASE)

        by_site: Dict[int, SimplePrepareBody] = {}
        for key, version in txn.read_versions.items():
            site = self.directory.site(key)
            body = by_site.setdefault(site, SimplePrepareBody(txn.txn_id, {}, {}))
            body.reads[key] = version
        for key, value in txn.writeset.items():
            site = self.directory.site(key)
            body = by_site.setdefault(site, SimplePrepareBody(txn.txn_id, {}, {}))
            body.writes[key] = value

        sites = sorted(by_site)
        self._collecting[txn.txn_id] = False
        vote_settles = [
            self.node.rpc.spawn_call(site, MessageType.PREPARE, by_site[site])
            for site in sites
        ]
        vote_results: List = yield AllOf(self.sim, vote_settles)
        votes: List[SimpleVoteBody] = [v for ok, v in vote_results if ok]
        timed_out = len(votes) < len(vote_results)
        # A participant's lease asked while the votes were coming in and
        # was told "not committed": that answer must stay true.
        doomed = self._collecting.pop(txn.txn_id)
        outcome = not timed_out and not doomed and all(vote.ok for vote in votes)
        if outcome and self.shared.config.prepared_lease is not None:
            self._committed.add(txn.txn_id)

        # Full two-phase commit: the coordinator only answers the client
        # after every participant acknowledged the decision (this is the
        # "expensive commit phase" the paper contrasts with the PSI
        # protocols' asynchronous one-way Decide).  Acks are best-effort
        # under faults: a participant whose ack never arrives is presumed
        # to clean up via its prepared-lock lease.
        decide = SimpleDecideBody(txn.txn_id, outcome)
        ack_settles = [
            self.node.rpc.spawn_call(site, MessageType.DECIDE, decide)
            for site in sites
        ]
        ack_results: List = yield AllOf(self.sim, ack_settles)

        if all(ok and ack for ok, ack in ack_results):
            # Every participant applied the commit: none will ask.
            self._committed.discard(txn.txn_id)
        if outcome:
            # Record a site's installed versions only once its ack confirms
            # the decide was applied; an un-acked site's state is unknown
            # (its lease may have presumed abort), so claiming its writes
            # in the history would over-constrain the offline checkers.
            for (vote_ok, vote), (ack_ok, ack) in zip(vote_results, ack_results):
                if not (vote_ok and ack_ok and ack):
                    continue
                for key, version in vote.install_versions.items():
                    txn.ops.append(("w", key, version, version))
            txn.mark_committed(self.sim.now)
            self._record_commit(txn)
        else:
            txn.mark_aborted(self.sim.now)
            if timed_out or doomed:
                reason = AbortReason.RPC_TIMEOUT
            else:
                reasons = [vote.reason for vote in votes if not vote.ok]
                reason = reasons[0] if reasons else AbortReason.VOTE_NO
            self.metrics.on_abort(txn, reason)
        return outcome

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_read_request(self, envelope: Envelope):
        request: SimpleReadRequestBody = self.node.rpc.body_of(envelope)
        yield from self.cpu.consume(READ_HANDLER)
        record = self.store.read(request.key)
        self.node.rpc.reply(
            envelope, SimpleReadReturnBody(record.value, record.version)
        )

    def on_prepare(self, envelope: Envelope):
        request: SimplePrepareBody = self.node.rpc.body_of(envelope)
        # Idempotency under RPC retries/duplication: replay the recorded
        # vote for an already-prepared transaction, vote no on a duplicate
        # racing the original through its lock wait (see MVCCNode).
        existing = self._prepared.get(request.txn_id)
        if existing is not None:
            self.node.rpc.reply(envelope, existing.vote)
            return
        if request.txn_id in self._preparing:
            self.node.rpc.reply(
                envelope, SimpleVoteBody(False, reason=AbortReason.VOTE_NO)
            )
            return
        self._preparing.add(request.txn_id)
        try:
            vote = yield from self._handle_prepare(request, envelope.src)
        finally:
            self._preparing.discard(request.txn_id)
        self.node.rpc.reply(envelope, vote)

    def _handle_prepare(self, request: SimplePrepareBody, coordinator: int):
        timeout = self.shared.config.lock_timeout
        ok, read_held, write_held = yield from self.locks.acquire_mixed(
            request.reads, request.writes, request.txn_id, timeout
        )
        total_keys = len(set(request.reads) | set(request.writes))
        if not ok:
            yield from self.cpu.consume(LOCK_OP * total_keys)
            return SimpleVoteBody(False, reason=AbortReason.LOCK_TIMEOUT)

        # Validation re-reads every read key's current state, so the
        # baseline pays read-handler work per validated key on top of the
        # lock/bookkeeping cost.
        yield from self.cpu.consume(
            (LOCK_OP + PREPARE_KEY) * total_keys
            + READ_HANDLER * len(request.reads)
        )
        for key, version in request.reads.items():
            if self.store.read(key).version != version:
                self.locks.release_keys(read_held, request.txn_id)
                self.locks.release_keys(write_held, request.txn_id)
                return SimpleVoteBody(False, reason=AbortReason.VALIDATION)

        install_versions = {
            key: (self.store.read(key).version + 1 if key in self.store else 0)
            for key in request.writes
        }
        vote = SimpleVoteBody(True, install_versions)
        entry = _PreparedTxn(
            read_held, write_held, dict(request.writes), vote, coordinator
        )
        self._prepared[request.txn_id] = entry
        lease = self.shared.config.prepared_lease
        if lease is not None:
            self.sim.call_later(
                lease, self._expire_prepared, request.txn_id, entry
            )
        return vote

    def _expire_prepared(self, txn_id: int, entry: _PreparedTxn) -> None:
        """Prepared-lock lease fired: ask the coordinator how it ended."""
        if self._prepared.get(txn_id) is entry:
            self.sim.spawn(
                self._terminate(txn_id, entry),
                name=f"n{self.node_id}:terminate-{txn_id}",
            )

    def _terminate(self, txn_id: int, entry: _PreparedTxn):
        """The one lease rule (``InDoubtResolver.terminate``): apply the
        coordinator's exact answer; presume abort only once it stayed
        unreachable for the whole budget."""
        request = TxnStatusRequestBody(txn_id)
        for _attempt in range(TERMINATION_ATTEMPTS):
            if entry.coordinator == self.node_id:
                ok, reply = True, self._status(txn_id)
            else:
                ok, reply = yield from self.node.rpc.call_settled(
                    entry.coordinator, MessageType.TXN_STATUS, request,
                    config=self._status_rpc,
                )
            if self._prepared.get(txn_id) is not entry:
                return  # the Decide won the race
            if ok:
                del self._prepared[txn_id]
                yield from self._finish(txn_id, entry, reply.committed)
                return
            yield self.sim.timeout(self.shared.config.prepared_lease)
        del self._prepared[txn_id]
        yield from self._finish(txn_id, entry, False)
        self.tracer.emit(self.node_id, "lease_expire", txn=txn_id)

    def _status(self, txn_id: int) -> TxnStatusReplyBody:
        """How this coordinator ended ``txn_id``; a round still collecting
        votes is doomed first, so "not committed" stays true (C2)."""
        if txn_id in self._collecting:
            self._collecting[txn_id] = True
        return TxnStatusReplyBody(txn_id, txn_id in self._committed, self.node_id)

    def on_txn_status(self, envelope: Envelope) -> None:
        request: TxnStatusRequestBody = self.node.rpc.body_of(envelope)
        self.node.rpc.reply(envelope, self._status(request.txn_id))

    def _finish(self, txn_id: int, prepared: _PreparedTxn, commit: bool):
        """Install a prepared transaction's writes if it committed, then
        release its locks (the entry is already out of the table)."""
        if commit and prepared.writes:
            yield from self.cpu.consume(INSTALL_KEY * len(prepared.writes))
            for key, value in prepared.writes.items():
                record = self.store.write(key, value)
                self.catalog[(key, record.version)] = (0, 0, txn_id)
        self.locks.release_keys(prepared.read_held, txn_id)
        self.locks.release_keys(prepared.write_held, txn_id)

    def on_decide(self, envelope: Envelope):
        body: SimpleDecideBody = self.node.rpc.body_of(envelope)
        prepared = self._prepared.pop(body.txn_id, None)
        if prepared is not None:
            yield from self._finish(body.txn_id, prepared, body.outcome)
        # A commit is acknowledged only if applied here and now: an entry
        # already gone was resolved without this Decide.
        self.node.rpc.reply(envelope, prepared is not None or not body.outcome)

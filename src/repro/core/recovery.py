"""Durable crash and WAL recovery of one MVCC protocol node.

The paper's protocol does not model crashes.  A durable crash freezes
the WAL and raises the node-wide fence; the restart wipes all volatile
state, replays the log and, fence still up, runs the repair toolkit
(:mod:`repro.core.repair`): ask every peer once for its clock and for
what it committed here, settle the in-doubt prepares and re-stage the
lost ones from the answers, catch the clock up, re-announce this
origin's decisions to whoever lacks them.
"""

from __future__ import annotations

from repro.core.repair import _decide, reannounce
from repro.core.transaction import PreparedTxn
from repro.core.wire import VoteBody
from repro.sim import AllOf
from repro.storage.wal import PrepareRecord, ReplayResult, replay


class NodeRecovery:
    """The crash/restart life cycle of one node (``node.recovery``)."""

    def __init__(self, node) -> None:
        self.node = node
        #: Completed recoveries at this node (asserted on by tests), and
        #: the prepares they re-staged.
        self.recoveries = 0
        self.restaged = 0

    def crash_durably(self) -> None:
        """Mark the durable-crash instant.

        The network-level crash model leaves in-flight handler generators
        running (their outputs are dropped); freezing the WAL here keeps
        any of that zombie compute from becoming durable.  The volatile
        wipe itself happens at restart, inside :meth:`begin_recovery`.
        """
        node = self.node
        if node.wal is None:
            raise RuntimeError(
                "durable crash requires durability.wal_enabled"
            )
        node.wal.freeze()
        # Abort any in-flight sync (its group never lands) and wake
        # ensure_durable waiters so their commit paths observe the
        # frozen log and report failure.
        node.flusher.on_crash()
        node.fence.raise_node()

    def begin_recovery(self):
        """Wipe volatile state and spawn the recovery process (at restart).

        The wipe is synchronous -- from the first post-restart instant the
        node presents empty-until-recovered state, and the node-wide
        fence parks incoming requests until the rebuild finishes.
        Returns the recovery :class:`~repro.sim.Process`.
        """
        node = self.node
        if node.wal is None:
            raise RuntimeError("recovery requires durability.wal_enabled")
        node.fence.raise_node()
        records = node.wal.records()
        node.wal.unfreeze()
        result = replay(
            records, max(node.shared.num_nodes, node.node_id + 1)
        )
        self._wipe_volatile()
        self._install_replayed(result)
        # Restore membership knowledge logged before the crash; epochs
        # committed during the outage arrive via gossip's view piggyback.
        node.membership.restore(result.view)
        return node.sim.spawn(
            self._recover(result), name=f"n{node.node_id}:recover"
        )

    def _wipe_volatile(self) -> None:
        """Durable-state loss: everything but the WAL is gone.

        ``site_vc`` is zeroed *in place* (never replaced): read handlers
        blocked across the crash hold references to its entries list, and
        a replacement object would let them satisfy their snapshot waits
        against a stale clock.
        """
        node = self.node
        node._incarnation += 1
        node._reset_volatile()
        for rnd in node.in_doubt.rounds.values():
            rnd.doomed = True  # no round of the lost incarnation may decide
        node.in_doubt.rounds = {}
        node.applier.claims.clear()
        site_vc = node.site_vc
        for origin in range(len(site_vc.entries)):
            site_vc[origin] = 0
        node._on_volatile_wiped()

    def _install_replayed(self, result: ReplayResult) -> None:
        """Adopt the WAL-rebuilt store, clock, decisions and in-doubt set."""
        node = self.node
        node.store = result.store
        site_vc = node.site_vc
        replayed = result.site_vc
        if len(replayed) > len(site_vc.entries):
            site_vc.widen(len(replayed))
        for origin in range(len(site_vc.entries)):
            site_vc[origin] = replayed[origin] if origin < len(replayed) else 0
        # Never hand out a sequence number at or below one that escaped:
        # every escaped seq has a DecisionRecord (logged before fan-out).
        node.curr_seq_no = max(result.curr_seq_no, site_vc[node.node_id])
        node.in_doubt.log.restore(result.decisions)
        for txn_id, record in sorted(result.in_doubt.items()):
            # Re-stage on the fresh lock table so whichever path resolves
            # this entry (recovery's own termination, a late Decide, or a
            # lease) releases locks it actually holds.  The table is
            # brand-new, so the acquires are uncontended and synchronous.
            writes = dict(record.writes)
            for key in writes:
                granted = node.locks.lock_for(key).acquire_write(txn_id)
                assert granted.triggered, "fresh lock table cannot block"
            node._prepared[txn_id] = PreparedTxn(
                writes, writes, VoteBody(True), record.coordinator
            )
        if node.replication is not None:
            node.replication.on_recovered(result.replication)

    def _recover(self, result: ReplayResult):
        """Rebuild from the WAL: terminate in-doubt prepares, catch up.

        Runs with the node-wide fence up (DESIGN.md 5.5 has the why):

        1. One SYNC to every peer, carrying our replayed frontier of *its*
           origin; it answers with its ``siteVC`` and every commit it
           decided above that frontier that wrote here, with our writes.
           Listed means committed, unlisted by a coordinator that
           answered means aborted -- both exact; one unreachable for the
           whole budget is presumed to have aborted.
        2. Settle the in-doubt prepares the WAL kept by that rule (by our
           own decision log where this node coordinated) and re-stage the
           listed commits whose ``PrepareRecord`` the crash took.  What
           committed goes through ``_apply_committed_decide``, sequence
           number *claimed* (``Applier.claim``) so no catch-up ticks it.
        3. Per-origin ``Applier.advance_to`` the element-wise max of the
           replies -- our *own* origin to ``curr_seq_no``: a commit whose
           loopback Decide died with the crash has a durable decision
           record but never advanced our own clock entry.
        4. Re-announce our own origin to the peers the replies showed
           behind on it: a commit decided just before the crash may have
           lost its whole fan-out, and nobody else can close that gap in
           their in-order apply.
        """
        node = self.node
        incarnation = node._incarnation
        targets, peer_frontiers, listed = (
            yield from node.healing.collect_frontiers(restage=True)
        )
        if node._incarnation != incarnation:
            return  # crashed again mid-recovery; a newer recovery owns it
        if node.curr_seq_no > targets[node.node_id]:
            targets[node.node_id] = node.curr_seq_no
        applier = node.applier
        applier.see(len(targets) - 1)  # origins that joined while we were down

        waiters = []

        def apply(decide, process=None):
            waiters.append(applier.claim(
                decide, process, name=f"n{node.node_id}:recover-{decide.txn_id}"
            ))

        for txn_id in sorted(result.in_doubt):
            entry = node._prepared.get(txn_id)
            if entry is None:
                continue  # a Decide that raced the fan-out resolved it
            if entry.coordinator == node.node_id:
                decide = node.in_doubt.log.decide(txn_id)
            else:
                status = listed.pop(txn_id, None)
                decide = status is not None and _decide(status.origin, status)
            if node.in_doubt.resolve(txn_id, entry, decide, "recovery"):
                apply(decide)
        restaged_before = self.restaged
        for _txn_id, status in sorted(listed.items()):
            if status.seq_no > node.site_vc[status.origin]:
                apply(status, self._restage(status))

        for origin, target in enumerate(targets):
            if target > node.site_vc[origin]:
                waiters.append(node.sim.spawn(
                    applier.advance_to(origin, target),
                    name=f"n{node.node_id}:catchup-{origin}",
                ))
        if waiters:
            yield AllOf(node.sim, waiters)
        if node._incarnation != incarnation:
            return

        reannounce(
            node,
            node.node_id,
            node.in_doubt.log.by_seq,
            dict(sorted(peer_frontiers.items())),
            node.site_vc[node.node_id],
        )
        self.recoveries += 1
        node.fence.lower_node()
        node.tracer.emit(
            node.node_id, "recover", replayed=result.replayed,
            in_doubt=len(result.in_doubt), restaged=self.restaged - restaged_before,
        )

    def _restage(self, status):
        """Re-create a prepare the crash took (``status``: its coordinator's
        answer, with our writes), then apply its commit.

        The locks come through the waiting path: an in-doubt entry the WAL
        kept may hold a key, and by C4 it committed first -- the lock table
        replays first-committer-wins order (lost prepares are pairwise
        key-disjoint).  The ``PrepareRecord`` is logged again: to a second
        crash this is an ordinary in-doubt entry.
        """
        node = self.node
        locks = node.locks
        writes = dict(status.writes)
        yield from locks.acquire_write_all(writes, status.txn_id, None)
        if locks is not node.locks:
            return
        if node.site_vc[status.origin] >= status.seq_no:
            # The apply we queued behind was this commit's own: a Decide
            # raced the fan-out while its entry was still in the WAL's.
            locks.release_write_all(writes, owner=status.txn_id)
            return
        entry = PreparedTxn(writes, writes, VoteBody(True), status.origin)
        entry.lsn = node.wal.append(
            PrepareRecord(status.txn_id, status.origin, status.writes)
        )
        node._prepared[status.txn_id] = entry
        self.restaged += 1
        node.metrics.count("prepares_restaged")
        yield from node._apply_committed_decide(_decide(status.origin, status))

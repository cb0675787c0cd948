"""The join and leave drivers (online reconfiguration).

Each is a membership view change, driven through the two-phase protocol
of :mod:`repro.cluster.membership`, around one
:func:`~repro.cluster.handoff.fenced_handoff` over the moves
:func:`~repro.cluster.rebalancer.plan_join` or ``plan_leave`` choose --
the cutover a migration runs.  A join commits ``JOINING``, bootstraps
the joiner's clock, hands it its shards from every donor at once (the
flip is all-or-nothing) and commits ``ACTIVE``; a leave commits
``DRAINING``, hands the victim's shards to the survivors, retires it
from the shard map and commits its removal with its final frontier.  A
plan goes stale only when a concurrent migration flips one of its shards
first; the cutover then refuses it whole and the driver plans again.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.handoff import Move, cutover, fenced_handoff
from repro.cluster.membership import (
    ACK_TIMEOUT,
    ACTIVE,
    DRAINING,
    HANDOFF_TIMEOUT,
    JOINING,
    MAX_ATTEMPTS,
    MembershipView,
)
from repro.cluster.rebalancer import plan_join, plan_leave


class ReconfigDriver:
    """Drives one :class:`~repro.system.Cluster`'s joins and leaves."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.shard_map = cluster.directory

    # -- view-change plumbing ------------------------------------------
    def _current_view(self) -> MembershipView:
        """The newest committed view across live, non-removed members."""
        cluster = self.cluster
        best = None
        for node in cluster.nodes:
            if node.node_id in cluster._removed:
                continue
            if cluster.network.is_crashed(node.node_id):
                continue
            view = node.membership.view
            if best is None or view.epoch > best.epoch:
                best = view
        if best is None:
            raise RuntimeError("no live member to read the current view from")
        return best

    def _live_proposer(self, view: MembershipView, exclude=()):
        """The lowest live ACTIVE member -- the view-change coordinator.

        Falls back to any live member so a cluster mid-transition (all
        survivors DRAINING/JOINING) can still finish its view change.
        """
        cluster = self.cluster

        def usable(member: int) -> bool:
            return (
                member not in exclude
                and member not in cluster._removed
                and member < len(cluster.nodes)
                and not cluster.network.is_crashed(member)
            )

        for member, state in sorted(view.members.items()):
            if state == ACTIVE and usable(member):
                return cluster.nodes[member]
        for member in sorted(view.members):
            if usable(member):
                return cluster.nodes[member]
        return None

    def _drive_view(self, derive, exclude=()):
        """Propose-and-collect-acks, retrying across proposer crashes.

        ``derive(current)`` builds the target view from the newest
        committed view (returning None when the change is moot).  Each
        attempt re-reads the current view and re-picks a live proposer,
        so a proposer that crashes mid-round is simply routed around.
        Returns the acked view, or None after ``MAX_ATTEMPTS`` rounds.
        """
        cluster = self.cluster
        for _attempt in range(MAX_ATTEMPTS):
            current = self._current_view()
            target = derive(current)
            if target is None:
                return None
            proposer = self._live_proposer(current, exclude=exclude)
            if proposer is None:
                return None
            proposer.membership.propose(target)
            yield self.sim.timeout(ACK_TIMEOUT)
            required = {
                member for member in target.fanout_ids
                if member < len(cluster.nodes)
                and not cluster.network.is_crashed(member)
            }
            if required <= proposer.membership.acks.get(target.epoch, set()):
                return target
        return None

    def _commit_view(self, view: MembershipView, exclude=()) -> None:
        """Fan out a commit through a live proposer (one-way, idempotent)."""
        proposer = self._live_proposer(view, exclude=exclude)
        if proposer is not None:
            proposer.membership.commit(view)

    def _commit_removal(self, member_id: int, final_seq: Optional[int]):
        """Drive and commit the view that drops ``member_id``."""

        def derive(current: MembershipView):
            if current.state_of(member_id) is None:
                return None
            return current.without_member(member_id, final_seq=final_seq)

        acked = yield from self._drive_view(derive, exclude=(member_id,))
        if acked is None:
            # Force the removal through anyway: commit is one-way and
            # idempotent.
            current = self._current_view()
            if current.state_of(member_id) is not None:
                acked = current.without_member(member_id, final_seq=final_seq)
        if acked is not None:
            self._commit_view(acked, exclude=(member_id,))

    # -- ownership -------------------------------------------------------
    def _hand_off(self, plan: Callable[[], List[Move]], act=None):
        """Generator: run ``plan()``'s moves through one fenced handoff,
        and again after each success until the plan comes out empty (a
        migration may flip a shard to a victim meanwhile); False on a
        failure that a stale plan does not explain."""
        shard_map, handed = self.shard_map, False
        for _attempt in range(MAX_ATTEMPTS):
            moves = plan()
            if handed and not moves:
                return True
            shipped = yield from fenced_handoff(
                self.cluster, moves, act and (lambda: act(moves))
            )
            handed = shipped is not None
            if not handed and all(
                shard_map.owner_of(shard) == donor for shard, donor, _ in moves
            ):
                return False
        return False

    def _retire(self, member_id: int):
        """Generator: hand every shard of ``member_id`` to the others and
        drop it from the shard map; False (nothing re-placed unshipped)
        if the handoff fails."""
        shard_map = self.shard_map
        handed = yield from self._hand_off(
            lambda: plan_leave(shard_map.owners(), shard_map.node_ids, member_id)
        )
        if handed:
            shard_map.remove_node(member_id)
        return handed

    # -- join ----------------------------------------------------------
    def join(self, joiner_id: int):
        cluster = self.cluster

        def derive_joining(current: MembershipView):
            if current.state_of(joiner_id) is not None:
                return None  # already a member: duplicate add
            return current.with_member(joiner_id, JOINING)

        acked = yield from self._drive_view(derive_joining)
        if acked is None:
            cluster._removed.add(joiner_id)
            return False
        self._commit_view(acked, exclude=(joiner_id,))
        # Bootstrap and handoff run in a subprocess so a joiner crash
        # cannot strand the driver on an RPC that will never settle.
        deadline = self.sim.now + HANDOFF_TIMEOUT
        worker = self.sim.spawn(
            self._join_work(joiner_id, acked), name=f"join-work:n{joiner_id}"
        )
        while not worker.triggered:
            if cluster.network.is_crashed(joiner_id) or self.sim.now >= deadline:
                break
            yield self.sim.timeout(ACK_TIMEOUT)

        def derive_active(current: MembershipView):
            if current.state_of(joiner_id) != JOINING:
                return None
            members = dict(current.members)
            members[joiner_id] = ACTIVE
            retired = dict(current.retired)
            retired.pop(joiner_id, None)
            return MembershipView(current.epoch + 1, members, retired)

        if worker.triggered and worker.value is True:
            acked = yield from self._drive_view(derive_active)
            if acked is not None:
                self._commit_view(acked)
                if cluster.tracer._enabled:
                    cluster.tracer.emit(joiner_id, "join_complete", epoch=acked.epoch)
                return True
        # Abandon.  A joiner must not keep key ranges outside the
        # committed membership: any it was flipped go back first, and if
        # that fails too it stays JOINING and keeps them.
        if joiner_id in self.shard_map.node_ids and not (
            yield from self._retire(joiner_id)
        ):
            return False
        yield from self._abandon_join(joiner_id)
        return False

    def _join_work(self, joiner_id: int, view: MembershipView):
        """Bootstrap a JOINING member: clock catch-up, then shard handoff."""
        cluster = self.cluster
        joiner = cluster.nodes[joiner_id]
        # The joiner is in the fan-out: wait for it to apply the view.
        while joiner.membership.view.epoch < view.epoch:
            if joiner_id in cluster._removed:
                return False  # the driver abandoned this join meanwhile
            yield self.sim.timeout(ACK_TIMEOUT)
        joiner.healing.start()
        # Clock-only bootstrap: adopt every origin's committed frontier
        # (the joiner owns no keys yet, so frontiers are all it needs).
        targets, _, _ = yield from joiner.healing.collect_frontiers()
        yield from joiner.applier.pull(targets)
        cluster.tracer.emit(
            joiner_id, "join_bootstrap", clock=joiner.site_vc.to_tuple()
        )
        shard_map = self.shard_map
        # One handoff from every donor; the cutover admits the joiner --
        # unless the driver abandoned it meanwhile -- and flips them all.
        flipped = yield from self._hand_off(
            lambda: plan_join(shard_map.owners(), shard_map.node_ids, joiner_id),
            lambda moves: joiner_id not in cluster._removed
            and cutover(shard_map, moves, admit=joiner_id),
        )
        return flipped

    def _abandon_join(self, joiner_id: int):
        """Remove a part-way joiner (abandoned join: no retired entry)."""
        cluster = self.cluster
        cluster._removed.add(joiner_id)
        cluster.nodes[joiner_id].healing.stop()
        yield from self._commit_removal(joiner_id, final_seq=None)
        if cluster.tracer._enabled:
            cluster.tracer.emit(joiner_id, "join_abandoned")

    # -- leave ---------------------------------------------------------
    def leave(self, victim_id: int):
        cluster = self.cluster
        victim = cluster.nodes[victim_id]

        def derive_draining(current: MembershipView):
            if current.state_of(victim_id) != ACTIVE:
                return None
            if len(current.ring_ids) <= 1:
                return None  # refuse to drain the last key owner
            return current.with_member(victim_id, DRAINING)

        acked = yield from self._drive_view(derive_draining, exclude=(victim_id,))
        if acked is None:
            return False
        self._commit_view(acked)
        deadline = self.sim.now + HANDOFF_TIMEOUT
        while victim.membership.view.epoch < acked.epoch:
            if self.sim.now >= deadline:
                yield from self._revert_drain(victim_id)
                return False
            yield self.sim.timeout(ACK_TIMEOUT)
        # One handoff drains every shard to the survivors: in-flight
        # prepares settle through their Decides, new ones park on the
        # shard fences and, once it lifts, vote "moved" and go to the
        # new owners.  Reads keep being served here throughout.
        if not (yield from self._retire(victim_id)):
            yield from self._revert_drain(victim_id)
            return False
        final_seq = victim.curr_seq_no
        yield from self._commit_removal(victim_id, final_seq)
        victim.healing.stop()
        cluster._removed.add(victim_id)
        cluster.tracer.emit(victim_id, "drain_complete", final_seq=final_seq)
        return True

    def _revert_drain(self, victim_id: int):
        """Put a draining member back to ACTIVE (decommission failed)."""

        def derive(current: MembershipView):
            if current.state_of(victim_id) != DRAINING:
                return None
            return current.with_member(victim_id, ACTIVE)

        acked = yield from self._drive_view(derive)
        if acked is not None:
            self._commit_view(acked)

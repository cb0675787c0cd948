"""The join and leave drivers (online reconfiguration).

Each is one membership view commit (:mod:`repro.cluster.membership`)
beside one :func:`~repro.cluster.handoff.fenced_handoff` over the moves
:func:`~repro.cluster.rebalancer.plan_join` or ``plan_leave`` choose --
the cutover a migration runs.  A join commits the joiner into the view,
bootstraps its clock and hands it its shards from every donor at once
(the flip is all-or-nothing); a leave hands the victim's shards to the
survivors, retires it from the shard map and commits its removal with
its final frontier.  A plan goes stale only when a concurrent migration
flips one of its shards first; the cutover then refuses it whole and
the driver plans again.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.handoff import Move, cutover, fenced_handoff
from repro.cluster.membership import (
    HANDOFF_TIMEOUT,
    MAX_ATTEMPTS,
    POLL_TICK,
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

    def _live_member(self, view: MembershipView, exclude=()):
        """The lowest live member of ``view`` -- the one that fans a
        commit out."""
        cluster = self.cluster
        for member in view.members:
            if (
                member not in exclude
                and member not in cluster._removed
                and member < len(cluster.nodes)
                and not cluster.network.is_crashed(member)
            ):
                return cluster.nodes[member]
        return None

    def _commit(self, derive, exclude=()) -> Optional[MembershipView]:
        """Commit ``derive(current)``, the target built from the newest
        committed view, through a live member (one-way, idempotent: a
        member the fan-out misses learns it from gossip or the next
        commit).  None when the change is moot or no member is live."""
        current = self._current_view()
        target = derive(current)
        if target is None:
            return None
        member = self._live_member(current, exclude=exclude)
        if member is None:
            return None
        member.membership.commit(target)
        return target

    def _commit_removal(self, member_id: int, final_seq: Optional[int]) -> None:
        """Commit the view that drops ``member_id``."""

        def derive(current: MembershipView):
            if member_id not in current.members:
                return None
            return current.without_member(member_id, final_seq=final_seq)

        self._commit(derive, exclude=(member_id,))

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

        def derive(current: MembershipView):
            if joiner_id in current.members:
                return None  # already a member: duplicate add
            return current.with_member(joiner_id)

        view = self._commit(derive)
        if view is None:
            cluster._removed.add(joiner_id)
            return False
        # Bootstrap and handoff run in a subprocess so a joiner crash
        # cannot strand the driver on an RPC that will never settle.
        deadline = self.sim.now + HANDOFF_TIMEOUT
        worker = self.sim.spawn(
            self._join_work(joiner_id, view), name=f"join-work:n{joiner_id}"
        )
        while not worker.triggered:
            if cluster.network.is_crashed(joiner_id) or self.sim.now >= deadline:
                break
            yield self.sim.timeout(POLL_TICK)
        if worker.triggered and worker.value is True:
            if cluster.tracer._enabled:
                cluster.tracer.emit(joiner_id, "join_complete", epoch=view.epoch)
            return True
        # Abandon.  A joiner must not keep key ranges outside the
        # committed membership: any it was flipped go back first, and if
        # that fails too it stays in the view and keeps them.
        if joiner_id in self.shard_map.node_ids and not (
            yield from self._retire(joiner_id)
        ):
            return False
        self._abandon_join(joiner_id)
        return False

    def _join_work(self, joiner_id: int, view: MembershipView):
        """Bootstrap a joiner: clock catch-up, then shard handoff."""
        cluster = self.cluster
        joiner = cluster.nodes[joiner_id]
        # The joiner is in the fan-out: wait for it to apply the view.
        while joiner.membership.view.epoch < view.epoch:
            if joiner_id in cluster._removed:
                return False  # the driver abandoned this join meanwhile
            yield self.sim.timeout(POLL_TICK)
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

    def _abandon_join(self, joiner_id: int) -> None:
        """Remove a part-way joiner (abandoned join: no retired entry)."""
        cluster = self.cluster
        cluster._removed.add(joiner_id)
        cluster.nodes[joiner_id].healing.stop()
        self._commit_removal(joiner_id, final_seq=None)
        if cluster.tracer._enabled:
            cluster.tracer.emit(joiner_id, "join_abandoned")

    # -- leave ---------------------------------------------------------
    def leave(self, victim_id: int):
        cluster, shard_map = self.cluster, self.shard_map
        if (
            victim_id not in shard_map.node_ids  # a joiner not yet admitted
            or len(shard_map.node_ids) <= 1  # the last key owner
            or victim_id in cluster._leaving
        ):
            return False
        victim = cluster.nodes[victim_id]
        # One handoff drains every shard to the survivors: in-flight
        # prepares settle through their Decides, new ones park on the
        # shard fences and, once it lifts, vote "moved" and go to the
        # new owners.  Reads keep being served here throughout.  A
        # failed leave keeps the victim a member, owning what it still
        # owns.
        cluster._leaving.add(victim_id)
        retired = yield from self._retire(victim_id)
        cluster._leaving.discard(victim_id)
        if not retired:
            return False
        final_seq = victim.curr_seq_no
        self._commit_removal(victim_id, final_seq)
        victim.healing.stop()
        cluster._removed.add(victim_id)
        cluster.tracer.emit(victim_id, "drain_complete", final_seq=final_seq)
        return True

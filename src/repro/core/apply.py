"""The in-order applier: every advance of a node's ``siteVC``, gated once.

A site applies one origin's commits in sequence order: ``siteVC[o]``
moves to ``s`` only after ``s - 1`` (Alg. 5 line 16, Alg. 6 lines 1-4).
That rule is :meth:`Applier.turn`; a Decide (which ticks with its data,
Alg. 5 line 21), a Propagate and the clock-only catch-ups of recovery,
gossip, a join bootstrap and a snapshot install all pass it.  A seq an
applier claimed or is installing is *held*: no clock-only tick passes
it, or the writes that applier must install under the tick are lost.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.sim import ConditionVariable, wait_until
from repro.storage.wal import PropagateRecord


class Applier:
    """The per-origin gate of one MVCC node (``node.applier``)."""

    __slots__ = ("node", "sim", "site_vc", "site_vc_changed", "claims")

    def __init__(self, node) -> None:
        self.node = node
        self.sim = node.sim
        self.site_vc = node.site_vc  # never replaced: a wipe zeroes it
        #: Notified on every advance; the read handler's stall waits on it.
        self.site_vc_changed = ConditionVariable(node.sim)
        #: ``(origin, seq)`` under :meth:`claim`; spent once at or below
        #: ``siteVC[origin]``, all cleared by a wipe.
        self.claims: Set[Tuple[int, int]] = set()

    def see(self, origin: int) -> None:
        """Widen ``siteVC`` on first sight of ``origin``: its commits can
        outrun the view commit that widens the clock (equivalently: new
        entries start at zero either way)."""
        site_vc = self.site_vc
        if origin >= len(site_vc.entries):
            site_vc.widen(origin + 1)

    def turn(self, origin: int, seq_no: int):
        """Alg. 5 line 16: wait until ``seq_no`` is next from ``origin``.
        Returns the ``wait_until`` generator itself, to ``yield from``."""
        self.see(origin)
        site_vc = self.site_vc
        return wait_until(self.site_vc_changed, lambda: site_vc[origin] >= seq_no - 1)

    def tick(self, origin: int, seq_no: int) -> None:
        """Alg. 6 line 3, the one clock-only tick: ``siteVC[origin] =
        seq_no``, logged and waking the waiters.  (The tick that installs
        data is ``_apply_committed_decide``'s, logged with its versions.)"""
        node = self.node
        if node.wal is not None:
            node.wal.append(PropagateRecord(origin, seq_no))
        self.site_vc[origin] = seq_no
        self.site_vc_changed.notify_all()
        if node.tracer._enabled:
            node.tracer.emit(node.node_id, "propagate", origin=origin, seq=seq_no)

    def advance(self, origin: int, seq_nos: Iterable[int]):
        """Generator returning the ticks made: each of ``seq_nos`` is
        skipped if applied, waited out while held (an applier claimed it,
        or is installing it: ``_applying``), else ticked on its turn.  A
        dense, unheld run from the frontier never yields."""
        node, site_vc = self.node, self.site_vc
        incarnation = node._incarnation
        ticked = 0
        for seq_no in seq_nos:
            if site_vc[origin] >= seq_no:
                continue
            seat = (origin, seq_no)
            # A held seq is its applier's to tick: wait until it has.
            held = seat in self.claims or seat in node._applying.values()
            yield from self.turn(origin, seq_no + 1 if held else seq_no)
            if node._incarnation != incarnation:
                return ticked  # wiped: the clock it advanced is gone
            if site_vc[origin] < seq_no:
                self.tick(origin, seq_no)
                ticked += 1
        return ticked

    def advance_to(self, origin: int, target: int):
        """Generator: :meth:`advance` up to ``target`` over Propagates this
        node will never see (lost while down or cut off, or before its
        join), traced as one catch-up."""
        advanced = yield from self.advance(
            origin, range(self.site_vc[origin] + 1, target + 1)
        )
        if advanced:
            self.node.tracer.emit(self.node.node_id, "catchup", origin=origin,
                                  advanced=advanced, target=target)

    def on_propagate(self, envelope) -> None:
        """Alg. 6 lines 1-4.  The next expected seq, or a duplicate, is
        handled inline; an out-of-order one spawns an :meth:`advance`.
        (A Propagate names no seq this node took part in, so no inline
        tick can be held.)"""
        body = envelope.payload
        origin, seq_no = body.origin, body.seq_no
        self.see(origin)
        current = self.site_vc[origin]
        if current == seq_no - 1:
            self.tick(origin, seq_no)
        elif current < seq_no:
            self.sim.spawn(self.advance(origin, (seq_no,)), name="Propagate")

    def claim(self, decide, applier=None, *, name: str):
        """Spawn ``applier`` (``_apply_committed_decide(decide)`` unless
        given) with ``decide``'s seq claimed until it is applied -- even if
        this applier returns early, a duplicate of one still installing."""
        site_vc = self.site_vc
        self.claims = {c for c in self.claims if c[1] > site_vc[c[0]]}
        self.claims.add((decide.origin, decide.seq_no))
        if applier is None:
            applier = self.node._apply_committed_decide(decide)
        return self.sim.spawn(applier, name=name)

    def pull(self, peer_vc, superseded=lambda: False):
        """Advance our clock toward a peer's digest (gossip, a join
        bootstrap) without losing writes: a prepare we hold from a lagging
        origin may have committed, so those are settled first (recovery's
        step 1) and the committed applied under a claim.  An origin whose
        coordinator cannot be reached is skipped this round."""
        node, site_vc = self.node, self.site_vc
        lagging: Dict[int, int] = {}
        for origin, target in enumerate(peer_vc):
            if origin == node.node_id or target <= 0:
                continue
            self.see(origin)
            if target > site_vc[origin]:
                lagging[origin] = target
        if not lagging:
            return
        unresolved: Set[int] = set()
        for txn_id, entry in sorted(node._prepared.items()):
            coordinator = entry.coordinator
            if coordinator not in lagging or coordinator in unresolved:
                continue
            decide = yield from node.in_doubt.settle(
                txn_id, entry, via="anti_entropy"
            )
            if superseded():
                return
            if decide is None:
                unresolved.add(coordinator)
            elif decide:
                self.claim(decide, name=f"n{node.node_id}:gossip-apply-{txn_id}")
        for origin in sorted(lagging):
            if origin in unresolved:
                continue
            yield from self.advance_to(origin, lagging[origin])
            if superseded():
                return

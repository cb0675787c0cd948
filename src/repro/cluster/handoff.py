"""The fenced handoff: fence, drain, ship, act under the fence, unfence.

Every change of who holds a set of shards -- a migration, a join, a
drain, an abandoned join's hand-back, a failover promotion, a backup
(re)bootstrap -- is this one handoff over ``(shard, donor, dest)`` moves.
Each donor **fences** its moving shards (new prepares touching a key of
them park before taking locks; reads continue) and **drains** their
write locks; the handoff then **ships** each destination the chains of
its shards in one message (:class:`Shipments`), **acts** under the
fence -- by default the :func:`cutover` flips every move -- so no
prepare slips between shipment and flip, and **unfences** what it
fenced.  Parked prepares wake and re-check ownership: after a flip they
vote "moved" and re-prepare at the new owner, after a failure they
proceed locally.  Nothing aborts, and a failed handoff can simply be
retried.  A promotion's donor is its successor itself: the replicated
chains are already there.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.membership import ACK_TIMEOUT, HANDOFF_TIMEOUT
from repro.core.wire import ShardShipmentBody
from repro.net.message import Envelope, MessageType
from repro.sim import Event
from repro.storage.wal import checkpoint_fingerprint

#: One shard's change of holder: ``(shard, donor, dest)``.
Move = Tuple[int, int, int]


def shard_keys(node, shards) -> list:
    """The keys ``node`` stores in ``shards``, in shipping order (a bulk
    scan: the placement memo is left alone)."""
    shard_of = node.directory.hash_shard
    return sorted(
        (key for key in node.store.keys() if shard_of(key) in shards), key=repr
    )


def cutover(shard_map, moves: Sequence[Move], admit: Optional[int] = None) -> bool:
    """The default act: flip every move, or none if some donor no longer
    owns its shard (a concurrent handoff flipped it first).  ``admit``
    joins the map first -- a joiner owns nothing until its cutover."""
    if any(shard_map.owner_of(shard) != donor for shard, donor, _ in moves):
        return False
    if admit is not None:
        shard_map.add_node(admit)
    for shard, _donor, dest in moves:
        shard_map.assign(shard, dest)
    return True


def _drain_write_locks(node, shards):
    """Generator: wait until no write lock on a key of ``shards`` is held
    at ``node``; False if the handoff deadline passes first."""
    sim = node.sim
    deadline = sim.now + HANDOFF_TIMEOUT
    locks, shard_of = node.locks, node.directory.hash_shard
    while any(
        locks.write_held(key) and shard_of(key) in shards
        for key in locks.locked_keys()
    ):
        if sim.now >= deadline:
            return False
        yield sim.timeout(ACK_TIMEOUT)
    return True


def fenced_handoff(
    cluster, moves: Sequence[Move], act: Optional[Callable[[], object]] = None
):
    """Generator: carry out ``moves`` under their donors' shard fences.

    Returns the number of keys shipped, or ``None`` if the handoff
    failed -- a donor crashed or wiped, a drain timed out, a shipment
    was refused, or ``act`` returned ``False``.  ``act`` (default:
    :func:`cutover`) runs once everything shipped, still under the
    fence; it may be a generator function.
    """
    nodes = cluster.nodes
    by_donor: Dict[int, Dict[int, List[int]]] = {}
    for shard, donor, dest in moves:
        by_donor.setdefault(donor, {}).setdefault(dest, []).append(shard)
    fenced = {
        donor: [shard for shards in dests.values() for shard in shards]
        for donor, dests in by_donor.items()
    }
    incarnations = {donor: nodes[donor]._incarnation for donor in fenced}
    for donor, shards in fenced.items():
        nodes[donor].fence.raise_shards(shards)
    try:
        for donor in sorted(fenced):
            drained = yield from _drain_write_locks(nodes[donor], set(fenced[donor]))
            if not drained or nodes[donor]._incarnation != incarnations[donor]:
                return None
        shipments = [
            (nodes[donor], nodes[dest], shard_keys(nodes[donor], set(shards)))
            for donor in sorted(by_donor)
            for dest, shards in sorted(by_donor[donor].items())
            if dest != donor
        ]
        for donor, dest, keys in shipments:
            if keys and not (
                yield from donor.shipments.ship(
                    dest.node_id, keys, incarnations[donor.node_id]
                )
            ):
                return None
        # The chains carry versions only: the donor's visible reads of
        # them (FW-KV's VAS, up to now) go with the cutover, or a key's
        # next writer at its new owner could miss a reader (read skew).
        for donor, dest, keys in shipments:
            for key in keys:
                dest.store.adopt_read_sets(key, donor.store)
        done = cutover(cluster.directory, moves) if act is None else act()
        if isinstance(done, GeneratorType):
            done = yield from done
        return None if done is False else sum(len(keys) for *_, keys in shipments)
    finally:
        for donor, shards in fenced.items():
            nodes[donor].fence.lower_shards(shards)


class Shipments:
    """Both ends of chain shipping at one node (``node.shipments``).

    The donor sends the fingerprinted chains of the keys moving to one
    destination in one ``SHARD_SHIPMENT`` RPC; the answer is ``None``
    once they are installed, else why not.  The chains are authoritative:
    the receiver adopts them verbatim and leaves its clock alone -- the
    origins' commits reach it through the normal fan-out, and advancing
    the clock here could skip a locally prepared transaction's install.
    """

    def __init__(self, owner) -> None:
        self.owner = owner
        self.sim = owner.sim
        self.node_id = owner.node_id
        #: Shipments sent from this node; the last one is its id.
        self._sent = 0
        #: Sender -> ``(snapshot_id, verdict)`` of the newest shipment
        #: from it that arrived here.  Each id is decided once: a copy of
        #: it -- duplicated, retried, late -- is answered with the same
        #: verdict, an older id is refused, so no copy can adopt over the
        #: versions the new owner wrote after its cutover.  Like the id
        #: counter it outlives a crash.
        self._latest: Dict[int, Tuple[int, Event]] = {}

    def ship(self, peer: int, keys: Sequence, incarnation: int):
        """Generator: ship the chains of ``keys`` to their new owner; True
        iff it installed them.  The caller has fenced the keys and
        drained their write locks, so the chains are stable.  A refusal,
        a lost reply or this node being wiped or fenced meanwhile fails
        the handoff."""
        owner = self.owner
        store = owner.store
        chains = tuple((key, *store.snapshot(key)) for key in keys if key in store)
        site_vc = owner.site_vc.to_tuple()
        self._sent += 1
        body = ShardShipmentBody(
            self.node_id, self._sent, site_vc, owner.curr_seq_no,
            checkpoint_fingerprint(chains, site_vc, owner.curr_seq_no), chains,
        )
        ok, refusal = yield from owner.node.rpc.call_settled(
            peer, MessageType.SHARD_SHIPMENT, body, config=owner.healing._rpc_config
        )
        if owner._incarnation != incarnation or owner.fence.node_wide:
            return False
        metrics = owner.metrics
        if not ok or refusal is not None:
            metrics.count("snapshot_rejected")
            return False
        metrics.count("snapshot_chains", len(chains))
        if owner.tracer._enabled:
            owner.tracer.emit(
                self.node_id, "shard_shipped", peer=peer,
                snapshot_id=body.snapshot_id, keys=len(chains),
                frontier=site_vc[self.node_id],
            )
        return True

    def on_shipment(self, envelope: Envelope):
        """Decide a shipment once; answer every copy of it alike."""
        rpc = self.owner.node.rpc
        body: ShardShipmentBody = rpc.body_of(envelope)
        latest = self._latest.get(body.sender)
        if latest is not None and body.snapshot_id <= latest[0]:
            refusal = (yield latest[1]) if body.snapshot_id == latest[0] else "stale"
        else:
            verdict = Event(self.sim, "shipment")
            self._latest[body.sender] = (body.snapshot_id, verdict)
            refusal = yield from self._install(body)
            verdict.succeed(refusal)
        rpc.reply(envelope, refusal)

    def _install(self, body: ShardShipmentBody):
        """Generator: adopt a shipment's chains; ``None``, or the refusal.

        The adoption itself is synchronous (no yields between the
        fingerprint check and the post-install checkpoint), so no message
        delivery can observe the chains half-adopted.
        """
        owner = self.owner
        if owner.fence.node_wide:
            return "recovering"
        incarnation = owner._incarnation
        # Drain in-flight Decide appliers: a transaction between its
        # version install and its ApplyRecord lives in neither the
        # shipped chains nor our log -- replacing the store under it
        # would lose the commit.  Decides that arrive during the drain
        # finish before the loop exits.
        while owner._applying:
            yield self.sim.timeout(1e-6)
            if owner._incarnation != incarnation:
                return "abandoned"
        # The sender's clock and counter are fingerprinted, never adopted.
        digest = checkpoint_fingerprint(body.chains, tuple(body.site_vc), body.curr_seq_no)
        if digest != body.fingerprint:
            return "fingerprint"
        # The shipment carries only keys moving to this node, so all are
        # adopted (a stale leftover chain from an earlier epoch is
        # overwritten by the authoritative copy).
        for key, base_vid, versions in body.chains:
            owner.store.adopt(key, base_vid, versions)
        # Durability: our WAL's surviving prefix replays to the *old*
        # state, so checkpoint the adopted state at once -- replay resets
        # at the newest checkpoint, making the install durable.
        if owner.wal is not None:
            owner.healing.checkpoints.checkpoint_now()
        owner.tracer.emit(
            self.node_id, "snapshot_install", sender=body.sender,
            snapshot_id=body.snapshot_id, chains=len(body.chains),
            frontier=body.site_vc[body.sender],
        )
        return None

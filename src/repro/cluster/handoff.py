"""The fenced handoff: fence, drain, ship, act under the fence, unfence.

The sites are fixed and a shard changes owner only when its owner dies,
so there are two handoffs, each with one donor: a failover promotion
(the successor is donor and dest: the replicated chains are already
there; the act flips ownership) and a backup (re)bootstrap (primary to
backup; the act restarts the stream).
The donor **fences** the shards (new prepares touching a key of them
park before taking locks; reads continue) and **drains** their write
locks; the handoff then **ships** the dest the chains of those shards
in one message (:class:`Shipments`), **acts** under the fence, so no
prepare slips between shipment and act, and **unfences** what it
fenced.  Parked prepares wake and re-check ownership: after a flip they
vote "moved" and re-prepare at the new owner, otherwise they proceed
locally.  Nothing aborts, and a failed handoff can simply be retried.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Callable, Dict, Sequence, Tuple

from repro.core.wire import ShardShipmentBody
from repro.net.message import Envelope, MessageType
from repro.sim import Event
from repro.storage.wal import checkpoint_fingerprint

#: How often a handoff's drain re-checks the donor's write locks.
POLL_TICK = 2e-3
#: Deadline for a handoff's drain of write locks.
HANDOFF_TIMEOUT = 200e-3


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
        yield sim.timeout(POLL_TICK)
    return True


def fenced_handoff(
    cluster, donor: int, dest: int, shards: Sequence[int],
    act: Callable[[], object],
):
    """Generator: hand ``shards`` from ``donor`` to ``dest`` under the
    donor's shard fence.

    Returns the number of keys shipped (none when ``dest`` is the donor),
    or ``None`` if the handoff failed -- the donor crashed or wiped, the
    drain timed out, the shipment was refused, or ``act`` returned
    ``False``.  ``act`` runs once the chains shipped, still under the
    fence; it may be a generator function.
    """
    node = cluster.nodes[donor]
    incarnation = node._incarnation
    shard_set = set(shards)
    node.fence.raise_shards(shards)
    try:
        drained = yield from _drain_write_locks(node, shard_set)
        if not drained or node._incarnation != incarnation:
            return None
        keys = []
        if dest != donor:
            # A bulk scan: the placement memo is left alone.
            shard_of = node.directory.hash_shard
            keys = sorted(
                (key for key in node.store.keys() if shard_of(key) in shard_set),
                key=repr,
            )
        if keys:
            if not (yield from node.shipments.ship(dest, keys, incarnation)):
                return None
            # The chains carry versions only: the donor's visible reads of
            # them (FW-KV's VAS) go too, so a promoted backup's next writer
            # sees the readers from before this bootstrap (streams carry none).
            store = cluster.nodes[dest].store
            for key in keys:
                store.adopt_read_sets(key, node.store)
        done = act()
        if isinstance(done, GeneratorType):
            done = yield from done
        return None if done is False else len(keys)
    finally:
        node.fence.lower_shards(shards)


class Shipments:
    """Both ends of chain shipping at one node (``node.shipments``).

    The donor sends the fingerprinted chains of the keys of the shards
    the receiver backs in one ``SHARD_SHIPMENT`` RPC; the answer is ``None``
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
        #: versions the receiver took in after it.  Like the id counter it
        #: outlives a crash.
        self._latest: Dict[int, Tuple[int, Event]] = {}

    def ship(self, peer: int, keys: Sequence, incarnation: int):
        """Generator: ship the chains of ``keys`` to ``peer``; True iff
        it installed them.  The caller has fenced the keys and
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
        # The shipment carries only keys this node backs, so all are
        # adopted (a stale chain from an earlier stream is overwritten
        # by the authoritative copy).
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

"""Per-node self-healing daemon: heartbeats, gossip, checkpoints.

One :class:`NodeHealing` rides along with every MVCC protocol node and
runs up to three background loops, each armed only by configuration
(:class:`~repro.config.HealingConfig`) so the paper-model defaults spawn
nothing and change nothing:

* the **heartbeat loop** beacons this node's ``siteVC`` to every peer on
  a jittered period, feeding the accrual failure detector at the
  receivers.  Heartbeats to a peer with traffic already in flight are
  suppressed (foreground messages are themselves liveness evidence);
* the **gossip loop** picks a seeded-random peer each period and runs one
  anti-entropy round: exchange ``siteVC`` digests over the existing SYNC
  RPC, push the full Decides of our own origin the peer is missing, and
  pull the clock advances we are missing -- after resolving any in-doubt
  prepares a lagging origin coordinated, so a committed transaction's
  buffered writes are installed rather than skipped.  Every step is the
  repair toolkit crash recovery also runs (:mod:`repro.core.repair`; the
  SYNC fan-out is :meth:`NodeHealing.collect_frontiers`), which is what
  lets a node that slept through a partition converge again *without* a
  restart and without foreground traffic;
* the **checkpoint loop** snapshots the node's durable state into the
  WAL and truncates the log below the newest checkpoint once the
  per-peer frontier evidence (harvested from heartbeats and digests)
  shows it stable everywhere -- see
  :class:`~repro.healing.checkpoint.CheckpointManager`.

Every loop draws from one seeded RNG stream per node
(``make_rng(seed, "healing", node_id)``), so a healing-enabled run is a
pure function of its seed like everything else in the simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import RpcConfig
from repro.core.repair import TERMINATION_ATTEMPTS, reannounce
from repro.core.vector_clock import VectorClock
from repro.core.wire import HeartbeatBody, SyncReplyBody, SyncRequestBody
from repro.healing.checkpoint import CheckpointManager
from repro.healing.detector import FailureDetector
from repro.net.message import Envelope, MessageType
from repro.sim import AllOf, PeriodicLoop
from repro.sim.rng import make_rng

#: Seeded jitter fraction added to each heartbeat and gossip period
#: (desyncs the per-node loops, like production gossip implementations).
_PERIOD_JITTER = 0.1

#: Upper bound on full Decides streamed to one peer per gossip round
#: (flow control; the next round continues where this one stopped).
MAX_STREAM_PER_ROUND = 64


class NodeHealing:
    """The self-healing layer of one MVCC protocol node."""

    def __init__(self, owner) -> None:
        self.owner = owner
        shared = owner.shared
        self.sim = owner.sim
        self.node_id = owner.node_id
        self.config = shared.config.healing
        self.metrics = owner.metrics
        self.tracer = owner.tracer
        self._static_peers = [
            peer for peer in shared.config.node_ids if peer != self.node_id
        ]
        self._rng = make_rng(shared.config.seed, "healing", self.node_id)
        #: peer -> newest sequence number of *our* origin known applied
        #: there (from heartbeats and gossip digests); the evidence WAL
        #: truncation and decision-log pruning wait on.
        self.peer_frontiers: Dict[int, int] = {}
        #: The periodic loops running since the last :meth:`start`.
        self._loops: List[PeriodicLoop] = []
        #: Completed anti-entropy rounds at this node (test probe).
        self.rounds = 0
        #: Set by :meth:`stop`: a gossip round in flight winds down too.
        self._stopped = False

        config = self.config
        self.detector = FailureDetector(
            self.sim, self.node_id, shared.num_nodes, config, tracer=self.tracer
        )
        #: Whether the detector actually receives evidence.  Without a
        #: heartbeat period or an RPC timeout there is none, and leaving
        #: the hooks uninstalled keeps delivery and the RPC retry ladder
        #: on their original fast paths -- tier-1 runs are bit-identical.
        self.armed = (
            config.heartbeat_interval is not None
            or owner.node.rpc.config.request_timeout is not None
        )
        if self.armed:
            owner.node.rpc.detector = self.detector
            owner.node.arrival_hook = self.detector.on_arrival

        # Repair RPCs -- gossip digests, chain shipments, every in-doubt
        # status query, an expiring lease's included -- must never hang
        # on a dead peer: under the paper's reliable-channel default (no
        # global timeout) they get a private single-attempt deadline;
        # with a global timeout they use the endpoint's own
        # (detector-capped) policy.
        if owner.node.rpc.config.request_timeout is None:
            self._rpc_config: Optional[RpcConfig] = RpcConfig(
                request_timeout=config.digest_timeout, max_attempts=1
            )
        else:
            self._rpc_config = None

        self.checkpoints = CheckpointManager(owner, self)

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------
    @property
    def peers(self) -> List[int]:
        """Current gossip/heartbeat partners, derived from the live view.

        At epoch zero (static membership) this is exactly the historical
        seed peer list; once views change it tracks the committed view's
        fan-out set (active, draining and joining members) minus self.
        """
        membership = self.owner.membership
        if membership.view.epoch == 0:
            return self._static_peers
        return [
            peer for peer in membership.view.fanout_ids
            if peer != self.node_id
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start whichever periodic loops the configuration arms
        (idempotent, restartable: see :class:`~repro.sim.PeriodicLoop`)."""
        if self._loops:
            return
        self._stopped = False

        def arm(interval, body, name, pace=None):
            loop = PeriodicLoop(
                self.sim, interval, body, f"n{self.node_id}:{name}", pace
            )
            loop.start()
            self._loops.append(loop)

        config = self.config
        if self.peers:
            arm(config.heartbeat_interval, self._beat, "heartbeat", self._period)
            arm(config.anti_entropy_interval, self._gossip, "gossip", self._period)
        if self.owner.wal is not None:
            arm(config.checkpoint.interval, self._checkpoint, "checkpoint")

    def stop(self) -> None:
        """Wind down the periodic loops (each exits at its next wake-up)."""
        self._stopped = True
        for loop in self._loops:
            loop.stop()
        self._loops = []

    def _own_entry(self, vc) -> int:
        """This node's entry of a peer-reported clock, zero when absent.

        A digest minted before this node joined is narrower than our id;
        the peer has applied none of our origin, which is exactly 0.
        """
        return vc[self.node_id] if self.node_id < len(vc) else 0

    # ------------------------------------------------------------------
    # Frontier evidence
    # ------------------------------------------------------------------
    def note_peer_frontier(self, peer: int, frontier: int) -> None:
        """Record that ``peer`` has applied our origin up to ``frontier``."""
        if frontier > self.peer_frontiers.get(peer, -1):
            self.peer_frontiers[peer] = frontier

    def on_heartbeat(self, envelope: Envelope) -> None:
        """A peer's liveness beacon (the arrival itself fed the detector
        via ``Node.arrival_hook``); harvest its frontier evidence."""
        body: HeartbeatBody = envelope.payload
        self.note_peer_frontier(envelope.src, self._own_entry(body.site_vc))

    def on_sync(self, envelope: Envelope) -> None:
        """Report this node's applied commit frontier (anti-entropy).

        Gossip digests additionally carry the requester's own ``siteVC``;
        its entry for *our* origin is durable-frontier evidence the
        checkpoint manager uses to decide WAL truncation.
        """
        owner = self.owner
        request: SyncRequestBody = owner.node.rpc.body_of(envelope)
        if request.site_vc is not None and self.node_id < len(request.site_vc):
            self.note_peer_frontier(
                request.requester, request.site_vc[self.node_id]
            )
        if request.restage_above is not None:
            # A recovering peer: it also wants what we committed there.
            owner.in_doubt.on_restage(envelope, request)
            return
        owner.node.rpc.reply(
            envelope, SyncReplyBody(owner.site_vc.to_tuple())
        )

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _period(self, interval: float) -> float:
        return interval + self._rng.uniform(0.0, _PERIOD_JITTER * interval)

    def _beat(self) -> None:
        owner = self.owner
        if owner.fence.node_wide:
            return
        network = owner.node.network
        now = self.sim.now
        body = HeartbeatBody(owner.site_vc.to_tuple())
        for peer in self.peers:
            if network.last_send_horizon(self.node_id, peer) >= now:
                # A message to this peer is already in flight; it
                # carries the same liveness signal for free.
                self.metrics.count("heartbeats_suppressed")
                continue
            owner.node.send(peer, MessageType.HEARTBEAT, body)
            self.metrics.count("heartbeats_sent")

    # ------------------------------------------------------------------
    # Anti-entropy gossip
    # ------------------------------------------------------------------
    def _gossip(self):
        if self.owner.fence.node_wide or not self.peers:
            return None
        return self.gossip_round(self.pick_gossip_peer())

    def pick_gossip_peer(self) -> int:
        """Choose the next gossip partner: a seeded uniform draw."""
        peers = self.peers
        return peers[self._rng.randrange(len(peers))]

    def gossip_round(self, peer: int):
        """One full anti-entropy exchange with ``peer``.

        Generator subroutine (tests drive it directly against a chosen
        peer).  Exchanges digests, pushes the peer's missing share of our
        own origin, pulls our missing share of everything else, then lets
        the checkpoint manager re-evaluate truncation with the fresh
        frontier evidence.
        """
        owner = self.owner
        incarnation = owner._incarnation

        def superseded() -> bool:
            return (
                self._stopped
                or owner.fence.node_wide
                or owner._incarnation != incarnation
            )

        ok, reply = yield from owner.node.rpc.call_settled(
            peer,
            MessageType.SYNC,
            SyncRequestBody(self.node_id, owner.site_vc.to_tuple()),
            config=self._rpc_config,
        )
        if not ok or superseded():
            return
        peer_vc = reply.site_vc
        if owner.membership.view.epoch > 0:
            # Piggyback the committed view on anti-entropy: a peer that
            # slept through the VIEW_COMMIT fan-out (partition, crash)
            # converges on membership the same way it converges on data.
            owner.membership.send_commit_to(peer)
        self.note_peer_frontier(peer, self._own_entry(peer_vc))
        # Push: the full Decides of our origin the peer has not applied,
        # bounded per round; the next round resumes from its new digest.
        streamed = reannounce(
            owner,
            self.node_id,
            owner.in_doubt.log.by_seq,
            {peer: self._own_entry(peer_vc)},
            owner.site_vc[self.node_id],
            limit=MAX_STREAM_PER_ROUND,
        )
        if streamed and self.tracer._enabled:
            self.tracer.emit(
                self.node_id, "stream", peer=peer, first=streamed[0],
                last=streamed[-1], count=len(streamed),
            )
        yield from owner.applier.pull(peer_vc, superseded)
        self.rounds += 1
        self.tracer.emit(
            self.node_id, "anti_entropy", peer=peer, streamed=len(streamed)
        )
        self.checkpoints.maybe_truncate()

    # ------------------------------------------------------------------
    # Recovery's shared SYNC fan-out
    # ------------------------------------------------------------------
    def collect_frontiers(
        self, restage: bool = False, *, site=None, floor=None, peers=None
    ):
        """Digest every peer at once: recovery's anti-entropy step.

        Generator subroutine returning ``(targets, peer_frontiers,
        listed)``: the element-wise max clock over all replies, each
        reachable peer's applied frontier of *our* origin and, with
        ``restage`` (crash recovery), ``txn_id -> status`` of what the
        peers committed here (``InDoubtResolver.on_restage``).  The
        request omits our own ``siteVC``: a half-rebuilt clock is not
        frontier evidence.  Normal RPC policy; a re-stage round is
        repeated for silent peers, paced like a lease expiry's status
        query, ``TERMINATION_ATTEMPTS`` times at most.  A promotion
        (S6) asks ``peers()`` -- the live nodes as of each round, itself
        included -- what they committed at the dead primary ``site``
        above ``floor``, its replicated frontier there; bounded like a
        digest.
        """
        owner = self.owner
        entries = owner.site_vc.entries
        targets = VectorClock.zeros(max(owner.shared.num_nodes, len(entries)))
        floor = entries if floor is None else floor
        peer_frontiers: Dict[int, int] = {}
        listed: Dict[int, object] = {}
        for attempt in range(TERMINATION_ATTEMPTS if restage else 1):
            asked = [
                peer for peer in (self.peers if peers is None else peers())
                if peer not in peer_frontiers
            ]
            if attempt:
                if not asked:
                    break
                yield self.sim.timeout(
                    owner.shared.config.prepared_lease or 1e-3
                )
            settles = [
                owner.node.rpc.spawn_call(
                    peer,
                    MessageType.SYNC,
                    SyncRequestBody(
                        self.node_id,
                        restage_above=(floor[peer] if peer < len(floor) else 0)
                        if restage else None,
                        site=site,
                    ),
                    config=None if site is None else self._rpc_config,
                )
                for peer in asked
            ]
            replies = yield AllOf(self.sim, settles)
            for peer, (ok, reply) in zip(asked, replies):
                if ok:
                    own = self._own_entry(reply.site_vc)
                    peer_frontiers[peer] = own
                    self.note_peer_frontier(peer, own)
                    targets.merge_seq(reply.site_vc)
                    for status in reply.decisions:
                        # Durable there, so everything up to it is decided:
                        # a catch-up target even before the peer's own
                        # clock (its loopback Decide) has got that far.
                        listed[status.txn_id] = status
                        targets[peer] = max(targets[peer], status.seq_no)
        return targets, peer_frontiers, listed

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        if not self.owner.fence.node_wide:
            self.checkpoints.maybe_checkpoint()
            self.checkpoints.maybe_truncate()

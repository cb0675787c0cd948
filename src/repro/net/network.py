"""The simulated network: latency, per-channel FIFO ordering, delivery."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.config import NetworkConfig
from repro.net.message import Envelope, MessageType
from repro.net.transport import Transport
from repro.sim import Simulator
from repro.sim.rng import make_rng

DeliverFn = Callable[[Envelope], None]
_BACKGROUND = MessageType.BACKGROUND

#: Delivery delay of a message a node sends to itself (loopback
#: dispatch, not the network fabric).
SELF_LATENCY = 1e-6

#: Drop-reason labels used in :attr:`NetworkStats.drops_by_reason`.
DROP_CRASH = "crash"
DROP_PARTITION = "partition"
DROP_LOSS = "loss"
DROP_UNKNOWN_DST = "unknown_dst"


@dataclass
class NetworkStats:
    """Counters the experiment harness reads after a run."""

    messages_sent: int = 0
    messages_by_type: Counter = field(default_factory=Counter)
    messages_dropped: int = 0
    #: ``messages_dropped`` broken out by cause: "crash" (either endpoint
    #: crash-stopped), "partition" (directed link cut), "loss" (random
    #: in-flight loss), "unknown_dst" (destination never registered).
    drops_by_reason: Counter = field(default_factory=Counter)
    #: Extra copies injected by random duplication.
    messages_duplicated: int = 0
    #: Replies that arrived for no pending request (late after a timeout
    #: retired the slot, duplicated, or racing a restart).
    stale_replies: int = 0
    #: RPC attempts that hit their per-request deadline.
    rpc_timeouts: int = 0
    #: Timed-out attempts that were retried (timeouts minus give-ups).
    rpc_retries: int = 0
    bytes_hint: int = 0
    #: Partition drops broken out by directed link ``(src, dst)``; the
    #: nemesis reads this to report what a partition window destroyed.
    partition_drops: Counter = field(default_factory=Counter)


class Network(Transport):
    """The simulator :class:`~repro.net.transport.Transport` backend:
    message channels between registered nodes, with injectable faults.

    The default configuration matches the paper's system model (Section
    2.1): "nodes communicate through message passing over reliable
    asynchronous channels" with no synchrony assumption.  Concretely:

    * every message is delivered after ``base_latency`` plus deterministic
      seeded jitter, plus any per-type injected delay (the congestion knob
      for the delayed-Propagate experiments);
    * messages between a fixed (src, dst) pair are delivered FIFO per
      *channel*; foreground protocol traffic and background asynchronous
      traffic (Propagate/Remove) use separate channels so an injected
      propagation delay does not stall the commit critical path;
    * messages a node sends to itself are delivered after ``SELF_LATENCY``
      (loopback dispatch, not the network fabric).

    On top of that baseline, the fault-injection surface deliberately
    breaks the reliable-channel assumption (see DESIGN.md "Failure model &
    recovery"):

    * :meth:`crash` / :meth:`restart` -- crash-stop a node; its in-flight
      and future traffic drops until restart;
    * :meth:`partition` / :meth:`heal` -- cut or restore one *directed*
      link, dropping traffic (including in-flight) from ``a`` to ``b``;
    * ``loss_rate`` / ``duplicate_rate`` -- seeded probabilistic loss and
      duplication of non-loopback messages.

    All randomness comes from RNG streams derived from the run seed, so a
    faulty run is exactly as reproducible as a fault-free one.
    """

    kind = "sim"

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NetworkConfig] = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        self.seed = seed
        self.stats = NetworkStats()
        #: Jitter is ``jitter * random()``: bit-equal to ``uniform(0.0,
        #: jitter)`` (``0.0 + (jitter - 0.0) * random()``), one call less.
        self._random = make_rng(seed, "network").random
        # Loss/duplication draws come from their own stream so enabling
        # them never perturbs the latency jitter of surviving messages.
        self._fault_rng = make_rng(seed, "network", "faults")
        #: Optional hook adding extra delay per envelope; scenario tests use
        #: it for asymmetric congestion (e.g. delaying Propagate on one
        #: link only, the Figure 1 long-fork setup).
        self.delay_policy: Optional[Callable[[Envelope], float]] = None
        self._nodes: Dict[int, DeliverFn] = {}
        # (src, dst, channel) -> time of the last scheduled delivery.
        self._fifo_horizon: Dict[Tuple[int, int, str], float] = defaultdict(float)
        self._next_msg_id = 0
        self._crashed: set = set()
        self._partitioned: Set[Tuple[int, int]] = set()
        #: True whenever any crash or partition is active (delivery fast path).
        self._faulty = False
        #: When set (e.g. by the nemesis during a down window), every
        #: dropped envelope is appended as ``(reason, envelope)`` so tests
        #: can account for exactly which messages a fault destroyed.
        self.drop_log: Optional[list] = None

    def register(self, node_id: int, deliver: DeliverFn) -> None:
        """Attach a node's delivery callback."""
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already registered")
        self._nodes[node_id] = deliver

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, msg_type: str, payload) -> Envelope:
        """Send a message; returns the (possibly dropped) envelope.

        A destination that was never registered degrades like the crash
        path -- the message counts as dropped -- so retries against a
        removed node degrade instead of crashing the sender.
        """
        sim = self.sim
        now = sim.now
        stats = self.stats
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        envelope = Envelope(msg_type, src, dst, payload, now, 0.0, msg_id)
        stats.messages_sent += 1
        stats.messages_by_type[msg_type] += 1

        if dst not in self._nodes:
            self._drop(DROP_UNKNOWN_DST, envelope)
            return envelope
        cfg = self.config
        if src == dst:
            delay = SELF_LATENCY
        else:
            if cfg.loss_rate > 0 and self._fault_rng.random() < cfg.loss_rate:
                self._drop(DROP_LOSS, envelope)
                return envelope
            delay = cfg.base_latency
            jitter = cfg.jitter
            if jitter > 0:
                delay += jitter * self._random()
        delays = cfg.message_delays
        if delays:
            delay += delays.get(msg_type, 0.0)
        if self.delay_policy is not None:
            delay += self.delay_policy(envelope)
        key = (src, dst, "bg" if msg_type in _BACKGROUND else "fg")
        deliver_at = now + delay
        horizons = self._fifo_horizon
        horizon = horizons[key]
        if horizon > deliver_at:
            deliver_at = horizon
        horizons[key] = deliver_at
        envelope.deliver_time = deliver_at

        # Deliveries are never cancelled; the no-handle form skips a Timer
        # allocation per message.
        sim._post_at(deliver_at, self._deliver, envelope)
        if (
            src != dst
            and cfg.duplicate_rate > 0
            and self._fault_rng.random() < cfg.duplicate_rate
        ):
            # The copy trails the original by a fresh latency-scale offset;
            # duplicates may reorder (they skip the FIFO horizon), which is
            # exactly the adversity handlers must tolerate.
            offset = self._fault_rng.uniform(0.0, cfg.base_latency)
            stats.messages_duplicated += 1
            sim.call_at(deliver_at + offset, self._deliver, envelope)
        return envelope

    def _deliver(self, envelope: Envelope) -> None:
        # _faulty is False in healthy runs, collapsing delivery to one
        # check plus the handler call; it is maintained by crash/partition.
        if self._faulty:
            if envelope.src in self._crashed or envelope.dst in self._crashed:
                self._drop(DROP_CRASH, envelope)
                return
            if (envelope.src, envelope.dst) in self._partitioned:
                self._drop(DROP_PARTITION, envelope)
                return
        self._nodes[envelope.dst](envelope)

    def _drop(self, reason: str, envelope: Envelope) -> None:
        self.stats.messages_dropped += 1
        self.stats.drops_by_reason[reason] += 1
        if reason == DROP_PARTITION:
            self.stats.partition_drops[(envelope.src, envelope.dst)] += 1
        if self.drop_log is not None:
            self.drop_log.append((reason, envelope))

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> None:
        """Crash-stop a node: all its in-flight and future traffic drops."""
        self._crashed.add(node_id)
        self._faulty = True

    def restart(self, node_id: int) -> None:
        """Reconnect a crashed node (its volatile state is its own concern)."""
        self._crashed.discard(node_id)
        self._faulty = bool(self._crashed or self._partitioned)

    def is_crashed(self, node_id: int) -> bool:
        """Whether the node is currently crash-stopped."""
        return node_id in self._crashed

    def partition(self, a: int, b: int) -> None:
        """Cut the directed link ``a -> b``: traffic drops until healed.

        Directed so tests can build asymmetric partitions; cut both
        directions for a symmetric split.  Messages already in flight on
        the link drop at delivery time, like the crash path.
        """
        self._partitioned.add((a, b))
        self._faulty = True

    def heal(self, a: int, b: int) -> None:
        """Restore the directed link ``a -> b``."""
        self._partitioned.discard((a, b))
        self._faulty = bool(self._crashed or self._partitioned)

    def heal_all(self) -> None:
        """Remove every partition (not crashes)."""
        self._partitioned.clear()
        self._faulty = bool(self._crashed)

    def is_partitioned(self, a: int, b: int) -> bool:
        """Whether the directed link ``a -> b`` is currently cut."""
        return (a, b) in self._partitioned

    def last_send_horizon(self, src: int, dst: int) -> float:
        """Newest scheduled delivery time of any ``src -> dst`` message.

        ``0.0`` if the pair never communicated.  The healing layer uses
        this to suppress heartbeats to peers the node is already talking
        to -- foreground traffic is itself liveness evidence.
        """
        horizon = self._fifo_horizon
        fg = horizon.get((src, dst, "fg"), 0.0)
        bg = horizon.get((src, dst, "bg"), 0.0)
        return fg if fg >= bg else bg

"""Configuration objects shared across the FW-KV reproduction.

The configuration mirrors the paper's testbed description (Section 5):
the network (CloudLab's 10 Gb/s fabric, ~20 microseconds per message)
and the cluster/run shape (nodes, closed-loop clients, lock timeout,
seed).  The per-operation CPU costs that stand in for real protocol code
on 28-core c6320 machines are constants, not configuration
(``repro.core.cost_model``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Mapping, Optional

#: Message-type label for Walter/FW-KV asynchronous propagation, used by
#: :class:`NetworkConfig.message_delays` to inject congestion.
PROPAGATE = "Propagate"


class ConfigSerde:
    """Plain-dict round-trip shared by every config dataclass.

    ``to_dict()`` produces a JSON-serialisable nested dict (every config
    field is a scalar, a string-keyed dict of scalars, or another config
    dataclass), and ``from_dict()`` rebuilds an equal instance, recursing
    into the nested configs named by ``_nested``.  The harness and CLI
    use this to persist experiment configurations without per-class
    ad-hoc serialisation code; the invariant is::

        cls.from_dict(cfg.to_dict()) == cfg

    for every config class, including through a ``json.dumps``/``loads``
    round trip.  Unknown keys raise ``ValueError`` (a misspelled knob in
    a config file must fail loudly, not silently fall back to defaults).
    """

    #: field name -> nested config class to recurse into on from_dict.
    _nested: ClassVar[Mapping[str, type]] = {}

    def to_dict(self) -> Dict[str, object]:
        """This config (and every nested config) as a plain nested dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]):
        """Rebuild an instance from :meth:`to_dict` output.

        Missing keys keep their dataclass defaults, so a hand-written
        partial dict is a valid overlay on the default configuration.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(
                f"{cls.__name__}.from_dict: unknown keys {unknown}"
            )
        kwargs = {}
        for key, value in data.items():
            nested = cls._nested.get(key)
            if nested is not None and isinstance(value, Mapping):
                value = nested.from_dict(value)
            kwargs[key] = value
        return cls(**kwargs)


@dataclass
class RpcConfig(ConfigSerde):
    """Timeout/retry policy for request/reply RPCs.

    The defaults (``request_timeout=None``) reproduce the paper's system
    model of reliable asynchronous channels: a request waits forever for
    its reply.  Setting a timeout departs from that model -- see DESIGN.md
    "Failure model & recovery" -- and arms the full retry machinery:
    seeded-deterministic exponential backoff with jitter (the ladder is
    ``repro.net.rpc.backoff``), capped attempts, and stale-reply dropping
    at the endpoint.
    """

    #: Per-attempt reply deadline; ``None`` waits forever (paper model).
    request_timeout: Optional[float] = None
    #: Total attempts (first try plus retries) before the caller gives up
    #: with :class:`~repro.net.rpc.RpcTimeoutError`.
    max_attempts: int = 3


@dataclass
class NetworkConfig(ConfigSerde):
    """Latency model for the simulated message fabric.

    ``base_latency`` matches the paper's testbed ("a 10Gb/s network, which
    delivers a message in about 20 microseconds").  ``message_delays`` maps a
    message type to extra one-way delay, the mechanism behind the paper's
    delayed-propagation experiments (Figures 7 and 9a add 1 ms to Propagate
    messages, "around 5x slowdown of network delay ... due to congestion").

    ``loss_rate``/``duplicate_rate`` inject probabilistic message loss and
    duplication (seeded, non-loopback traffic only); directed partitions are
    driven at runtime via :meth:`repro.net.network.Network.partition`.
    """

    base_latency: float = 20e-6
    jitter: float = 2e-6
    message_delays: Dict[str, float] = field(default_factory=dict)
    #: Probability a non-loopback message is silently dropped in flight.
    loss_rate: float = 0.0
    #: Probability a delivered non-loopback message arrives a second time.
    duplicate_rate: float = 0.0
    #: Request/reply timeout and retry policy for every node's endpoint.
    rpc: RpcConfig = field(default_factory=RpcConfig)

    _nested = {"rpc": RpcConfig}

    def __post_init__(self) -> None:
        # A negative delay schedules into the past; a rate above 1 drops
        # every message and hangs the run.
        delays = (self.base_latency, self.jitter, *self.message_delays.values())
        if min(delays) < 0:
            raise ValueError("latency, jitter and message delays must be >= 0")
        if not (0 <= self.loss_rate <= 1 and 0 <= self.duplicate_rate <= 1):
            raise ValueError("loss_rate and duplicate_rate must be in [0, 1]")

    def with_propagate_delay(self, delay: float) -> "NetworkConfig":
        """A copy of this config with ``delay`` added to Propagate messages."""
        delays = dict(self.message_delays)
        delays[PROPAGATE] = delay
        return dataclasses.replace(self, message_delays=delays)


@dataclass
class TransportConfig(ConfigSerde):
    """Which message fabric the cluster runs on (see docs/networking.md).

    ``kind="sim"`` (default) keeps the deterministic simulated network --
    the home for correctness work, bit-identical to the pre-seam
    behaviour.  ``kind="socket"`` runs the identical protocol code over
    real asyncio TCP sockets with the canonical byte serde on every
    message: virtual time is mapped onto the wall clock, latency comes
    from the real network stack, and runs are no longer deterministic.
    Every knob except ``kind`` concerns only the socket backend, whose
    dial and pump timings are constants beside the code that reads them
    (``repro.net.socket_transport``).
    """

    #: ``"sim"`` or ``"socket"``.
    kind: str = "sim"
    #: Bind address for the socket backend's listener.
    host: str = "127.0.0.1"
    #: Listener port; ``0`` (default) binds an ephemeral port, reported
    #: via ``SocketTransport.listen_address`` for the launcher handshake.
    base_port: int = 0
    #: Virtual seconds the socket pump advances per wall second.  ``1.0``
    #: maps virtual time 1:1 onto the wall clock; below 1 dilates every
    #: protocol timer (lock timeouts, leases) to give real-network
    #: latency more headroom per virtual second.
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("sim", "socket"):
            raise ValueError("transport kind must be 'sim' or 'socket'")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if not 0 <= self.base_port <= 65535:
            raise ValueError("base_port must be a valid TCP port (or 0)")


@dataclass
class BatchingConfig(ConfigSerde):
    """Inert: accepted only because the frozen ledger registry passes it."""

    #: Inert.  Every commit sends one Propagate per uninvolved site at
    #: commit time (Alg. 4 line 27), so nothing reads this former
    #: adaptive-window switch; delete it with ``ClusterConfig.batching``
    #: once ``benchmarks/ledger/registry.py`` drops the argument (ROADMAP,
    #: ledger v2 item (h)).
    adaptive: bool = False


@dataclass
class CheckpointConfig(ConfigSerde):
    """WAL checkpointing and truncation (see docs/self_healing.md).

    A checkpoint is a fingerprinted snapshot of the node's durable state
    (store chains, ``siteVC``, ``CurrSeqNo``, in-doubt prepares, decision
    log) appended to the WAL; recovery replays snapshot-then-suffix, so
    replay cost stops growing with history length.  Records below the
    newest checkpoint are truncated once the anti-entropy digests show the
    node's own commit frontier at checkpoint time applied at *every* peer
    -- the precise-GC condition under which no peer can ever again need a
    truncated decision or prepare.  A peer that is partitioned or never
    heard from holds truncation back until it has caught up; there is no
    lag bound.
    """

    #: Virtual-seconds period between checkpoint attempts by the healing
    #: daemon; ``None`` (default) disables automatic checkpointing
    #: (tests may still call ``CheckpointManager.checkpoint_now``).
    interval: Optional[float] = None


@dataclass
class HealingConfig(ConfigSerde):
    """Self-healing layer: failure detection, anti-entropy, checkpoints.

    Three pieces (see docs/self_healing.md):

    * the **failure detector** (always present) classifies peers
      alive/suspect/dead from message arrivals and RPC timeouts, caps the
      retry budget of calls to suspect/dead peers, and lets coordinators
      fail commits fast (``AbortReason.PEER_DEAD``) instead of burning
      the full timeout ladder on a participant that is known dead.  With
      the paper-model defaults
      (``rpc.request_timeout=None``, no heartbeats) the detector receives
      no evidence and is completely inert -- tier-1 behaviour is
      bit-identical;
    * the **anti-entropy gossip loop** (default off) periodically
      exchanges ``siteVC`` digests with a seeded-random peer and streams
      exactly the missing per-origin sequence numbers both ways, closing
      healed-partition gaps without a restart and without foreground
      traffic;
    * **checkpointing** (:class:`CheckpointConfig`, default off) bounds
      WAL replay cost.
    """

    #: Active heartbeat period; ``None`` (default) relies purely on
    #: passive evidence (foreground arrivals and RPC timeouts).  Periods
    #: are jittered per node, and a heartbeat to a peer with a message
    #: already in flight is skipped -- foreground traffic is itself
    #: liveness evidence.
    heartbeat_interval: Optional[float] = None
    #: Anti-entropy gossip period; ``None`` (default) disables the loop.
    anti_entropy_interval: Optional[float] = None
    #: Per-attempt reply deadline for gossip digest RPCs when the global
    #: ``rpc.request_timeout`` is ``None`` (the loop must never hang on a
    #: dead peer); ignored when a global timeout is configured.
    digest_timeout: float = 2e-3
    #: WAL checkpoint/truncation policy.
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)

    _nested = {"checkpoint": CheckpointConfig}


@dataclass
class ShardingConfig(ConfigSerde):
    """Keyspace sharding and online shard rebalancing (docs/sharding.md).

    Off by default: a cluster without ``enabled`` keeps the classic
    consistent-hash ring and pays nothing for this subsystem.  Enabled,
    the cluster's directory becomes a :class:`repro.cluster.directory.
    ShardMap` (key → shard → owner with epoch-versioned flips) and a
    :class:`repro.cluster.rebalancer.Rebalancer` can move hot shards
    between live nodes: fence, drain, stream the shard's chains over the
    snapshot protocol, flip the owner table entry, unfence.
    """

    #: Use a ShardMap directory (and construct a rebalancer) instead of
    #: the static consistent-hash ring; elastic membership needs it.
    enabled: bool = False
    #: Fixed shard count.  Many small shards per node is the point: the
    #: rebalancer moves load at shard granularity, so more shards means
    #: finer-grained (but chattier) rebalancing.
    num_shards: int = 64
    #: Period of the background rebalance loop (virtual seconds).
    #: ``None`` (default) never starts the loop; migrations then only
    #: happen when driven explicitly (``Rebalancer.migrate_shard``).
    rebalance_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")


@dataclass
class ReplicationConfig(ConfigSerde):
    """Per-shard primary-backup replication (docs/replication.md).

    Off by default: a cluster without ``enabled`` has exactly one copy
    of every shard and pays nothing for this subsystem.  Enabled (which
    requires ``ShardingConfig.enabled``), every shard's owner streams
    its prepare/apply records to ``replication_factor - 1``
    deterministically placed backups, and each commit decision it makes
    as coordinator to as many *decision homes* (plus the backups of the
    own shards that commit wrote); ``sync`` mode defers a commit's
    acknowledgement and Decides to its decision's acknowledgment, and a
    ``failover_timeout`` arms the cluster-level
    :class:`repro.replication.failover.FailoverDriver` that promotes the
    freshest backup of a dead primary behind the shard fence machinery.
    """

    #: Master switch; requires a ShardMap directory (sharding enabled).
    enabled: bool = False
    #: Total copies of each shard including the primary (>= 1); each
    #: shard gets ``replication_factor - 1`` backups.
    replication_factor: int = 2
    #: ``"sync"`` gates a commit's acknowledgement and Decides on backup
    #: acknowledgment of its ``decision`` record, which carries the
    #: writes (zero acked commits lost across a primary crash);
    #: ``"async"`` streams in the background and never waits.
    mode: str = "sync"
    #: Arm automatic failover: when the accrual failure detector at a
    #: majority of live peers classifies a node dead, its shards are
    #: promoted to their freshest backups.  ``None`` (default) never
    #: promotes -- streams still replicate, but ownership is static.
    failover_timeout: Optional[float] = None
    #: How long a sync-mode commit waits for its ``decision`` record's
    #: acknowledgment before degrading to async for that record (counted;
    #: the record stays queued and retransmits, only the *wait* is
    #: skipped) -- and how long a silent backup can hold a committed
    #: prepare's write locks past its apply (uncounted).
    sync_timeout: float = 2e-3

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.mode not in ("sync", "async"):
            raise ValueError("mode must be 'sync' or 'async'")
        if self.sync_timeout <= 0:
            raise ValueError("sync_timeout must be positive")
        if self.failover_timeout is not None and self.failover_timeout <= 0:
            raise ValueError("failover_timeout must be positive or None")


@dataclass
class DurabilityConfig(ConfigSerde):
    """Write-ahead logging (see DESIGN.md 5.5).

    The defaults keep it off: nodes stay volatile (a durable crash would
    lose them entirely).  In-doubt termination is not a knob here: a
    prepared-lock lease (``ClusterConfig.prepared_lease``) that expires
    always asks the coordinator before it presumes anything.
    """

    #: Per-node write-ahead log.  Every prepare vote, commit decision,
    #: version install, and clock advance is logged *before* it becomes
    #: externally visible, so a durable crash (``Nemesis`` kind
    #: ``crash_durable``) can wipe the node's store, ``siteVC``, and
    #: prepared table and rebuild them by replay at restart.
    wal_enabled: bool = False
    #: Virtual seconds one durable sync ("fsync") costs.  ``0.0`` (the
    #: default, and the historical behaviour) makes every append durable
    #: the instant it is written -- durability is free.  ``> 0`` switches
    #: the WAL into buffered mode: appends land in a volatile buffer and
    #: become durable only when a sync covering them completes (one
    #: sync at a time, each covering the whole tail at its start), commit
    #: acknowledgements wait for the group holding their Decision record,
    #: and a crash loses the unsynced suffix (exactly the unacked tail).
    fsync_latency: float = 0.0
    #: Inert.  The WAL's group commit is disk-paced (a sync starts when
    #: the disk is free; see ``repro.storage.group_commit``), so nothing
    #: reads this former timer delay.  It is still accepted because the
    #: frozen ``benchmarks/ledger/registry.py`` passes it; delete it once
    #: that argument is dropped (ROADMAP, ledger v2 item (e)).
    group_commit_window: float = 0.0

    def __post_init__(self) -> None:
        if self.fsync_latency < 0:
            raise ValueError("fsync_latency must be non-negative")
        if self.group_commit_window < 0:
            raise ValueError("group_commit_window must be non-negative")


@dataclass
class ClusterConfig(ConfigSerde):
    """Shape of one simulated deployment."""

    num_nodes: int
    clients_per_node: int = 5
    #: Lock acquisition timeout; the paper sets 1 ms on its testbed.
    lock_timeout: float = 1e-3
    seed: int = 0
    #: FW-KV only.  The paper sends Remove messages to the nodes a
    #: read-only transaction contacted (Alg. 4 lines 3-5), but commit-time
    #: VAS propagation (Alg. 5 line 19) can copy the identifier to nodes it
    #: never contacted, where it would then never be erased.  True (the
    #: default) broadcasts Remove to every node, keeping VAS memory
    #: bounded; False reproduces the paper's literal behaviour.
    remove_broadcast: bool = True
    #: FW-KV ablations (``ablation_*`` in harness/figures.py).  Disabling
    #: visible reads removes the VAS machinery entirely -- reads stay
    #: fresh on first contact but the PSI consistency guard is gone, so
    #: this mode is for cost measurement only.
    fwkv_visible_reads: bool = True
    #: Disabling fresh update reads pins FW-KV's update transactions to
    #: their begin snapshot like Walter, isolating the Figure 4/7 abort
    #: savings from the read-only freshness machinery.
    fwkv_fresh_update_reads: bool = True
    #: Disabling Removes entirely lets VAS entries accumulate without
    #: bound (the leak the paper's Figure 6 numbers grow with).
    removes_enabled: bool = True
    #: Version-chain garbage collection (MVCC protocols).  When a chain
    #: outgrows ``gc_trigger_length``, versions beyond the newest
    #: ``gc_keep_versions`` that are older than ``gc_min_age`` and carry no
    #: VAS registrations are reclaimed.  ``gc_min_age`` must comfortably
    #: exceed the longest transaction lifetime (standard MVCC vacuuming
    #: assumption) so no in-flight snapshot can still need a reclaimed
    #: version.
    gc_enabled: bool = True
    gc_keep_versions: int = 16
    gc_trigger_length: int = 32
    gc_min_age: float = 0.05
    #: Lease on prepared write locks.  A participant that
    #: voted yes normally holds its locks until the coordinator's Decide
    #: arrives; if the coordinator crashes first, those locks would be held
    #: forever.  With a lease, a participant that hears nothing for this
    #: long asks the coordinator how the transaction ended and applies
    #: the answer; only a coordinator that stays unreachable for
    #: ``repro.core.repair.TERMINATION_ATTEMPTS`` bounded rounds is
    #: presumed to have aborted and the locks released.  Should exceed
    #: the usual prepare-to-decide latency so a live coordinator is not
    #: asked needlessly (the 2PC baseline's lease follows the same rule).
    #: ``None`` (default) disables the lease: the paper's reliable channels.
    prepared_lease: Optional[float] = None
    #: Inert, like ``BatchingConfig.adaptive``: accepted only because the
    #: frozen ``benchmarks/ledger/registry.py`` passes it.
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    #: Write-ahead logging and durable crash recovery; off by default
    #: (volatile nodes).
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    #: Self-healing layer (failure detector, anti-entropy, checkpoints).
    #: The detector is inert without timeout/heartbeat evidence; the
    #: periodic loops default off.
    healing: HealingConfig = field(default_factory=HealingConfig)
    #: Keyspace sharding + rebalancing; disabled by default, leaving the
    #: consistent-hash ring (and its exact placement) untouched.
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
    #: Per-shard primary-backup replication; disabled by default (one
    #: copy of every shard, exactly the historical behaviour).
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    #: Which fabric carries the messages: the deterministic simulator
    #: (default) or real asyncio TCP sockets.  Selected once at cluster
    #: construction (``repro.net.transport.build_transport``); nothing
    #: downstream branches on it.
    transport: TransportConfig = field(default_factory=TransportConfig)

    _nested = {
        "batching": BatchingConfig,
        "durability": DurabilityConfig,
        "healing": HealingConfig,
        "sharding": ShardingConfig,
        "replication": ReplicationConfig,
        "network": NetworkConfig,
        "transport": TransportConfig,
    }

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.clients_per_node < 0:
            raise ValueError("clients_per_node must be non-negative")

    @property
    def node_ids(self) -> range:
        """The node identifiers of this deployment (0..num_nodes-1)."""
        return range(self.num_nodes)


@dataclass
class RunConfig(ConfigSerde):
    """How long to drive a workload and what to measure.

    ``warmup`` transactions-per-client are executed before measurement
    starts so steady state is reached; ``duration`` is virtual seconds of
    measured run.
    """

    duration: float = 1.0
    warmup: float = 0.1

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")

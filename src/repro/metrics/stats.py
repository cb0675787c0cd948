"""Run statistics collected while a cluster executes a workload."""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, List, Optional


class AbortReason:
    """Why an update transaction's commit attempt failed."""

    LOCK_TIMEOUT = "lock_timeout"
    VALIDATION = "validation"
    VOTE_NO = "vote_no"
    #: The coordinator's prepare/commit RPC exhausted its retries and the
    #: transaction was presumed-aborted (crash, partition, or loss).
    RPC_TIMEOUT = "rpc_timeout"
    #: The failure detector classified a participant dead and the
    #: coordinator failed the commit fast instead of paying the timeout
    #: ladder.
    PEER_DEAD = "peer_dead"
    #: The node crashed durably while the transaction was waiting for its
    #: Decision record's group-commit sync: the record was dropped with
    #: the unsynced WAL suffix, so the commit is never acknowledged.
    NODE_CRASHED = "node_crashed"


class RunningStat:
    """Streaming mean/min/max/count without storing every sample."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the statistic."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of all samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Summary fields for reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class ReservoirSample:
    """Fixed-size uniform sample (Vitter's algorithm R) for percentiles.

    Keeps an unbiased sample of a stream without storing it all; the
    replacement choices come from a dedicated seeded RNG, so sampling does
    not perturb (and is not perturbed by) workload randomness.
    """

    __slots__ = ("capacity", "_samples", "_seen", "_rng")

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._samples: List[float] = []
        self._seen = 0
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        """Offer one sample to the reservoir."""
        self._seen += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self._samples[slot] = value

    @property
    def seen(self) -> int:
        """Total samples offered (not just retained)."""
        return self._seen

    def percentile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1) of the sampled values; 0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def as_dict(self) -> Dict[str, float]:
        """p50/p95/p99 summary for reports."""
        return {
            "seen": self._seen,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRecorder:
    """Counters and samplers shared by every node and client in a cluster.

    Recording is gated by a measurement window so warmup transactions do
    not pollute results: the harness calls :meth:`open_window` once steady
    state is reached, with the simulator clock deciding membership.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.window_start: float = 0.0
        self.window_end: float = math.inf

        self.commits = 0
        self.aborts = 0
        self.rollbacks = 0
        self.commits_by_profile: Counter = Counter()
        self.aborts_by_reason: Counter = Counter()
        #: Aborted attempts per written key: names the keys a contention
        #: collapse is made of (``summary()["abort_hot_keys"]``).
        self.aborts_by_key: Counter = Counter()
        self.commit_latency = RunningStat()
        self.read_only_latency = RunningStat()
        self.update_latency = RunningStat()
        self.attempts_per_commit = RunningStat()
        self.ro_latency_sample = ReservoirSample(seed=1)
        self.update_latency_sample = ReservoirSample(seed=2)

        #: Figure 6 metric: identifiers collected by one update transaction
        #: during its prepare phase (summed over participants).
        self.antidep_collected = RunningStat()
        #: VAS entries inspected while serving one read (latency proxy).
        self.vas_inspected = RunningStat()

        #: Freshness accounting for read-only transactions: ``gap`` is
        #: latest_vid - returned_vid at the instant the read was served.
        self.ro_read_gap = RunningStat()
        self.ro_reads = 0
        self.ro_stale_reads = 0
        self.first_contact_reads = 0
        self.first_contact_fresh = 0

        #: Reads that had to wait for the serving node's clock to catch up
        #: with the requester's snapshot (see MVCCNode.on_read_request).
        self.read_stalls = 0
        self.read_stall_time = RunningStat()

        #: Old versions reclaimed by the MVCC garbage collector.
        self.versions_reclaimed = 0

        #: Presumed-abort accounting (not window-gated: a wedged lock or a
        #: leaked prepared transaction matters whenever it happens).
        #: Coordinator-side aborts caused by exhausted RPC retries.
        self.aborted_timeout = 0
        #: Participant-side prepared-lock leases that expired because the
        #: coordinator went silent past the configured lease.
        self.lease_expirations = 0

        #: Durable-crash recovery accounting (run-wide, never window-gated).
        #: Completed node recoveries and total WAL records replayed.
        self.recoveries = 0
        self.wal_records_replayed = 0
        #: In-doubt prepares restored across all recoveries.
        self.indoubt_recovered = 0
        #: In-doubt terminations (lease- or recovery-driven) by outcome.
        self.indoubt_committed = 0
        self.indoubt_aborted = 0
        #: siteVC slots advanced by anti-entropy catch-up (lost Propagates).
        self.catchup_advances = 0

        #: Self-healing accounting (run-wide, never window-gated).
        #: Active liveness beacons sent / skipped because foreground
        #: traffic to the peer already proved the sender alive.
        self.heartbeats_sent = 0
        self.heartbeats_suppressed = 0
        #: Failure-detector transitions: alive -> suspect/dead raises a
        #: suspicion; any arrival from a suspected peer clears it.
        self.suspicions_raised = 0
        self.suspicions_cleared = 0
        #: Completed background anti-entropy digest exchanges.
        self.anti_entropy_rounds = 0
        #: Full Decide records streamed to lagging peers by anti-entropy.
        self.records_streamed = 0
        #: WAL checkpoints taken and records truncated below them.
        self.checkpoints_taken = 0
        self.wal_records_truncated = 0
        #: Completed WAL syncs and the records each batch made durable
        #: (group commit: records_synced / syncs is the achieved batch
        #: size; 1.0 means per-record durability).
        self.wal_syncs = 0
        self.wal_records_synced = 0
        #: Checkpoint snapshot transfer (healing): offers made by this
        #: node as sender, offers/chunks refused or transfers that died
        #: mid-flight, chunks and store chains actually moved, completed
        #: installs on each side, and receiver-side watchdog abandons.
        self.snapshot_offers = 0
        self.snapshot_rejected = 0
        self.snapshot_chunks = 0
        self.snapshot_chains = 0
        self.snapshots_shipped = 0
        self.snapshot_installs = 0
        self.snapshot_abandoned = 0

        #: Elastic membership (run-wide, never window-gated): committed
        #: view epochs applied at this cluster's coordinator, joiners that
        #: finished their bootstrap snapshot, decommissions whose drain
        #: handed every owned key off, and messages whose carried clock
        #: width predates the receiver's view (zero-default algebra
        #: absorbed them; counted for observability).
        self.views_committed = 0
        self.joins_bootstrapped = 0
        self.drains_completed = 0
        self.stale_width_messages = 0

        #: Keyspace sharding (run-wide, never window-gated): per-shard
        #: access counts (the rebalancer's load signal; reads and
        #: prepared writes both count one access per key), completed and
        #: failed live shard migrations, store chains moved by completed
        #: migrations, and planner rounds attempted.
        self.shard_loads: Counter = Counter()
        self.shard_migrations = 0
        self.shard_migration_keys = 0
        self.shard_migrations_failed = 0
        self.rebalance_rounds = 0

        #: Per-shard primary-backup replication (run-wide): stream
        #: records acknowledged by backups, the worst observed stream
        #: lag (records streamed but unacknowledged), sync waits that
        #: degraded to async at ``sync_timeout``, frozen reads served by
        #: backups vs forwarded to the primary, shards promoted by
        #: completed failovers, and backup (re-)bootstraps shipped.
        self.replication_records_streamed = 0
        self.replication_lag_max = 0
        self.replication_sync_degraded = 0
        self.backup_reads_served = 0
        self.backup_reads_forwarded = 0
        self.failovers_completed = 0
        self.backup_bootstraps = 0

    # ------------------------------------------------------------------
    # Window control
    # ------------------------------------------------------------------
    def open_window(self, start: float, end: float = math.inf) -> None:
        """Set the measurement window [start, end) in virtual time."""
        self.window_start = start
        self.window_end = end

    def in_window(self) -> bool:
        """Whether the current virtual time is inside the window."""
        return self.window_start <= self.sim.now <= self.window_end

    @property
    def window_duration(self) -> float:
        """Elapsed measured time so far."""
        end = min(self.window_end, self.sim.now)
        return max(end - self.window_start, 0.0)

    # ------------------------------------------------------------------
    # Transaction outcomes
    # ------------------------------------------------------------------
    def on_commit(self, txn, latency: float, attempts: int) -> None:
        """Record a committed transaction with its latency and attempts."""
        if not self.in_window():
            return
        self.commits += 1
        if txn.profile:
            self.commits_by_profile[txn.profile] += 1
        self.commit_latency.add(latency)
        if txn.is_read_only:
            self.read_only_latency.add(latency)
            self.ro_latency_sample.add(latency)
        else:
            self.update_latency.add(latency)
            self.update_latency_sample.add(latency)
        self.attempts_per_commit.add(attempts)

    def on_abort(self, txn, reason: str) -> None:
        """Record one aborted commit attempt with its reason."""
        if reason == AbortReason.RPC_TIMEOUT:
            self.aborted_timeout += 1
        if not self.in_window():
            return
        self.aborts += 1
        self.aborts_by_reason[reason] += 1
        for key in txn.writeset:
            self.aborts_by_key[key] += 1

    def on_rollback(self, txn) -> None:
        """Client-initiated rollback: business logic, not a conflict."""
        if self.in_window():
            self.rollbacks += 1

    @property
    def abort_rate(self) -> float:
        """Aborted attempts over all attempts, as the paper reports it."""
        attempts = self.commits + self.aborts
        return self.aborts / attempts if attempts else 0.0

    def throughput(self) -> float:
        """Committed transactions per measured virtual second."""
        duration = self.window_duration
        return self.commits / duration if duration > 0 else 0.0

    # ------------------------------------------------------------------
    # Protocol-level samples
    # ------------------------------------------------------------------
    def on_antidep_collected(self, size: int) -> None:
        """Sample one update transaction's collected VAS size (Figure 6)."""
        if self.in_window():
            self.antidep_collected.add(size)

    def on_vas_inspected(self, size: int) -> None:
        """Sample VAS entries inspected while serving one read."""
        if self.in_window():
            self.vas_inspected.add(size)

    def on_ro_read(self, gap: int, first_contact: bool) -> None:
        """Record one read-only read with its freshness gap."""
        if not self.in_window():
            return
        self.ro_reads += 1
        self.ro_read_gap.add(gap)
        if gap > 0:
            self.ro_stale_reads += 1
        if first_contact:
            self.first_contact_reads += 1
            if gap == 0:
                self.first_contact_fresh += 1

    def on_read_stall(self, duration: float) -> None:
        if self.in_window():
            self.read_stalls += 1
            self.read_stall_time.add(duration)

    def on_versions_reclaimed(self, count: int) -> None:
        # GC accounting is not window-gated: occupancy matters run-wide.
        self.versions_reclaimed += count

    def on_lease_expired(self) -> None:
        """A participant's prepared-lock lease fired (presumed abort)."""
        self.lease_expirations += 1

    def on_indoubt_resolved(self, committed: bool) -> None:
        """An in-doubt prepare was terminated via a coordinator query."""
        if committed:
            self.indoubt_committed += 1
        else:
            self.indoubt_aborted += 1

    def on_recovery(self, replayed: int, in_doubt: int) -> None:
        """One node finished rebuilding from its WAL."""
        self.recoveries += 1
        self.wal_records_replayed += replayed
        self.indoubt_recovered += in_doubt

    def on_catchup(self, advanced: int) -> None:
        """Anti-entropy advanced a recovering node's clock past lost
        Propagates."""
        self.catchup_advances += advanced

    def on_heartbeat(self, sent: bool) -> None:
        """One heartbeat tick: sent, or suppressed by recent traffic."""
        if sent:
            self.heartbeats_sent += 1
        else:
            self.heartbeats_suppressed += 1

    def on_suspicion(self, raised: bool) -> None:
        """A failure-detector state transition (raised or cleared)."""
        if raised:
            self.suspicions_raised += 1
        else:
            self.suspicions_cleared += 1

    def on_anti_entropy_round(self, streamed: int) -> None:
        """One completed gossip exchange that streamed ``streamed``
        Decide records to the lagging side."""
        self.anti_entropy_rounds += 1
        self.records_streamed += streamed

    def on_checkpoint(self) -> None:
        """One WAL checkpoint snapshot was appended."""
        self.checkpoints_taken += 1

    def on_truncate(self, dropped: int) -> None:
        """WAL records below a stable checkpoint were truncated."""
        self.wal_records_truncated += dropped

    def on_wal_sync(self, records: int) -> None:
        """One WAL sync completed, making ``records`` records durable."""
        self.wal_syncs += 1
        self.wal_records_synced += records

    def on_snapshot_offer(self) -> None:
        """This node offered its checkpoint to a truncation-gapped peer."""
        self.snapshot_offers += 1

    def on_snapshot_rejected(self) -> None:
        """An offer or chunk was refused (or its reply lost) mid-transfer."""
        self.snapshot_rejected += 1

    def on_snapshot_chunk(self, chains: int) -> None:
        """One accepted chunk carried ``chains`` store chains."""
        self.snapshot_chunks += 1
        self.snapshot_chains += chains

    def on_snapshot_shipped(self) -> None:
        """The receiver confirmed a verified install (sender side)."""
        self.snapshots_shipped += 1

    def on_snapshot_install(self, chains: int) -> None:
        """This node verified and adopted a peer's checkpoint."""
        self.snapshot_installs += 1

    def on_snapshot_abandoned(self) -> None:
        """An inbound transfer was dropped (stalled, stale, or corrupt)."""
        self.snapshot_abandoned += 1

    def on_view_committed(self) -> None:
        """A membership view change committed cluster-wide."""
        self.views_committed += 1

    def on_join_bootstrapped(self) -> None:
        """A joiner verified and installed its bootstrap snapshot."""
        self.joins_bootstrapped += 1

    def on_drain_completed(self) -> None:
        """A decommissioning node finished handing off its owned keys."""
        self.drains_completed += 1

    def on_stale_width(self) -> None:
        """A message carried a clock narrower than the receiver's view."""
        self.stale_width_messages += 1

    def on_shard_access(self, shard: int, count: int = 1) -> None:
        """One read or prepared write landed on ``shard``."""
        self.shard_loads[shard] += count

    def on_shard_migrated(self, keys: int) -> None:
        """A live shard migration flipped ownership (``keys`` chains moved)."""
        self.shard_migrations += 1
        self.shard_migration_keys += keys

    def on_shard_migration_failed(self) -> None:
        """A migration aborted before the flip (crash, partition, drain)."""
        self.shard_migrations_failed += 1

    def on_rebalance_round(self) -> None:
        self.rebalance_rounds += 1

    def on_replication_records(self, count: int) -> None:
        """A backup acknowledged ``count`` stream records."""
        self.replication_records_streamed += count

    def on_replication_lag(self, lag: int) -> None:
        """Track the worst unacknowledged stream suffix seen."""
        if lag > self.replication_lag_max:
            self.replication_lag_max = lag

    def on_replication_sync_degraded(self) -> None:
        """A sync-mode wait hit ``sync_timeout`` and proceeded async."""
        self.replication_sync_degraded += 1

    def on_backup_read_served(self) -> None:
        """A backup answered a frozen read from its replicated state."""
        self.backup_reads_served += 1

    def on_backup_read_forwarded(self) -> None:
        """A backup forwarded a frozen read to the current primary."""
        self.backup_reads_forwarded += 1

    def on_failover_completed(self, shards: int) -> None:
        """A failover promoted backups over ``shards`` shards."""
        self.failovers_completed += shards

    def on_backup_bootstrapped(self) -> None:
        """A primary (re-)shipped its chains to one backup."""
        self.backup_bootstraps += 1

    def decay_shard_loads(self, factor: float) -> None:
        """Age the load signal so it tracks current traffic, not history."""
        for shard in list(self.shard_loads):
            aged = int(self.shard_loads[shard] * factor)
            if aged:
                self.shard_loads[shard] = aged
            else:
                del self.shard_loads[shard]

    @property
    def stale_read_fraction(self) -> float:
        return self.ro_stale_reads / self.ro_reads if self.ro_reads else 0.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "commits": self.commits,
            "aborts": self.aborts,
            "rollbacks": self.rollbacks,
            "abort_rate": self.abort_rate,
            "throughput": self.throughput(),
            "aborts_by_reason": dict(self.aborts_by_reason),
            "abort_hot_keys": self.aborts_by_key.most_common(5),
            "attempts_per_commit": self.attempts_per_commit.as_dict(),
            "commits_by_profile": dict(self.commits_by_profile),
            "latency": self.commit_latency.as_dict(),
            "ro_latency": self.read_only_latency.as_dict(),
            "update_latency": self.update_latency.as_dict(),
            "ro_latency_percentiles": self.ro_latency_sample.as_dict(),
            "update_latency_percentiles": self.update_latency_sample.as_dict(),
            "antidep_collected": self.antidep_collected.as_dict(),
            "vas_inspected": self.vas_inspected.as_dict(),
            "ro_read_gap": self.ro_read_gap.as_dict(),
            "stale_read_fraction": self.stale_read_fraction,
            "first_contact_reads": self.first_contact_reads,
            "first_contact_fresh": self.first_contact_fresh,
            "read_stalls": self.read_stalls,
            "read_stall_time": self.read_stall_time.as_dict(),
            "versions_reclaimed": self.versions_reclaimed,
            "aborted_timeout": self.aborted_timeout,
            "lease_expirations": self.lease_expirations,
            "recoveries": self.recoveries,
            "wal_records_replayed": self.wal_records_replayed,
            "indoubt_recovered": self.indoubt_recovered,
            "indoubt_committed": self.indoubt_committed,
            "indoubt_aborted": self.indoubt_aborted,
            "catchup_advances": self.catchup_advances,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_suppressed": self.heartbeats_suppressed,
            "suspicions_raised": self.suspicions_raised,
            "suspicions_cleared": self.suspicions_cleared,
            "anti_entropy_rounds": self.anti_entropy_rounds,
            "records_streamed": self.records_streamed,
            "checkpoints_taken": self.checkpoints_taken,
            "wal_records_truncated": self.wal_records_truncated,
            "wal_syncs": self.wal_syncs,
            "wal_records_synced": self.wal_records_synced,
            "snapshot_offers": self.snapshot_offers,
            "snapshot_rejected": self.snapshot_rejected,
            "snapshot_chunks": self.snapshot_chunks,
            "snapshot_chains": self.snapshot_chains,
            "snapshots_shipped": self.snapshots_shipped,
            "snapshot_installs": self.snapshot_installs,
            "snapshot_abandoned": self.snapshot_abandoned,
            "views_committed": self.views_committed,
            "joins_bootstrapped": self.joins_bootstrapped,
            "drains_completed": self.drains_completed,
            "stale_width_messages": self.stale_width_messages,
            "shard_migrations": self.shard_migrations,
            "shard_migration_keys": self.shard_migration_keys,
            "shard_migrations_failed": self.shard_migrations_failed,
            "rebalance_rounds": self.rebalance_rounds,
            "replication_records_streamed": self.replication_records_streamed,
            "replication_lag_max": self.replication_lag_max,
            "replication_sync_degraded": self.replication_sync_degraded,
            "backup_reads_served": self.backup_reads_served,
            "backup_reads_forwarded": self.backup_reads_forwarded,
            "failovers_completed": self.failovers_completed,
            "backup_bootstraps": self.backup_bootstraps,
        }

"""Run statistics collected while a cluster executes a workload."""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, List

from repro.metrics.events import COUNTERS


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
    #: FW-KV: a written key's place in line was someone else's when this
    #: attempt read it; it sent no prepare and retries in line itself.
    SPOKEN_FOR = "spoken_for"
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

        #: Run-wide counters, one slot per counter the event table
        #: (:mod:`repro.metrics.events`) declares.  Never window-gated: a
        #: wedged lock, a leaked prepared transaction or GC occupancy
        #: matters whenever it happens.
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)

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
            self.count("aborted_timeout")
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

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the run-wide counter ``name`` (never window-gated),
        a counted row of the event table; ``Tracer.emit`` adds a traced
        row's.  An undeclared name is a ``KeyError``, not a new counter.
        """
        self.counters[name] += n

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
            **self.counters,
        }

"""The nemesis: a simulated process that injects faults on schedule.

Named after Jepsen's fault-injecting actor, the nemesis runs *inside* the
simulation as an ordinary process, so fault timing composes with virtual
time exactly like client and protocol activity -- same seed, same faults,
same interleaving, every run.

Usage::

    cluster = Cluster("fwkv", config)
    nemesis = Nemesis(cluster)
    nemesis.start(crash_cycle(node=1, at=2e-3, down_for=4e-3))
    ...spawn clients...
    cluster.run(until=stop_time)

Two crash flavours:

* :data:`~repro.faults.schedules.CRASH` is network-level (see
  ``Network.crash``): in-flight and future traffic drops, volatile state
  survives, and the matching RESTART simply reconnects.
* :data:`~repro.faults.schedules.CRASH_DURABLE` additionally freezes the
  node's write-ahead log at the crash instant; the matching RESTART wipes
  the node's volatile state (store, ``siteVC``, prepared table) and
  spawns WAL replay + recovery (``durability.wal_enabled`` required).

Every durable down window is accounted in a :class:`DownWindow`: which
messages the fault destroyed, by drop reason and -- for Propagate traffic
-- by exact ``(origin, seq_no)``, so tests can assert precisely which
clock advances anti-entropy must repair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.faults.schedules import (
    CRASH,
    CRASH_DURABLE,
    HEAL,
    PARTITION,
    RESTART,
    FaultEvent,
    ordered,
)
from repro.net.message import MessageType


@dataclass
class DownWindow:
    """Accounting for one durable crash's down window at one node."""

    node: int
    started_at: float
    ended_at: Optional[float] = None
    #: Drop-reason -> count for messages to/from the node while down.
    drops_by_reason: Counter = field(default_factory=Counter)
    #: origin -> sorted sequence numbers of Propagates the node missed.
    lost_propagates: Dict[int, List[int]] = field(default_factory=dict)
    #: The recovery process spawned at restart (join it to await rebuild).
    recovery: Optional[object] = None
    #: Shards promoted away (cluster-wide ``failovers_completed`` delta)
    #: while this window was open -- the failover work the crash caused.
    promotions: int = 0
    #: Index into the nemesis drop log where this window opened.
    _log_start: int = 0

    @property
    def closed(self) -> bool:
        return self.ended_at is not None


class Nemesis:
    """Applies a :class:`FaultEvent` schedule to a cluster's network."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.network = cluster.network
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        #: Events already applied, in application order (for assertions).
        self.applied: List[FaultEvent] = []
        #: RESTART events applied (both crash flavours).
        self.restart_count = 0
        #: One record per durable crash, in crash order.
        self.down_windows: List[DownWindow] = []
        #: node -> its currently-open durable window.
        self._durable_down: Dict[int, DownWindow] = {}
        #: directed link -> (cut time, partition-drop counter at the cut),
        #: for the per-window accounting the heal event reports.
        self._partition_windows: Dict[Tuple[int, int], Tuple[float, int]] = {}
        #: One ``(a, b, duration, dropped, dropped_reverse)`` record per
        #: heal, in heal order -- what each partition window destroyed.
        #: ``dropped_reverse`` is None while the reverse direction is
        #: still cut (an asymmetric heal cannot account it yet).
        self.heal_reports: List[Tuple] = []
        #: Envelope drop feed, attached to the network while at least one
        #: durable window is open.
        self._drop_log: List[Tuple[str, object]] = []
        #: One ``(node, promotions, restarted_at)`` record per restart of
        #: a crashed node, in restart order: how many shard promotions
        #: (``failovers_completed`` delta) the down window triggered.
        self.promotion_reports: List[Tuple[int, int, float]] = []
        #: node -> ``failovers_completed`` at its (first) crash instant.
        self._failover_base: Dict[int, int] = {}

    def start(self, events: Iterable[FaultEvent]):
        """Spawn the nemesis process driving ``events``; returns it."""
        return self.cluster.spawn(self._run(ordered(events)), name="nemesis")

    def _run(self, events: List[FaultEvent]):
        for event in events:
            if event.at > self.sim.now:
                yield self.sim.timeout(event.at - self.sim.now)
            self.apply(event)

    def apply(self, event: FaultEvent) -> None:
        """Apply one fault transition immediately (also usable directly)."""
        self.applied.append(event)
        a, b = event.a, event.b
        if event.kind == CRASH:
            self._note_crash(a)
            self.network.crash(a)
            self.tracer.emit(a, "nemesis_crash", peer=b)
        elif event.kind == CRASH_DURABLE:
            self._note_crash(a)
            self._crash_durable(a)
            self.tracer.emit(a, "nemesis_crash_durable", peer=b)
        elif event.kind == RESTART:
            self._restart(a)
            self.tracer.emit(a, "nemesis_restart", peer=b)
        elif event.kind == PARTITION:
            self._partition(a, b)
            self.tracer.emit(a, "nemesis_partition", peer=b)
        elif event.kind == HEAL:
            self._heal(a, b)  # emits the enriched nemesis_heal event
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {event.kind!r}")

    # ------------------------------------------------------------------
    # Partition-window accounting
    # ------------------------------------------------------------------
    def _partition(self, a: int, b: int) -> None:
        self.network.partition(a, b)
        if (a, b) not in self._partition_windows:
            self._partition_windows[(a, b)] = (
                self.sim.now,
                self.network.stats.partition_drops[(a, b)],
            )

    def _heal(self, a: int, b: int) -> None:
        """Heal ``a -> b`` and report what the window destroyed.

        The trace event carries the window's duration and the messages
        the cut dropped in each direction, so a healed run's trace shows
        exactly how much state anti-entropy has to repair.  The reverse
        count reads the reverse window's running total without closing it
        -- in the common symmetric heal both directions stop dropping at
        the same instant, so the total is already final; with the reverse
        still cut it is an honest "destroyed so far".  ``0`` means the
        reverse direction was never cut.
        """
        self.network.heal(a, b)
        drops = self.network.stats.partition_drops
        window = self._partition_windows.pop((a, b), None)
        started, base = (
            window if window is not None else (self.sim.now, drops[(a, b)])
        )
        duration = self.sim.now - started
        dropped = drops[(a, b)] - base
        reverse = self._partition_windows.get((b, a))
        dropped_reverse = (
            drops[(b, a)] - reverse[1] if reverse is not None else 0
        )
        self.heal_reports.append((a, b, duration, dropped, dropped_reverse))
        self.tracer.emit(
            a, "nemesis_heal", peer=b, duration=duration,
            dropped=dropped, dropped_reverse=dropped_reverse,
        )

    # ------------------------------------------------------------------
    # Durable crash machinery
    # ------------------------------------------------------------------
    def _crash_durable(self, node_id: int) -> None:
        self.network.crash(node_id)
        self.cluster.nodes[node_id].recovery.crash_durably()
        if node_id not in self._durable_down:
            if self.network.drop_log is None:
                self.network.drop_log = self._drop_log
            window = DownWindow(
                node=node_id,
                started_at=self.sim.now,
                _log_start=len(self._drop_log),
            )
            self._durable_down[node_id] = window
            self.down_windows.append(window)

    def _note_crash(self, node_id: int) -> None:
        """Snapshot the cluster's promotion counter at the crash instant.

        The matching restart diffs against it: with failover armed, a
        crashed primary's shards promote to their freshest backups while
        it is down, and the delta is the promotion work this fault
        caused (heal accounting for failover, mirroring the partition
        windows' drop accounting).
        """
        self._failover_base.setdefault(
            node_id, self.cluster.metrics.counters["failovers_completed"]
        )

    def _restart(self, node_id: int) -> None:
        self.network.restart(node_id)
        self.restart_count += 1
        base = self._failover_base.pop(node_id, None)
        promotions = (
            self.cluster.metrics.counters["failovers_completed"] - base
            if base is not None
            else 0
        )
        if base is not None:
            self.promotion_reports.append(
                (node_id, promotions, self.sim.now)
            )
            self.tracer.emit(
                node_id, "nemesis_promotions", shards=promotions
            )
        window = self._durable_down.pop(node_id, None)
        if window is None:
            return  # plain (volatile-state-intact) restart
        window.promotions = promotions
        window.ended_at = self.sim.now
        self._account_window(window)
        if not self._durable_down and self.network.drop_log is self._drop_log:
            self.network.drop_log = None
        window.recovery = self.cluster.nodes[node_id].recovery.begin_recovery()

    def _account_window(self, window: DownWindow) -> None:
        """Summarise what the fault destroyed while ``window`` was open."""
        node_id = window.node
        for reason, envelope in self._drop_log[window._log_start:]:
            if envelope.src != node_id and envelope.dst != node_id:
                continue
            window.drops_by_reason[reason] += 1
            if (
                envelope.dst == node_id
                and envelope.msg_type == MessageType.PROPAGATE
            ):
                body = envelope.payload
                window.lost_propagates.setdefault(body.origin, []).append(
                    body.seq_no
                )
        for seq_nos in window.lost_propagates.values():
            seq_nos.sort()

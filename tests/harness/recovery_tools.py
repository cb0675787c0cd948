"""Crash-point tooling for the deterministic recovery test suite.

The simulator's tracer fires listeners synchronously at the emitting
node's exact protocol point, so a test can inject a fault *between* two
protocol steps -- e.g. after a coordinator's Decide/Propagate fan-out
but before the victim applies its Propagate -- with zero timing
guesswork.  The same seed reaches the same protocol point at the same
virtual instant, so every crash scenario is exactly reproducible.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults.schedules import CRASH_DURABLE, RESTART, FaultEvent
from repro.storage.wal import store_fingerprint


class TracePoint:
    """A one-shot action fired at the n-th matching trace emit.

    Matching is by trace ``kind`` plus optional emitting ``node``,
    ``txn`` detail and ``when(record)`` predicate.  The tracer only notifies listeners for *enabled*
    kinds (hot protocol paths skip disabled emits entirely), so the
    hooked kind is enabled here on the caller's behalf.
    """

    def __init__(
        self,
        cluster,
        kind: str,
        action: Callable,
        *,
        node: Optional[int] = None,
        txn: Optional[int] = None,
        count: int = 1,
        when: Optional[Callable] = None,
    ) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.cluster = cluster
        self.kind = kind
        self.action = action
        self.node = node
        self.txn = txn
        self.when = when
        self.remaining = count
        self.fired_at: Optional[float] = None
        self.record = None
        cluster.tracer.enable(kind)
        cluster.tracer.add_listener(self._on_record)

    @property
    def fired(self) -> bool:
        return self.fired_at is not None

    def _on_record(self, record) -> None:
        if record.event != self.kind:
            return
        if self.node is not None and record.node != self.node:
            return
        if self.txn is not None and record.details.get("txn") != self.txn:
            return
        if self.when is not None and not self.when(record):
            return
        self.remaining -= 1
        if self.remaining:
            return
        self.cancel()
        self.fired_at = self.cluster.sim.now
        self.record = record
        self.action(record)

    def cancel(self) -> None:
        """Detach the listener (idempotent)."""
        try:
            self.cluster.tracer.remove_listener(self._on_record)
        except ValueError:
            pass


def crash_at(
    cluster,
    nemesis,
    victim: int,
    kind: str,
    *,
    node: Optional[int] = None,
    txn: Optional[int] = None,
    count: int = 1,
) -> TracePoint:
    """Durably crash ``victim`` at the n-th matching protocol point.

    The crash applies at the emit instant, so any message already sent
    to the victim but not yet delivered is destroyed (in-flight traffic
    drops at delivery time), and the victim's WAL freezes there.
    """

    def action(_record) -> None:
        nemesis.apply(FaultEvent(cluster.sim.now, CRASH_DURABLE, victim))

    return TracePoint(cluster, kind, action, node=node, txn=txn, count=count)


def restart(cluster, nemesis, victim: int):
    """Restart ``victim`` now; returns its closed :class:`DownWindow`.

    For a durable crash the window carries the drop accounting and the
    spawned recovery process; run the cluster to quiescence afterwards
    to let recovery finish.
    """
    nemesis.apply(FaultEvent(cluster.sim.now, RESTART, victim))
    for window in reversed(nemesis.down_windows):
        if window.node == victim:
            return window
    return None


def node_fingerprint(protocol_node):
    """A comparable digest of one node's durable state.

    Captures the full version-chain contents, the ``siteVC``, and the
    next coordinator sequence number -- the exact state a recovered node
    must rebuild bit-identically to a never-crashed control.
    """
    return (
        store_fingerprint(protocol_node.store),
        protocol_node.site_vc.to_tuple(),
        protocol_node.curr_seq_no,
    )


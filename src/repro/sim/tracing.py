"""Optional structured tracing of protocol events.

A :class:`Tracer` records `(time, node, event, details)` tuples; protocol
code emits through :meth:`Tracer.emit`.  The kinds, their detail fields
and the counters each adds to are declared once, in
:data:`repro.metrics.events.EVENTS`: an emit adds to its kind's
counters always and records the event only when its kind is enabled.
Intended for debugging protocol runs and for tests that assert on event
sequences -- benchmark runs leave tracing off, and the once-per-operation
sites skip ``emit`` behind a falsy check.

Usage::

    cluster = Cluster("fwkv", config)
    cluster.tracer.enable("commit", "abort")
    ... run ...
    for record in cluster.tracer.records:
        print(cluster.tracer.format(record))
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Set

from repro.metrics.events import COUNTS, TRACED


class TraceRecord(NamedTuple):
    """One recorded protocol event."""

    time: float
    node: int
    event: str
    details: dict


class Tracer:
    """Selective event recorder shared by all nodes of a cluster."""

    def __init__(self, sim, metrics=None, max_records: int = 100_000) -> None:
        self.sim = sim
        #: The recorder whose counters traced events add to.
        self.metrics = metrics
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        self._enabled: Set[str] = set()
        self._listeners: List[Callable[[TraceRecord], None]] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def enable(self, *kinds: str) -> None:
        """Start recording the given kinds (no arguments = everything)."""
        chosen = set(kinds) if kinds else set(TRACED)
        unknown = chosen - TRACED
        if unknown:
            raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
        self._enabled |= chosen

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Call ``listener(record)`` synchronously on every recorded emit.

        Listeners fire at the emitting node's exact protocol point, which
        is what the crash-recovery harness uses to crash a node *between*
        two protocol steps deterministically.  Only emits that pass the
        enabled-kind filter reach listeners, and hot protocol paths skip
        ``emit`` entirely while tracing is off -- a harness must
        ``enable()`` every kind it hooks.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Emission & inspection
    # ------------------------------------------------------------------
    def emit(self, node: int, kind: str, **details) -> None:
        """Add to ``kind``'s counters; record it if ``kind`` is enabled."""
        counts = COUNTS.get(kind)
        if counts is not None and self.metrics is not None:
            counters = self.metrics.counters
            for counter, field in counts:
                counters[counter] += 1 if field is None else details[field]
        if kind not in self._enabled:
            return
        record = TraceRecord(self.sim.now, node, kind, details)
        if self._listeners:
            for listener in list(self._listeners):
                listener(record)
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(record)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        return [record for record in self.records if record.event == kind]

    def for_txn(self, txn_id: int) -> List[TraceRecord]:
        return [
            record for record in self.records
            if record.details.get("txn") == txn_id
        ]

    @staticmethod
    def format(record: TraceRecord) -> str:
        details = " ".join(
            f"{key}={value!r}" for key, value in sorted(record.details.items())
        )
        return (
            f"[{record.time * 1e3:9.4f}ms] n{record.node} "
            f"{record.event:<9s} {details}"
        )

    def dump(self, limit: Optional[int] = None) -> str:
        chosen = self.records if limit is None else self.records[-limit:]
        return "\n".join(self.format(record) for record in chosen)

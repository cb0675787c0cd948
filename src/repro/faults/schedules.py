"""Declarative fault schedules for the nemesis.

A schedule is a plain list of :class:`FaultEvent` records, each naming a
virtual time and a primitive fault transition.  The builders below are the
primitives: a crash/restart cycle (volatile or durable), a partition/heal
window, a node isolated from its peers, and a seeded random mix of the
first two.  A scenario composes them by concatenation (the nemesis orders
the events), or hand-writes events for precisely-timed cases.

Everything is deterministic: builders that randomise draw from a seeded
stream (:func:`repro.sim.rng.make_rng`), so a schedule -- and therefore an
entire faulty run -- is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.sim.rng import make_rng

#: Primitive fault transitions the nemesis knows how to apply.
CRASH = "crash"
#: Crash with durable-state loss: the node's store, ``siteVC``, and
#: prepared table are wiped, and the matching RESTART rebuilds them from
#: the write-ahead log (requires ``durability.wal_enabled``).
CRASH_DURABLE = "crash_durable"
RESTART = "restart"
PARTITION = "partition"
HEAL = "heal"

KINDS = frozenset({CRASH, CRASH_DURABLE, RESTART, PARTITION, HEAL})


@dataclass(frozen=True)
class FaultEvent:
    """One fault transition at a point in virtual time.

    ``kind`` is one of :data:`CRASH`/:data:`RESTART` (``a`` is the node)
    or :data:`PARTITION`/:data:`HEAL` (the *directed* link ``a -> b``).
    Builders emit both directions for symmetric splits.
    """

    at: float
    kind: str
    a: int
    b: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in (PARTITION, HEAL) and self.b is None:
            raise ValueError(f"{self.kind} events need both link endpoints")
        if self.at < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at}")


def ordered(events: Iterable[FaultEvent]) -> List[FaultEvent]:
    """Events sorted by time (ties keep kind/endpoint order for stability)."""
    return sorted(events, key=lambda ev: (ev.at, ev.kind, ev.a, ev.b or -1))


def crash_cycle(node: int, at: float, down_for: float) -> List[FaultEvent]:
    """Crash ``node`` at ``at`` and restart it ``down_for`` later."""
    if down_for <= 0:
        raise ValueError("down_for must be positive")
    return [
        FaultEvent(at, CRASH, node),
        FaultEvent(at + down_for, RESTART, node),
    ]


def durable_crash_cycle(
    node: int, at: float, down_for: float
) -> List[FaultEvent]:
    """Durably crash ``node`` at ``at`` and restart it ``down_for`` later.

    Unlike :func:`crash_cycle` the node loses its volatile state; the
    restart wipes it and rebuilds from the WAL (recovery runs after the
    restart instant, so allow settle time before asserting on state).
    """
    if down_for <= 0:
        raise ValueError("down_for must be positive")
    return [
        FaultEvent(at, CRASH_DURABLE, node),
        FaultEvent(at + down_for, RESTART, node),
    ]


def partition_cycle(
    a: int,
    b: int,
    at: float,
    duration: float,
    symmetric: bool = True,
) -> List[FaultEvent]:
    """Cut the ``a``/``b`` link at ``at`` and heal it ``duration`` later.

    ``symmetric`` (default) cuts both directions; otherwise only
    ``a -> b`` drops, leaving the reverse path up (an asymmetric fault the
    reliable-channel model cannot express at all).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    events = [
        FaultEvent(at, PARTITION, a, b),
        FaultEvent(at + duration, HEAL, a, b),
    ]
    if symmetric:
        events += [
            FaultEvent(at, PARTITION, b, a),
            FaultEvent(at + duration, HEAL, b, a),
        ]
    return ordered(events)


def isolate_cycle(
    node: int,
    node_ids: Sequence[int],
    at: float,
    duration: float,
) -> List[FaultEvent]:
    """Fully isolate ``node`` from every other node, then heal.

    Cuts both directions of every link between ``node`` and the rest of
    ``node_ids`` at ``at`` and heals them all ``duration`` later -- the
    canonical heal-without-restart scenario: the node keeps its volatile
    state, sleeps through the cluster's commits, and background
    anti-entropy must close the gap after the heal.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    events: List[FaultEvent] = []
    for peer in node_ids:
        if peer == node:
            continue
        events += partition_cycle(node, peer, at, duration)
    return ordered(events)


def random_schedule(
    seed: int,
    node_ids: Sequence[int],
    start: float,
    end: float,
    mean_gap: float,
    down_for: float,
    partition_fraction: float = 0.5,
    durable_crashes: bool = False,
) -> List[FaultEvent]:
    """A seeded random mix of crash cycles and symmetric partition windows.

    Fault injections arrive with exponentially-distributed gaps of mean
    ``mean_gap`` between ``start`` and ``end``; each is a crash/restart of
    a random node, or (with probability ``partition_fraction``) a
    partition/heal of a random node pair.  Every fault heals after
    ``down_for``, and the returned schedule always ends fully healed.
    A draw onto a node still down or a pair still cut is skipped: windows
    never overlap, so no heal cuts a later window short.
    With ``durable_crashes`` the crashes wipe volatile state and recover
    from the WAL (``durability.wal_enabled`` required).
    """
    if len(node_ids) < 2:
        raise ValueError("random_schedule needs at least two nodes")
    rng = make_rng(seed, "nemesis-schedule")
    crash_builder = durable_crash_cycle if durable_crashes else crash_cycle
    events: List[FaultEvent] = []
    healed_at = {}  # node or frozenset pair -> end of its last window
    at = start
    while True:
        at += rng.expovariate(1.0 / mean_gap)
        if at >= end:
            break
        if rng.random() < partition_fraction:
            a, b = rng.sample(list(node_ids), 2)
            target = frozenset((a, b))
            window = partition_cycle(a, b, at, down_for)
        else:
            target = rng.choice(list(node_ids))
            window = crash_builder(target, at, down_for)
        if at > healed_at.get(target, -1.0):
            healed_at[target] = at + down_for
            events += window
    return ordered(events)

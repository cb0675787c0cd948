"""Declarative fault schedules for the nemesis.

A schedule is a plain list of :class:`FaultEvent` records, each naming a
virtual time and a primitive fault transition.  Builders below compose the
common shapes (crash/restart cycles, partition/heal windows, seeded random
mixes); tests can also hand-write event lists for precisely-timed
scenarios such as crash-during-prepare.

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


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
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


def truncation_gap_schedule(
    victim: int,
    node_ids: Sequence[int],
    at: float,
    duration: float,
) -> List[FaultEvent]:
    """Isolate ``victim`` long enough to fall below the WAL floor.

    The canonical snapshot-transfer scenario: while ``victim`` is cut
    off, the survivors keep committing, checkpoint, and -- once their
    mutual frontier evidence covers the checkpoint -- truncate their
    WALs and prune their decision logs.  After the heal the victim's
    frontier sits *below* the survivors' ``pruned_floor``, so gossip's
    record-by-record push can no longer repair it; the next digest
    exchange must trigger a checkpoint snapshot transfer instead
    (see :class:`repro.config.SnapshotTransferConfig`).

    Identical event shape to :func:`isolate_cycle`; the distinct builder
    names the intent and anchors the integration tests and docs.
    """
    return isolate_cycle(victim, node_ids, at, duration)


def view_change_partition_schedule(
    subject: int,
    peers: Sequence[int],
    at: float,
    duration: float,
) -> List[FaultEvent]:
    """Cut ``subject`` off from ``peers`` across a view-change window.

    The reconfiguration analogue of :func:`isolate_cycle`, scoped to a
    peer subset: a joiner partitioned from part of the old membership
    mid-bootstrap, or a survivor that sleeps through a VIEW_COMMIT
    fan-out and must re-learn the view from gossip's commit piggyback.
    Both directions of every listed link are cut and later healed.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    events: List[FaultEvent] = []
    for peer in peers:
        if peer == subject:
            continue
        events += partition_cycle(subject, peer, at, duration)
    return ordered(events)


def shard_migration_schedule(
    donor: int,
    recipient: int,
    at: float,
    window: float,
    *,
    crash_donor: bool = False,
    crash_recipient: bool = False,
    partition: bool = False,
    down_for: Optional[float] = None,
) -> List[FaultEvent]:
    """Chaos overlay for one live shard migration (docs/sharding.md).

    The migration starting at ``at`` fences, drains, and streams across
    ``window``; the selected faults land a quarter of the way in, when
    the shard-scoped snapshot stream is in flight:

    - ``crash_donor``: the sender dies mid-stream, so the in-flight
      chunks and the cutover settle against a dead peer.
    - ``crash_recipient``: the receiver dies before the final chunk, so
      its install never happens and the flip must not either.
    - ``partition``: the donor-recipient link is cut across the
      cutover; offers/chunks/acks are lost in both directions.

    Every fault heals after ``down_for`` (default half the window), and
    the failed migration must leave ownership, chains, and foreground
    traffic untouched -- the rebalancer unfences without flipping and
    the move is simply retried later.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if donor == recipient:
        raise ValueError("donor and recipient must differ")
    down = window / 2 if down_for is None else down_for
    events: List[FaultEvent] = []
    if crash_donor:
        events += crash_cycle(donor, at + window / 4, down)
    if crash_recipient:
        events += crash_cycle(recipient, at + window / 4, down)
    if partition:
        events += partition_cycle(donor, recipient, at + window / 4, down)
    return ordered(events)


def failover_schedule(
    primary: int,
    at: float,
    *,
    down_for: Optional[float] = None,
) -> List[FaultEvent]:
    """Crash ``primary`` so the failover driver promotes its shards.

    The canonical replication scenario (docs/replication.md): a
    network-level crash of a shard primary leaves its replication
    streams silent, the accrual detectors at a majority of live peers
    classify it dead, and the :class:`~repro.replication.failover.
    FailoverDriver` promotes the freshest backup of every shard it
    owned.  With ``down_for`` the node restarts that much later -- a
    deposed primary rejoins retired, its shards stay with their
    promoted successors, and the repair loop may re-enlist it as a
    backup; without it the crash is permanent.
    """
    events = [FaultEvent(at, CRASH, primary)]
    if down_for is not None:
        if down_for <= 0:
            raise ValueError("down_for must be positive")
        events.append(FaultEvent(at + down_for, RESTART, primary))
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
    With ``durable_crashes`` the crashes wipe volatile state and recover
    from the WAL (``durability.wal_enabled`` required).
    """
    if len(node_ids) < 2:
        raise ValueError("random_schedule needs at least two nodes")
    rng = make_rng(seed, "nemesis-schedule")
    crash_builder = durable_crash_cycle if durable_crashes else crash_cycle
    events: List[FaultEvent] = []
    at = start
    while True:
        at += rng.expovariate(1.0 / mean_gap)
        if at >= end:
            break
        if rng.random() < partition_fraction:
            a, b = rng.sample(list(node_ids), 2)
            events += partition_cycle(a, b, at, down_for)
        else:
            node = rng.choice(list(node_ids))
            events += crash_builder(node, at, down_for)
    return ordered(events)

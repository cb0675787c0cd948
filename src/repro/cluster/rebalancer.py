"""Online shard rebalancing: fence, drain, stream, flip.

A :class:`Rebalancer` moves one shard at a time between live nodes while
foreground PSI traffic keeps committing.  A migration is one
:func:`~repro.cluster.handoff.fenced_handoff` whose action under the
fence is the single :class:`~repro.cluster.directory.ShardMap` owner
flip (one epoch bump): parked prepares wake, re-check ownership, and
vote "moved"; the coordinator regroups against the flipped map and
re-prepares at the new owner.  Nothing aborts, and a failed transfer
(crashed donor or recipient, partition, drain timeout) is invisible to
foreground traffic and can simply be retried.

Which shard to move comes from :func:`plan_moves`, a pure greedy
planner over the per-shard access counters in
:class:`~repro.metrics.stats.MetricsRecorder` -- shared by the live
``rebalance_once`` path and the skew regression tests so the tests gate
the planner the cluster actually runs.  Its two siblings plan a join's
and a leave's moves (:func:`plan_join`, :func:`plan_leave`), which the
membership drivers run through the same handoff.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.cluster.directory import ShardMap
from repro.cluster.handoff import Move, fenced_handoff, shard_keys
from repro.sim import PeriodicLoop

#: Multiplicative decay applied to the per-shard counters after each
#: rebalance round that moved something, so the signal tracks current
#: load, not history.
LOAD_DECAY = 0.5
#: Minimum total tracked accesses before the planner trusts the load
#: signal at all.
MIN_SAMPLES = 64


def plan_moves(
    loads: Mapping[int, int],
    owners: Sequence[int],
    node_ids: Sequence[int],
    *,
    threshold: float = 1.25,
    max_moves: int = 1,
) -> List[Tuple[int, int]]:
    """Greedy shard moves flattening per-node load: ``[(shard, dest)]``.

    While some node's tracked load exceeds ``threshold`` times the mean
    (hysteresis against thrashing), move its hottest shard to the
    least-loaded node -- but only when the move strictly lowers the
    pair's maximum, so the plan can never oscillate.  Ties break toward
    lower node/shard ids, keeping the plan a pure deterministic function
    of its inputs.  The live rebalancer runs with the defaults.
    """
    if max_moves <= 0 or not node_ids:
        return []
    owners = list(owners)
    node_load: Dict[int, int] = {n: 0 for n in node_ids}
    for shard, owner in enumerate(owners):
        if owner in node_load:
            node_load[owner] += loads.get(shard, 0)
    total = sum(node_load.values())
    if total <= 0:
        return []
    mean = total / len(node_ids)
    moves: List[Tuple[int, int]] = []
    while len(moves) < max_moves:
        src = max(node_ids, key=lambda n: (node_load[n], -n))
        dst = min(node_ids, key=lambda n: (node_load[n], n))
        if src == dst or node_load[src] <= threshold * mean:
            break
        candidates = sorted(
            (
                shard
                for shard, owner in enumerate(owners)
                if owner == src and loads.get(shard, 0) > 0
            ),
            key=lambda shard: (-loads.get(shard, 0), shard),
        )
        best = None
        for shard in candidates:
            if node_load[dst] + loads[shard] < node_load[src]:
                best = shard
                break
        if best is None:
            break  # src's load is one indivisible hot shard; moving it
            # would just relocate the hotspot
        weight = loads[best]
        owners[best] = dst
        node_load[src] -= weight
        node_load[dst] += weight
        moves.append((best, dst))
    return moves


def plan_join(
    owners: Sequence[int], node_ids: Sequence[int], joiner: int
) -> List[Move]:
    """The moves that admit ``joiner``: ``[(shard, donor, joiner)]``.

    Deterministic greedy: while the joiner holds fewer than
    ``num_shards // n`` shards, take the highest-numbered shard of the
    most-loaded owner (ties toward the lowest id), stopping once every
    owner is within one shard of the joiner.
    """
    owners = list(owners)
    counts = dict.fromkeys([*node_ids, joiner], 0)
    for owner in owners:
        counts[owner] += 1
    moves: List[Move] = []
    while counts[joiner] < len(owners) // len(counts):
        donor = max(
            (n for n in counts if n != joiner), key=lambda n: (counts[n], -n)
        )
        if counts[donor] <= counts[joiner] + 1:
            break  # already balanced to within one shard
        shard = max(s for s, owner in enumerate(owners) if owner == donor)
        owners[shard] = joiner
        counts[donor] -= 1
        counts[joiner] += 1
        moves.append((shard, donor, joiner))
    return moves


def plan_leave(
    owners: Sequence[int], node_ids: Sequence[int], victim: int
) -> List[Move]:
    """The moves that retire ``victim``: ``[(shard, victim, heir)]``, each
    of its shards in ascending order to the least-loaded survivor (ties
    toward the lowest id)."""
    counts = {n: 0 for n in node_ids if n != victim}
    for owner in owners:
        if owner != victim:
            counts[owner] += 1
    moves: List[Move] = []
    for shard, owner in enumerate(owners):
        if owner == victim:
            heir = min(counts, key=lambda n: (counts[n], n))
            counts[heir] += 1
            moves.append((shard, victim, heir))
    return moves


class Rebalancer:
    """Drives live shard migrations for a :class:`ShardMap` cluster.

    Constructed by :class:`repro.system.Cluster` whenever the directory
    is a ShardMap.  Migrations run as simulator processes; the optional
    background loop (``ShardingConfig.rebalance_interval``) periodically
    plans from the metrics counters and migrates.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.config = cluster.config.sharding
        self.sim = cluster.sim
        self.metrics = cluster.metrics
        #: Completed migrations, as ``(shard, donor, recipient)`` (probe).
        self.migrations: List[Tuple[int, int, int]] = []
        self._loop = PeriodicLoop(
            self.sim, self.config.rebalance_interval, self.rebalance_once,
            "rebalancer",
        )

    @property
    def shard_map(self) -> ShardMap:
        return self.cluster.directory

    # ------------------------------------------------------------------
    # One migration
    # ------------------------------------------------------------------
    def migrate_shard(self, shard: int, dest: int):
        """Spawn one live migration; the process's value is True on flip."""
        return self.cluster.spawn(
            self._migrate(shard, dest), name=f"migrate-s{shard}-to-{dest}"
        )

    def _migrate(self, shard: int, dest: int):
        shard_map = self.shard_map
        donor_id = shard_map.owner_of(shard)
        if donor_id == dest:
            return True  # already there; idempotent
        if dest not in shard_map.node_ids:
            raise ValueError(f"node {dest} is not a member")
        cluster = self.cluster
        tracer = cluster.tracer
        if cluster.network.is_crashed(donor_id) or cluster.network.is_crashed(
            dest
        ):
            tracer.emit(donor_id, "shard_migrate_failed", shard=shard, dest=dest)
            return False
        if tracer._enabled:
            tracer.emit(
                donor_id, "shard_migrate_start", shard=shard, dest=dest,
                keys=len(shard_keys(cluster.nodes[donor_id], {shard})),
                epoch=shard_map.epoch,
            )
        shipped = yield from fenced_handoff(cluster, [(shard, donor_id, dest)])
        if shipped is None:
            tracer.emit(donor_id, "shard_migrate_failed", shard=shard, dest=dest)
            return False
        self.migrations.append((shard, donor_id, dest))
        tracer.emit(
            donor_id, "shard_migrated", shard=shard, dest=dest,
            keys=shipped, epoch=shard_map.epoch,
        )
        return True

    # ------------------------------------------------------------------
    # Planning from the live load signal
    # ------------------------------------------------------------------
    def rebalance_once(self):
        """Plan from the metrics counters and run the moves; returns the
        number of migrations that flipped."""
        self.metrics.count("rebalance_rounds")
        loads = self.metrics.shard_loads
        if sum(loads.values()) < MIN_SAMPLES:
            return 0
        shard_map = self.shard_map
        live = [
            n
            for n in shard_map.node_ids
            if not self.cluster.network.is_crashed(n)
        ]
        moves = plan_moves(dict(loads), shard_map.owners(), live)
        done = 0
        for shard, dest in moves:
            flipped = yield from self._migrate(shard, dest)
            if flipped:
                done += 1
        if moves:
            self.metrics.decay_shard_loads(LOAD_DECAY)
        return done

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._loop.start()

    def stop(self) -> None:
        self._loop.stop()

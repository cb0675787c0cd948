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
the planner the cluster actually runs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.cluster.directory import ShardMap
from repro.cluster.handoff import fenced_handoff
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


class Rebalancer:
    """Drives live shard migrations for a :class:`ShardMap` cluster.

    Constructed by :class:`repro.system.Cluster` whenever the directory
    is a ShardMap.  Migrations run as simulator processes; the optional
    background loop (``ShardingConfig.rebalance_interval``) periodically
    plans from the metrics counters and migrates.  The loop should be
    stopped across membership changes: the
    join/leave drivers precompute ownership with ``with_nodes`` and a
    concurrent flip would skew that precomputation.
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
        donor = cluster.nodes[donor_id]
        keys = sorted(
            (k for k in donor.store.keys() if shard_map.shard_of(k) == shard),
            key=repr,
        )
        if tracer._enabled:
            tracer.emit(
                donor_id, "shard_migrate_start", shard=shard, dest=dest,
                keys=len(keys), epoch=shard_map.epoch,
            )

        def flip():
            # Cutover: single table write, one epoch bump.
            if shard_map.owner_of(shard) != donor_id:
                return False
            shard_map.assign(shard, dest)

        flipped = yield from fenced_handoff(donor, {dest: keys}, act=flip)
        if flipped:
            self.migrations.append((shard, donor_id, dest))
            tracer.emit(
                donor_id, "shard_migrated", shard=shard, dest=dest,
                keys=len(keys), epoch=shard_map.epoch,
            )
        else:
            tracer.emit(donor_id, "shard_migrate_failed", shard=shard, dest=dest)
        return flipped

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

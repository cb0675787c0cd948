"""Detector-driven failover for the replication substrate
(``docs/replication.md``, "Failover"): majority attestation of a dead
shard owner, promotion of the freshest backup per shard behind the key
fence -- a recovery of the dead primary's shards at the successor, from
one re-stage round of the coordinators -- and re-bootstrap of backups
whose streams closed.  Imports nothing
from ``repro.replication.shard``, which imports this module; the
placement rule both need, :func:`backups_for_shard`, lives here.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.cluster.handoff import fenced_handoff
from repro.core.repair import _status, reannounce
from repro.core.transaction import PreparedTxn
from repro.core.vector_clock import VectorClock
from repro.core.wire import VoteBody
from repro.sim import PeriodicLoop


def backups_for_shard(
    shard_map,
    shard: int,
    factor: int,
    down: Optional[Set[int]] = None,
    keep: Sequence[int] = (),
) -> Tuple[int, ...]:
    """The deterministic backup set for one shard.

    ``keep`` (a failover's live surviving backups) comes first; the rest
    are the member ids minus the shard's owner and any ``down`` sites, in
    sorted order rotated by the shard index -- so backup load spreads
    evenly across the cluster and the placement is a pure function of
    the directory (any node, or a test, can recompute it without
    coordination).  Returns at most ``factor - 1`` backups; a cluster
    smaller than the replication factor simply gets every other live
    member.
    """
    owner = shard_map.owner_of(shard)
    excluded = down if down is not None else ()
    candidates = sorted(
        n for n in shard_map.node_ids
        if n != owner and n not in excluded and n not in keep
    )
    rotation = shard % len(candidates) if candidates else 0
    rotated = candidates[rotation:] + candidates[:rotation]
    return tuple((list(keep) + rotated)[: max(0, factor - 1)])


class FailoverDriver:
    """Detector-driven promotion of backups over dead shard owners.

    Runs as a cluster-level background loop when ``failover_timeout`` is
    set.  Each scan asks the *live* nodes' armed accrual detectors for
    a majority verdict on every shard owner -- a node partitioned away
    sees everyone dead, but cannot out-vote the connected majority, so
    a pairwise partition never triggers a spurious failover.  A dead
    owner's shards are promoted to the freshest live backup of each
    (highest applied stream sequence, ties to the lowest id), and the
    scan also repairs broken streams by re-bootstrapping restarted
    backups from their primaries.
    """

    def __init__(self, rep: "ClusterReplication") -> None:
        self.rep = rep
        self.cluster = rep.cluster
        self.sim = rep.sim
        self.config = rep.config
        self.tracer = rep.tracer
        timeout = self.config.failover_timeout
        self._loop = PeriodicLoop(
            self.sim, None if timeout is None else timeout / 2, self._scan,
            "failover-driver",
        )
        #: dead site -> its shards last reported as having no live backup.
        self._orphaned: Dict[int, Tuple[int, ...]] = {}

    def start(self) -> None:
        self._loop.start()

    def stop(self) -> None:
        self._loop.stop()

    # ------------------------------------------------------------------
    # Scan
    # ------------------------------------------------------------------
    def _live(self, node_id: int) -> bool:
        return not self.rep.is_excluded(node_id)

    def _majority_dead(self, target: int) -> bool:
        """Do a majority of live armed detectors classify ``target`` dead?

        Crashed voters are excluded (their silent detectors would see
        everyone dead); so are deposed and removed sites.  With no
        armed detectors anywhere the answer is always False -- failover
        requires the healing layer's detector to be configured.
        """
        votes = 0
        voters = 0
        for node in self.cluster.nodes:
            node_id = node.node_id
            if node_id == target or not self._live(node_id):
                continue
            healing = node.healing
            if not healing.armed:
                continue
            voters += 1
            if healing.detector.is_dead(target):
                votes += 1
        return voters > 0 and votes * 2 > voters

    def _scan(self):
        rep = self.rep
        for primary in list(rep.shard_map.node_ids):
            if primary in self.cluster._removed:
                continue
            if not rep.shard_map.shards_of(primary):
                continue
            # A site already deposed but still owning shards is a
            # partially-failed promotion (its successor crashed
            # mid-promotion): retry until every shard flips.
            if primary in rep.down or self._majority_dead(primary):
                yield from self.fail_over(primary)
        yield from self._repair_backups()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def fail_over(self, dead: int):
        """Depose ``dead`` and promote the freshest backup per shard."""
        rep = self.rep
        nodes = self.cluster.nodes
        first = dead not in rep.down
        rep.down.add(dead)
        rep.version += 1
        nodes[dead].replication.retire()
        if first and self.tracer._enabled:
            self.tracer.emit(dead, "failover_start", shards=len(rep.shard_map.shards_of(dead)))
        shards = rep.shard_map.shards_of(dead)
        by_successor: Dict[int, List[int]] = {}
        orphaned: List[int] = []
        for shard in shards:
            live_backups = [
                b for b in rep.placement.get(shard, ()) if self._live(b)
            ]
            if not live_backups:
                orphaned.append(shard)
                continue
            successor = max(
                live_backups,
                key=lambda b: (nodes[b].replication.applied_from(dead), -b),
            )
            by_successor.setdefault(successor, []).append(shard)
        # What every site that cannot be asked decided, writes and all,
        # merged once from wherever it kept it: its decision homes, past
        # and present, and own-shard backups.
        decided: Dict[int, Dict[int, object]] = {}
        for node in nodes if by_successor else ():
            if self._live(node.node_id):
                for origin, state in node.replication.backup_state.items():
                    if not self._live(origin):
                        decided.setdefault(origin, {}).update(state.decisions)
        promoted = 0
        for successor in sorted(by_successor):
            # The first successor promoted re-announces for all of them.
            done = yield from self._promote(
                dead, successor, by_successor[successor], decided,
                announce=not promoted,
            )
            if done:
                promoted += len(by_successor[successor])
        if promoted and rep.shard_map.shards_of(dead) == tuple(orphaned):
            # The deposed site owns nothing a backup could take: refuse
            # any straggling stream traffic from it, everywhere.
            for node in nodes:
                if node.node_id != dead:
                    node.replication.close_backup_state(dead)
            self.tracer.emit(
                dead, "failover_complete", shards=promoted,
                orphaned=len(orphaned),
            )
        if self._orphaned.get(dead, ()) != tuple(orphaned):
            self._orphaned[dead] = tuple(orphaned)
            self.tracer.emit(dead, "failover_orphaned", shards=tuple(orphaned))

    def _promote(
        self, dead: int, successor: int, shards: List[int],
        decided: Dict[int, Dict[int, object]], announce: bool,
    ):
        """Promote ``successor`` to own ``shards`` of the dead primary: a
        recovery of those shards at the successor (S6, DESIGN.md 5.10).

        Behind the key fence: (1) one re-stage round -- every live node is
        asked what it committed at ``dead`` above the successor's
        replicated frontier of its origin, and answers exactly (a round
        still collecting votes there is doomed and re-prepares at the
        new owner); ``decided`` (``origin -> txn_id -> decision entry``,
        merged from every live node) answers for the sites that cannot;
        (2) what was listed installs with dedup, staged prepares in
        stream order and then the ones the stream lost; a staged prepare
        nobody listed was aborted if its coordinator answered (or was
        ``dead``: its decision would sit behind it on this stream, S1),
        and otherwise transplants into the prepared table under the
        lease; (3) if told to ``announce`` (one successor per failover
        is), re-announce the dead primary's decisions in commit order to
        every live peer, unwedging participants that would otherwise
        presume abort and advancing ``siteVC[dead]`` everywhere; (4) flip
        the shard-map entries.  Afterwards the shard's backup set is
        recomputed and re-bootstrapped from the new primary.
        """
        rep = self.rep
        cluster = self.cluster
        shard_map = rep.shard_map
        successor_node = cluster.nodes[successor]
        incarnation = successor_node._incarnation
        shard_set = set(shards)
        shard_of = shard_map.hash_shard  # a bulk scan: leave the memo alone
        state = successor_node.replication.backup_state.get(dead)
        staged: List = []
        floor: Tuple[int, ...] = ()
        if state is not None and not state.closed:
            # Stream order for staged installs: per-key conflicts were
            # lock-serialized at the dead primary, so prepare-stream
            # order is install order.
            staged = sorted(state.staged.values(), key=lambda e: e.seq)
            floor = state.frontier or ()
        keys = {
            key for key in successor_node.store.keys()
            if shard_of(key) in shard_set
        }
        for entry in staged:
            keys.update(
                key for key, _value in entry.writes
                if shard_of(key) in shard_set
            )
        keys = sorted(keys, key=repr)
        successor_node.fence.raise_keys(keys)
        flipped = False
        installed = 0
        try:
            _clock, answered, listed = (
                yield from successor_node.healing.collect_frontiers(
                    restage=True, site=dead, floor=floor,
                    peers=lambda: [
                        n.node_id for n in cluster.nodes if self._live(n.node_id)
                    ],
                )
            )
            if (
                successor_node._incarnation != incarnation
                or not self._live(successor)
            ):
                return False
            for origin, table in decided.items():
                above = floor[origin] if origin < len(floor) else 0
                for entry in table.values():
                    writes = tuple(
                        (key, value) for site, key, value in entry.writes
                        if site == dead
                    )
                    if writes and entry.seq_no > above:
                        listed.setdefault(
                            entry.txn_id, _status(origin, entry, writes)
                        )
            # S5: a lost prepare held its locks at the crash, so those are
            # pairwise key-disjoint and follow whatever the stream staged.
            commits = [listed.pop(e.txn_id) for e in staged if e.txn_id in listed]
            commits += sorted(listed.values(), key=lambda c: (c.origin, c.seq_no))
            for commit in commits:
                vc = VectorClock.frozen(commit.commit_vc)
                for key, value in commit.writes:
                    if shard_of(key) in shard_set and not self._has_version(
                        successor_node, key, commit.origin, commit.seq_no
                    ):
                        successor_node.store.install(
                            key, value, vc, origin=commit.origin, seq=commit.seq_no,
                            writer_txn=commit.txn_id, installed_at=self.sim.now,
                        )
                        installed += 1
            committed = {commit.txn_id for commit in commits}
            for entry in staged:
                writes = tuple(
                    (key, value) for key, value in entry.writes
                    if shard_of(key) in shard_set
                )
                if (
                    writes
                    and entry.txn_id not in committed
                    and entry.coordinator != dead
                    and entry.coordinator not in answered
                ):
                    # Coordinator unreachable (it may be mid-failover
                    # itself): park the writes in the prepared table --
                    # no locks held -- so its successor's re-announced
                    # Decide, or the termination query, resolves them.
                    self._transplant_staged(successor_node, entry, writes)
            decisions = decided.get(dead, {})
            # Nobody knows how far each peer got on the dead origin, so
            # every live peer hears every merged decision, once, in
            # commit order for the in-order apply rule.
            if announce and decisions:
                by_seq = {entry.seq_no: entry for entry in decisions.values()}
                below = min(by_seq) - 1
                reannounce(
                    successor_node,
                    dead,
                    by_seq,
                    {
                        node.node_id: below for node in cluster.nodes
                        if self._live(node.node_id)
                    },
                    max(by_seq),
                )
            if state is not None:
                state.staged.clear()
            # Cutover: flip each shard's owner entry under the fence.
            for shard in shards:
                shard_map.assign(shard, successor)
            flipped = True
        finally:
            successor_node.fence.lower_keys(keys)
        if not flipped:
            return False
        if self.tracer._enabled:
            self.tracer.emit(
                successor, "failover_promoted", dead=dead,
                shards=tuple(shards), staged_installed=installed,
                decisions=len(decisions) if announce else 0,
            )
        # Recompute the flipped shards' backup sets (keep live
        # survivors, top up deterministically) and re-bootstrap each
        # from the new primary -- a verbatim re-ship also restarts the
        # record streams from a clean, provably consistent point.
        down = {n for n in shard_map.node_ids if not self._live(n)}
        for shard in shards:
            survivors = [
                b for b in rep.placement.get(shard, ())
                if b != successor and self._live(b)
            ]
            rep.placement[shard] = backups_for_shard(
                shard_map, shard, self.config.replication_factor, down,
                keep=survivors,
            )
        rep.version += 1
        backups = sorted(
            {b for shard in shards for b in rep.placement[shard]}
        )
        for backup in backups:
            backed = [s for s in shards if backup in rep.placement[s]]
            yield from self._bootstrap_backup(successor, backup, backed)
        return True

    @staticmethod
    def _has_version(node, key: Hashable, origin: int, seq_no: int) -> bool:
        if key not in node.store:
            return False
        for version in node.store.chain(key).newest_first():
            if version.origin == origin and version.seq == seq_no:
                return True
            if version.origin == origin and version.seq < seq_no:
                break
        return False

    def _transplant_staged(self, node, entry, writes) -> None:
        """Park unresolved staged writes in the node's prepared table."""
        if entry.txn_id in node._prepared:
            return
        transplanted = PreparedTxn(
            dict(writes),
            [],  # no locks: the dead primary's locks died with it
            VoteBody(True),
            entry.coordinator,
            round=entry.round,
        )
        node._stage(entry.txn_id, transplanted)

    # ------------------------------------------------------------------
    # Backup repair / bootstrap
    # ------------------------------------------------------------------
    def _repair_backups(self):
        """Re-bootstrap live backups whose streams closed.

        A stream closes when its backup crashed or restarted with lost
        stream state; once both ends are live again, a verbatim re-ship
        from the primary resumes replication from a consistent point.
        """
        rep = self.rep
        for node in self.cluster.nodes:
            node_rep = node.replication
            if node_rep._retired or not self._live(node.node_id):
                continue
            for backup, stream in list(node_rep.streams.items()):
                if not stream.closed or not self._live(backup):
                    continue
                shards = [
                    shard
                    for shard in rep.shard_map.shards_of(node.node_id)
                    if backup in rep.placement.get(shard, ())
                ]
                if not shards:
                    continue
                yield from self._bootstrap_backup(node.node_id, backup, shards)

    def _bootstrap_backup(
        self, primary_id: int, backup_id: int, shards: List[int]
    ):
        """Verbatim-ship ``shards`` to a backup and restart its stream.

        A fenced handoff without the ownership flip: chains are stable
        for the transfer, and the stream restarts -- with its frontier
        snapshot -- before the unfence, so every backed version at or
        below that frontier is provably in the shipped chains.
        """
        cluster = self.cluster
        if not self._live(primary_id) or not self._live(backup_id):
            return False
        primary = cluster.nodes[primary_id]
        shard_map = self.rep.shard_map
        shard_set = set(shards)
        keys = sorted(
            (
                key for key in primary.store.keys()
                if shard_map.hash_shard(key) in shard_set
            ),
            key=repr,
        )

        def restart_stream():
            if not self._live(backup_id):
                return False
            primary.replication.reset_stream(backup_id)
            cluster.nodes[backup_id].replication.adopt_stream(
                primary_id,
                applied=primary.replication.streams[backup_id].acked,
                frontier=primary.site_vc.to_tuple(),
            )

        shipped = yield from fenced_handoff(
            primary, {backup_id: keys}, act=restart_stream
        )
        if not shipped:
            return False
        self.tracer.emit(
            primary_id, "backup_bootstrap", backup=backup_id,
            shards=tuple(shards), keys=len(keys),
        )
        return True

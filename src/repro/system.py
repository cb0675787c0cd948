"""The top-level facade: build a cluster, load data, run transactions.

:class:`Cluster` wires together the simulator, network, directory, metrics,
and one protocol node per simulated machine.  Tests, examples, and the
benchmark harness all drive the system through this class.

Typical scripted use::

    cluster = Cluster("fwkv", ClusterConfig(num_nodes=3))
    cluster.load("x", 0)

    def increment(txn):
        value = yield from txn.read("x")
        txn.write("x", value + 1)

    assert cluster.run_txn(increment)

:meth:`Cluster.run_txn` begins the transaction, hands the body a
:class:`TxnHandle`, drives the generator, auto-commits, and runs the
simulator to quiescence -- the full ``begin``/``yield from read``/
``commit``/``run_process`` plumbing remains available underneath for
scripts that interleave several transactions in one process.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.cluster.directory import ConsistentHashDirectory, Directory, ShardMap
from repro.cluster.handoff import fenced_handoff
from repro.cluster.membership import (
    ACK_TIMEOUT,
    ACTIVE,
    DRAINING,
    HANDOFF_TIMEOUT,
    JOINING,
    MAX_ATTEMPTS,
    MembershipView,
)
from repro.cluster.node import Node
from repro.cluster.rebalancer import Rebalancer
from repro.config import ClusterConfig
from repro.core.fwkv import FWKVNode
from repro.core.interfaces import BaseProtocolNode, SharedState
from repro.core.mvcc_node import MVCCNode
from repro.core.twopc import TwoPCNode
from repro.core.walter import WalterNode
from repro.metrics.history import History, OpRecord
from repro.metrics.psi_checker import VersionCatalog
from repro.metrics.stats import MetricsRecorder
from repro.net.transport import Transport, build_transport
from repro.replication.shard import ClusterReplication
from repro.sim import Simulator, Tracer

PROTOCOLS = {
    "fwkv": FWKVNode,
    "walter": WalterNode,
    "2pc": TwoPCNode,
}


def version_catalog_of(nodes: Iterable[BaseProtocolNode]) -> VersionCatalog:
    """(key, vid) -> (origin, seq, writer txn) over ``nodes``' stores: a
    whole :class:`Cluster`'s, or the one node a socket host process runs."""
    catalog: VersionCatalog = {}
    for node in nodes:
        if isinstance(node, MVCCNode):
            for key, base_vid, versions in node.store.snapshots():
                for vid, (_v, _vc, origin, seq, writer, _at) in enumerate(
                    versions, base_vid
                ):
                    catalog[(key, vid)] = (origin, seq, writer)
        elif isinstance(node, TwoPCNode):
            catalog.update(node.catalog)
    return catalog


def resolve_write_vids(history: History, catalog: VersionCatalog) -> History:
    """Fill in ``history``'s write operations from ``catalog``, in place.

    Coordinators never learn the vids their writes received at remote
    nodes, so update-transaction write operations are reconstructed
    here from each version's ``writer_txn`` stamp.  2PC records write
    vids inline at commit and needs no resolution.

    A key a committed update recorded writing (``write_keys``) that no
    store holds is listed in ``history.lost_writes`` -- only on keys
    whose every version, vids ``0..max``, is still in the catalog: GC
    may have reclaimed it otherwise.
    """
    writes_by_txn: Dict[int, list] = {}
    for (key, vid), (_origin, _seq, writer) in catalog.items():
        if writer is not None:
            writes_by_txn.setdefault(writer, []).append((key, vid))
    missing = []
    for record in history.committed_updates():
        found = writes_by_txn.get(record.txn_id, [])
        if not record.writes():
            for key, vid in sorted(found, key=repr):
                record.ops.append(OpRecord("w", key, vid))
        written = {key for key, _vid in found}
        missing += [(record.txn_id, k) for k in record.write_keys if k not in written]
    kept = {key: [] for _txn, key in missing}
    for key, vid in catalog:
        if key in kept:
            kept[key].append(vid)
    history.lost_writes = [
        (txn, key) for txn, key in missing
        if len(kept[key]) == max(kept[key], default=-1) + 1
    ]
    return history


class TxnResult:
    """Outcome of one :meth:`Cluster.run_txn` invocation.

    Truthy iff the transaction committed, so existing assertion styles
    (``assert cluster.run_txn(fn)``) keep working; ``value`` carries
    whatever the transaction body returned.
    """

    __slots__ = ("committed", "value", "txn_id")

    def __init__(self, committed: bool, value: object, txn_id: int) -> None:
        self.committed = committed
        self.value = value
        self.txn_id = txn_id

    def __bool__(self) -> bool:
        return self.committed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "committed" if self.committed else "aborted"
        return f"<TxnResult txn={self.txn_id} {state} value={self.value!r}>"


class TxnHandle:
    """One in-flight transaction, without the generator plumbing.

    Wraps a protocol node's ``begin``/``read``/``write``/``commit``
    into a single object the transaction body receives, so user code
    reads ``value = yield from txn.read(key)`` instead of threading the
    node and the raw :class:`~repro.core.transaction.Transaction` pair
    through every call.  ``read``/``read_many``/``commit`` stay
    generator subroutines -- they go over the simulated wire -- while
    ``write`` buffers locally and is plain.
    """

    __slots__ = ("_node", "txn", "finished", "committed")

    def __init__(self, node: BaseProtocolNode, txn) -> None:
        self._node = node
        #: The underlying Transaction (escape hatch for advanced use).
        self.txn = txn
        #: True once commit or rollback ran; run_txn then skips its
        #: auto-commit.
        self.finished = False
        self.committed = False

    @property
    def txn_id(self) -> int:
        return self.txn.txn_id

    def read(self, key: Hashable):
        """Generator subroutine: the value visible to this transaction."""
        value = yield from self._node.read(self.txn, key)
        return value

    def read_many(self, keys: Iterable[Hashable]):
        """Generator subroutine: parallel multi-get (read-only txns)."""
        values = yield from self._node.read_many(self.txn, keys)
        return values

    def write(self, key: Hashable, value: object) -> None:
        """Buffer a write (visible at commit only)."""
        self._node.write(self.txn, key, value)

    def commit(self):
        """Generator subroutine: drive 2PC; True iff committed."""
        ok = yield from self._node.commit(self.txn)
        self.finished = True
        self.committed = bool(ok)
        return self.committed

    def rollback(self) -> None:
        """Client-initiated abort: discard buffers, nothing to undo."""
        self._node.abort(self.txn)
        self.finished = True


class Cluster:
    """A complete simulated deployment of one protocol."""

    def __init__(
        self,
        protocol: str,
        config: ClusterConfig,
        directory: Optional[Directory] = None,
        record_history: bool = False,
    ) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}"
            )
        self.protocol = protocol
        self.config = config
        self.sim = Simulator()
        #: The message fabric, selected by ``config.transport.kind`` --
        #: the only place the backend choice is made (docs/networking.md).
        self.network: Transport = build_transport(self.sim, config)
        self.metrics = MetricsRecorder(self.sim)
        self.tracer = Tracer(self.sim, self.metrics)
        if directory is None:
            # Sharded clusters place keys through an explicit owner table
            # (shard granularity, epoch-versioned flips); everything else
            # keeps the classic ring and its exact historical placement.
            if config.sharding.enabled:
                directory = ShardMap(
                    list(config.node_ids), config.sharding.num_shards
                )
            else:
                directory = ConsistentHashDirectory(list(config.node_ids))
        self.directory = directory
        self.history: Optional[History] = History() if record_history else None
        self.shared = SharedState(
            sim=self.sim,
            config=config,
            directory=self.directory,
            metrics=self.metrics,
            tracer=self.tracer,
            history=self.history,
        )
        node_cls = PROTOCOLS[protocol]
        self.nodes = [
            node_cls(Node(self.sim, node_id, self.network), self.shared)
            for node_id in config.node_ids
        ]
        #: Sites decommissioned (or abandoned mid-join) by the elastic
        #: membership drivers; they keep their slot in ``nodes`` so ids
        #: stay dense, but no driver or healing pass touches them.
        self._removed: set = set()
        #: Live shard migration driver; present iff the directory is a
        #: ShardMap (its background loop only spawns when
        #: ``sharding.rebalance_interval`` is set -- see start_healing).
        self.rebalancer: Optional[Rebalancer] = (
            Rebalancer(self) if isinstance(self.directory, ShardMap) else None
        )
        #: Per-shard primary-backup replication (docs/replication.md):
        #: deterministic backup placement over the ShardMap, record
        #: streams from every primary, and the failover driver.  ``None``
        #: unless ``config.replication.enabled``.
        self.replication: Optional[ClusterReplication] = None
        if config.replication.enabled:
            if not isinstance(self.directory, ShardMap):
                raise ValueError(
                    "replication requires the sharded directory; set "
                    "sharding.enabled (replication placement and failover "
                    "operate at shard granularity)"
                )
            if not self.nodes or not isinstance(self.nodes[0], MVCCNode):
                raise ValueError(
                    f"protocol {protocol!r} does not support replication"
                )
            self.replication = ClusterReplication(self)
        # Arm the self-healing loops (heartbeats, anti-entropy, WAL
        # checkpoints) on every MVCC node.  With the default HealingConfig
        # no loop is configured, so this spawns nothing; when periods are
        # configured the loops run forever -- drive such clusters with
        # run(until=...) or call stop_healing() before a quiescence run.
        self.start_healing()

    # ------------------------------------------------------------------
    # Data loading
    # ------------------------------------------------------------------
    def load(self, key: Hashable, value: object) -> None:
        """Install initial data at the key's preferred site."""
        self.load_many(((key, value),))

    def load_many(self, items: Iterable[Tuple[Hashable, object]]) -> int:
        """Install many (key, value) pairs; returns the count loaded.

        Items are bucketed by preferred site and handed to each node's
        bulk loader, so a large keyspace pays one placement lookup per key
        and nothing else per item at the Python-call level.  With
        replication enabled the baseline is mirrored to each key's backups
        -- every replica's chain starts identical, so stream installs keep
        vids aligned forever after.
        """
        site = self.directory.site
        buckets: Dict[int, list] = {}
        for item in items:
            owner = site(item[0])
            bucket = buckets.get(owner)
            if bucket is None:
                buckets[owner] = [item]
            else:
                bucket.append(item)
        nodes = self.nodes
        loaded = sum(
            nodes[owner].load_many(bucket) for owner, bucket in buckets.items()
        )
        if self.replication is not None:
            # The returned count stays the primary-copy count.
            backups_for_key = self.replication.backups_for_key
            mirror: Dict[int, list] = {}
            for bucket in buckets.values():
                for item in bucket:
                    for backup in backups_for_key(item[0]):
                        mirror.setdefault(backup, []).append(item)
            for backup, bucket in mirror.items():
                nodes[backup].load_many(bucket)
        return loaded

    # ------------------------------------------------------------------
    # Self-healing lifecycle
    # ------------------------------------------------------------------
    def start_healing(self) -> None:
        """Spawn the configured healing loops on every current member.

        Idempotent: nodes already running their loops are left alone
        (the per-node daemon guards itself), and decommissioned sites
        are skipped.
        """
        for node in self.nodes:
            if isinstance(node, MVCCNode) and node.node_id not in self._removed:
                node.healing.start()
        if self.rebalancer is not None:
            self.rebalancer.start()
        if self.replication is not None:
            self.replication.start()

    def stop_healing(self) -> None:
        """Wind the healing loops down so the simulator can quiesce.

        Idempotent: stopping twice (or with nothing running) is a no-op.
        The rebalance loop (when configured) winds down with the healing
        loops -- both are the cluster's periodic background machinery.
        """
        for node in self.nodes:
            if isinstance(node, MVCCNode):
                node.healing.stop()
        if self.rebalancer is not None:
            self.rebalancer.stop()
        if self.replication is not None:
            self.replication.stop()

    # ------------------------------------------------------------------
    # Elastic membership (online reconfiguration)
    # ------------------------------------------------------------------
    def add_node(self, node_id: Optional[int] = None):
        """Join a new site online; returns the joinable driver process.

        The driver commits a ``JOINING`` view (the newcomer enters the
        propagation fan-out but owns nothing), bootstraps the joiner's
        vector clock from the peers' frontiers, streams it the shards
        the :class:`ShardMap` steals for it, flips the map, and commits
        the ``ACTIVE`` view; membership needs ``sharding.enabled``.  The
        process's value is True iff the join completed; a joiner that
        crashes mid-way is abandoned with a member-removal view and can
        be re-added later under the same id.

        ``node_id`` defaults to the next dense id (a brand-new site is
        built and wired to the network); passing the id of a previously
        removed site re-joins it.
        """
        self._check_elastic()
        if node_id is None:
            node_id = len(self.nodes)
        if node_id < len(self.nodes):
            if node_id not in self._removed:
                raise ValueError(f"node {node_id} is already a member")
        elif node_id == len(self.nodes):
            node_cls = PROTOCOLS[self.protocol]
            self.nodes.append(
                node_cls(Node(self.sim, node_id, self.network), self.shared)
            )
            if self.replication is not None:
                self.replication.attach(self.nodes[node_id])
        else:
            raise ValueError(
                f"node ids must stay dense: the next id is {len(self.nodes)}"
            )
        self._removed.discard(node_id)
        return self.sim.spawn(
            self._join_driver(node_id), name=f"join:n{node_id}"
        )

    def remove_node(self, node_id: int):
        """Decommission a member gracefully; returns the driver process.

        The driver commits a ``DRAINING`` view (new prepares on the
        victim's keys park on the drain fence), waits for in-flight
        write locks to drain, streams every shard to its new owner,
        flips the :class:`ShardMap`, and commits the removal view
        carrying the victim's retired frontier.  The victim's keys
        stay readable at the victim until the flip and at their new
        owners after it.  The process's value is True iff the
        decommission completed (on failure the member reverts to
        ``ACTIVE``).
        """
        if node_id in self._removed or node_id >= len(self.nodes):
            raise ValueError(f"node {node_id} is not a member")
        self._check_elastic()
        return self.sim.spawn(
            self._leave_driver(node_id), name=f"leave:n{node_id}"
        )

    def _check_elastic(self) -> None:
        """Refuse a join or leave before any view is proposed."""
        if not self.nodes or not isinstance(self.nodes[0], MVCCNode):
            raise ValueError(
                f"protocol {self.protocol!r} does not support elastic membership"
            )
        if not isinstance(self.directory, ShardMap):
            raise ValueError(
                "elastic membership re-places keys through the ShardMap; "
                "set sharding.enabled (the ring and scripted directories "
                "are static)"
            )

    # -- view-change plumbing ------------------------------------------
    def _current_view(self) -> MembershipView:
        """The newest committed view across live, non-removed members."""
        best = None
        for node in self.nodes:
            if not isinstance(node, MVCCNode):
                continue
            if node.node_id in self._removed:
                continue
            if self.network.is_crashed(node.node_id):
                continue
            view = node.membership.view
            if best is None or view.epoch > best.epoch:
                best = view
        if best is None:
            raise RuntimeError("no live member to read the current view from")
        return best

    def _live_proposer(self, view: MembershipView, exclude=()):
        """The lowest live ACTIVE member -- the view-change coordinator.

        Falls back to any live member so a cluster mid-transition (all
        survivors DRAINING/JOINING) can still finish its view change.
        """
        def usable(member: int) -> bool:
            return (
                member not in exclude
                and member not in self._removed
                and member < len(self.nodes)
                and not self.network.is_crashed(member)
            )

        for member, state in sorted(view.members.items()):
            if state == ACTIVE and usable(member):
                return self.nodes[member]
        for member in sorted(view.members):
            if usable(member):
                return self.nodes[member]
        return None

    def _drive_view(self, derive, exclude=()):
        """Propose-and-collect-acks, retrying across proposer crashes.

        ``derive(current)`` builds the target view from the newest
        committed view (returning None when the change is moot).  Each
        attempt re-reads the current view and re-picks a live proposer,
        so a proposer that crashes mid-round is simply routed around.
        Returns the acked view, or None after ``MAX_ATTEMPTS`` rounds.
        """
        for _attempt in range(MAX_ATTEMPTS):
            current = self._current_view()
            target = derive(current)
            if target is None:
                return None
            proposer = self._live_proposer(current, exclude=exclude)
            if proposer is None:
                return None
            proposer.membership.propose(target)
            yield self.sim.timeout(ACK_TIMEOUT)
            required = {
                member for member in target.fanout_ids
                if member < len(self.nodes)
                and not self.network.is_crashed(member)
            }
            if required <= proposer.membership.acks.get(target.epoch, set()):
                return target
        return None

    def _commit_view(self, view: MembershipView, exclude=()) -> None:
        """Fan out a commit through a live proposer (one-way, idempotent)."""
        proposer = self._live_proposer(view, exclude=exclude)
        if proposer is not None:
            proposer.membership.commit(view)

    # -- join ----------------------------------------------------------
    def _join_driver(self, joiner_id: int):
        joiner = self.nodes[joiner_id]

        def derive_joining(current: MembershipView):
            if current.state_of(joiner_id) is not None:
                return None  # already a member: duplicate add
            return current.with_member(joiner_id, JOINING)

        acked = yield from self._drive_view(derive_joining)
        if acked is None:
            self._removed.add(joiner_id)
            return False
        self._commit_view(acked, exclude=(joiner_id,))
        # Bootstrap and handoff run in a subprocess so a joiner crash
        # cannot strand the driver on an RPC that will never settle.
        deadline = self.sim.now + HANDOFF_TIMEOUT
        worker = self.sim.spawn(
            self._join_work(joiner_id, acked), name=f"join-work:n{joiner_id}"
        )
        while not worker.triggered:
            if self.network.is_crashed(joiner_id) or self.sim.now >= deadline:
                yield from self._abandon_join(joiner_id)
                return False
            yield self.sim.timeout(ACK_TIMEOUT)
        if worker.value is not True:
            yield from self._abandon_join(joiner_id)
            return False

        def derive_active(current: MembershipView):
            if current.state_of(joiner_id) != JOINING:
                return None
            members = dict(current.members)
            members[joiner_id] = ACTIVE
            retired = dict(current.retired)
            retired.pop(joiner_id, None)
            return MembershipView(current.epoch + 1, members, retired)

        acked = yield from self._drive_view(derive_active)
        if acked is None:
            # Undo the ownership flip before abandoning: the joiner must
            # not keep key ranges outside the committed membership.
            self.directory.remove_node(joiner_id)
            yield from self._abandon_join(joiner_id)
            return False
        self._commit_view(acked)
        if self.tracer._enabled:
            self.tracer.emit(joiner_id, "join_complete", epoch=acked.epoch)
        return True

    def _join_work(self, joiner_id: int, view: MembershipView):
        """Bootstrap a JOINING member: clock catch-up, then shard handoff."""
        joiner = self.nodes[joiner_id]
        incarnation = joiner._incarnation
        # The joiner is in the fan-out: wait for it to apply the view.
        while joiner.membership.view.epoch < view.epoch:
            if joiner_id in self._removed:
                return False  # the driver abandoned this join meanwhile
            yield self.sim.timeout(ACK_TIMEOUT)
        joiner.healing.start()
        # Clock-only bootstrap: adopt every origin's committed frontier
        # (the joiner owns no keys yet, so frontiers are all it needs).
        targets, _, _ = yield from joiner.healing.collect_frontiers()
        yield from joiner.healing.pull(targets)
        self.tracer.emit(
            joiner_id, "join_bootstrap", clock=joiner.site_vc.to_tuple()
        )
        # Shard handoff: every key the widened map moves from an old
        # owner to the joiner.  Each donor's fence stays up until the
        # ACTIVE view commit -- the flip below waits for all of them.
        ring = list(view.ring_ids)
        new_dir = self.directory.with_nodes(sorted(set(ring) | {joiner_id}))
        for owner_id in ring:
            owner = self.nodes[owner_id]
            moved = sorted(
                (
                    key for key in owner.store.keys()
                    if new_dir.site(key) == joiner_id
                ),
                key=repr,
            )
            if not moved:
                continue
            shipped = yield from fenced_handoff(
                owner, {joiner_id: moved}, hold=True
            )
            if not shipped or joiner._incarnation != incarnation:
                return False
        if joiner_id in self._removed:
            return False  # the driver abandoned this join meanwhile
        # Atomic ownership flip: every node routes through this shared
        # directory, so the in-place widen is the cut-over point.
        self.directory.add_node(joiner_id)
        return True

    def _abandon_join(self, joiner_id: int):
        """Remove a part-way joiner (abandoned join: no retired entry)."""
        self._removed.add(joiner_id)
        self.nodes[joiner_id].healing.stop()

        yield from self._commit_removal(joiner_id, final_seq=None)
        if self.tracer._enabled:
            self.tracer.emit(joiner_id, "join_abandoned")

    def _commit_removal(self, member_id: int, final_seq: Optional[int]):
        """Drive and commit the view that drops ``member_id``."""

        def derive(current: MembershipView):
            if current.state_of(member_id) is None:
                return None
            return current.without_member(member_id, final_seq=final_seq)

        acked = yield from self._drive_view(derive, exclude=(member_id,))
        if acked is None:
            # Force the removal through anyway: commit is one-way and
            # idempotent.
            current = self._current_view()
            if current.state_of(member_id) is not None:
                acked = current.without_member(member_id, final_seq=final_seq)
        if acked is not None:
            self._commit_view(acked, exclude=(member_id,))

    # -- leave ---------------------------------------------------------
    def _leave_driver(self, victim_id: int):
        victim = self.nodes[victim_id]

        def derive_draining(current: MembershipView):
            if current.state_of(victim_id) != ACTIVE:
                return None
            if len(current.ring_ids) <= 1:
                return None  # refuse to drain the last key owner
            return current.with_member(victim_id, DRAINING)

        acked = yield from self._drive_view(derive_draining, exclude=(victim_id,))
        if acked is None:
            return False
        self._commit_view(acked)
        deadline = self.sim.now + HANDOFF_TIMEOUT
        while victim.membership.view.epoch < acked.epoch:
            if self.sim.now >= deadline:
                yield from self._revert_drain(victim_id)
                return False
            yield self.sim.timeout(ACK_TIMEOUT)
        # Drain and hand every shard to the smaller map's new owners:
        # in-flight prepares on the victim's keys settle through their
        # Decides, new ones park on the drain fence (up since the
        # DRAINING commit, held until the removal below).  Reads keep
        # being served here throughout.
        ring = [m for m in acked.ring_ids if m != victim_id]
        new_dir = self.directory.with_nodes(ring)
        by_owner: Dict[int, list] = {}
        for key in sorted(victim.store.keys(), key=repr):
            by_owner.setdefault(new_dir.site(key), []).append(key)
        shipped = yield from fenced_handoff(victim, by_owner, hold=True)
        if not shipped:
            yield from self._revert_drain(victim_id)
            return False
        final_seq = victim.curr_seq_no
        # Atomic ownership flip, then the removal view.  The commit
        # lifts the survivors' fences; the victim is no longer in the
        # fan-out, so the driver lifts its fences by hand -- parked
        # prepares wake, re-check the flipped directory, and vote
        # "moved", sending their coordinators to the new owners.
        self.directory.remove_node(victim_id)

        yield from self._commit_removal(victim_id, final_seq)
        victim.fence.lower_every_key()
        victim.healing.stop()
        self._removed.add(victim_id)
        self.tracer.emit(victim_id, "drain_complete", final_seq=final_seq)
        return True

    def _revert_drain(self, victim_id: int):
        """Put a draining member back to ACTIVE (decommission failed)."""

        def derive(current: MembershipView):
            if current.state_of(victim_id) != DRAINING:
                return None
            return current.with_member(victim_id, ACTIVE)

        acked = yield from self._drive_view(derive)
        if acked is not None:
            self._commit_view(acked)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> BaseProtocolNode:
        """The protocol node with the given id."""
        return self.nodes[node_id]

    def spawn(self, gen, name: Optional[str] = None):
        """Start a simulated process on this cluster; returns it (joinable)."""
        return self.sim.spawn(gen, name=name)

    def run(self, until: Optional[float] = None) -> float:
        """Run the cluster until quiescence or ``until`` virtual seconds.

        Delegates to the transport's pump: the simulator backend is
        exactly ``sim.run(until)``; the socket backend interleaves the
        simulator with real network I/O until the virtual deadline.
        """
        return self.network.pump(until=until)

    def run_process(self, gen, name: Optional[str] = None):
        """Spawn ``gen``, run until it finishes, and return its value."""
        proc = self.sim.spawn(gen, name=name)
        # Register as a joiner so a failure re-raises below as the original
        # exception instead of surfacing as an unhandled SimulationCrash.
        proc.add_callback(lambda _event: None)
        self.network.pump(stop=proc)
        if not proc.triggered:
            raise RuntimeError(
                f"process {proc.name!r} never finished: simulation deadlocked"
            )
        return proc.value

    def close(self) -> None:
        """Release the transport's external resources (sockets, threads).

        A no-op on the simulator backend; socket clusters must be closed
        (or used as a context manager) so the I/O thread and listener
        shut down cleanly.  Idempotent.
        """
        self.network.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transaction facade
    # ------------------------------------------------------------------
    def txn(
        self,
        fn,
        node: int = 0,
        read_only: bool = False,
        profile: Optional[str] = None,
    ):
        """Generator subroutine running ``fn`` as one transaction.

        ``fn`` receives a :class:`TxnHandle`; a generator body is driven
        to completion (so it can ``yield from txn.read(...)``), a plain
        function body may only ``txn.write``.  Unless the body already
        committed or rolled back, the transaction is committed on the
        way out.  Returns a :class:`TxnResult`.  Use this form to
        compose several transactions inside one simulated process;
        :meth:`run_txn` is the run-to-quiescence wrapper around it.
        """
        protocol_node = self.nodes[node]
        handle = TxnHandle(
            protocol_node,
            protocol_node.begin(is_read_only=read_only, profile=profile),
        )
        value = fn(handle)
        if hasattr(value, "__next__"):
            value = yield from value
        if not handle.finished:
            yield from handle.commit()
        return TxnResult(handle.committed, value, handle.txn_id)

    def run_txn(
        self,
        fn,
        node: int = 0,
        read_only: bool = False,
        profile: Optional[str] = None,
    ) -> TxnResult:
        """Run one transaction to quiescence and return its result.

        The quickstart path::

            def transfer(txn):
                balance = yield from txn.read("alice")
                txn.write("alice", balance - 10)
                txn.write("bob", 10)

            result = cluster.run_txn(transfer)
            assert result.committed
        """
        return self.run_process(
            self.txn(fn, node=node, read_only=read_only, profile=profile),
            name=f"run_txn:n{node}",
        )

    # ------------------------------------------------------------------
    # Post-run analysis
    # ------------------------------------------------------------------
    def version_catalog(self) -> VersionCatalog:
        """(key, vid) -> (origin, seq, writer txn) across all nodes."""
        return version_catalog_of(self.nodes)

    def finalized_history(self) -> History:
        """The recorded history with write vids resolved from the catalog
        (:func:`resolve_write_vids`)."""
        if self.history is None:
            raise RuntimeError("history recording was not enabled")
        return resolve_write_vids(self.history, self.version_catalog())

    # ------------------------------------------------------------------
    # Invariant probes (tests)
    # ------------------------------------------------------------------
    def total_vas_entries(self) -> int:
        """Version-access-set entries across all nodes (invariant probe)."""
        total = 0
        for node in self.nodes:
            if isinstance(node, MVCCNode):
                total += node.store.vas_total_entries()
        return total

    def any_locks_held(self) -> bool:
        """True if any per-key lock or place in line is held (invariant probe)."""
        return any(
            node.locks.any_locked()
            or (isinstance(node, MVCCNode) and node.line.any_locked())
            for node in self.nodes
        )

    def cpu_utilization(self, elapsed: Optional[float] = None):
        """Per-node mean CPU utilisation over ``elapsed`` virtual seconds
        (defaults to the whole run so far)."""
        window = elapsed if elapsed is not None else self.sim.now
        return [node.cpu.utilization(window) for node in self.nodes]

    def site_clocks(self):
        """Per-node siteVC tuples (MVCC protocols only), for assertions."""
        return [
            node.site_vc.to_tuple()
            for node in self.nodes
            if isinstance(node, MVCCNode)
        ]

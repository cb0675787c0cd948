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

from itertools import islice
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.cluster.directory import LOAD_CHUNK, ConsistentHashDirectory, Directory, ShardMap
from repro.cluster.node import Node
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

        Pulls ``items`` in chunks of :data:`LOAD_CHUNK`, never holding the
        keyspace; places each chunk in one uncached batch and hands each node
        its bucket in one bulk load.  A replicated key also goes to its shard's
        backups, so every replica's chain starts identical.  Every node gets
        its keys, owned and backed up alike, in item order: what key-by-key
        :meth:`load` calls install."""
        nodes, loaded, items = self.nodes, 0, iter(items)
        while chunk := list(islice(items, LOAD_CHUNK)):
            buckets = [[] for _ in nodes]
            keys = [key for key, _value in chunk]
            if self.replication is None:
                adds = [bucket.append for bucket in buckets]
                for item, owner in zip(chunk, self.directory.place_many(keys)):
                    adds[owner](item)
            else:  # one hash names the owner and the backups
                placement = self.replication.placement
                fanout = [
                    [buckets[site].append for site in (owner, *placement.get(shard, ()))]
                    for shard, owner in enumerate(self.directory.owners())
                ]
                for item, shard in zip(chunk, self.directory.hash_shards(keys)):
                    for add in fanout[shard]:
                        add(item)
            for node, bucket in zip(nodes, buckets):
                if bucket:
                    node.load_many(bucket)
            loaded += len(chunk)
        return loaded

    # ------------------------------------------------------------------
    # Self-healing lifecycle
    # ------------------------------------------------------------------
    def start_healing(self) -> None:
        """Spawn the configured healing loops on every node.

        Idempotent: nodes already running their loops are left alone
        (the per-node daemon guards itself).
        """
        for node in self.nodes:
            if isinstance(node, MVCCNode):
                node.healing.start()
        if self.replication is not None:
            self.replication.start()

    def stop_healing(self) -> None:
        """Wind the healing loops down so the simulator can quiesce.

        Idempotent: stopping twice (or with nothing running) is a no-op.
        """
        for node in self.nodes:
            if isinstance(node, MVCCNode):
                node.healing.stop()
        if self.replication is not None:
            self.replication.stop()

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

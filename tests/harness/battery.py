"""The one scaffold every fault battery builds, drives and fingerprints
through.

A battery case is a pair: a scenario run with its fault and the same
scenario run without it, ending on a fingerprint the two must share
(:func:`assert_converges`).  What makes a pair comparable bit for bit is
the same in every suite:

* :func:`build` -- one cluster shape (a 5 ms prepared lease, whole chains
  so the lost-write audit sees every key, 5 us of jitter, RPC deadlines
  armed), keys ``k0..`` loaded at 0, and its :class:`Nemesis`;
* :func:`drive` -- serialized read-modify-write plans on a stepped clock,
  a settle pause after each commit, so per-key install order is the same
  with and without the fault; :func:`run_plan` / :func:`run_txn` run each
  transaction to quiescence where no background loop is armed;
* fault points chosen by the protocol, not the clock (:class:`TracePoint`,
  :func:`crash_at`), and :func:`fault` for a transition applied now;
* the fingerprints: every node's durable state (:func:`fingerprints`), or
  every key's chain at its current owner when a fault moves ownership
  (:func:`authoritative_fingerprint`).

The tracer fires listeners synchronously at the emitting node's exact
protocol point, so a case can inject a fault *between* two protocol steps
with zero timing guesswork; the same seed reaches the same point at the
same virtual instant.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro import Cluster, ClusterConfig, NetworkConfig, RpcConfig
from repro.faults import (
    CRASH_DURABLE,
    HEAL,
    PARTITION,
    RESTART,
    FaultEvent,
    Nemesis,
)
from repro.metrics.events import COUNTS
from repro.net.message import MessageType
from repro.net.rpc import RpcTimeoutError
from repro.storage.wal import CheckpointRecord, store_fingerprint

#: Per-commit settle pause: long enough for a commit's full fan-out --
#: its replication records included -- to drain.
SETTLE = 1e-3


def seeds(variable, default="7,11"):
    """The seed row a battery sweeps: ``variable`` (comma-separated) from
    the environment, so CI runs a matrix without editing the file."""
    return tuple(int(s) for s in os.environ.get(variable, default).split(","))


def keys(count):
    return [f"k{i}" for i in range(count)]


def build(
    seed,
    protocol="fwkv",
    *,
    num_nodes=4,
    num_keys=16,
    directory=None,
    rpc=None,
    **config,
):
    """A history-recording cluster with ``keys(num_keys)`` loaded at 0,
    and its nemesis.  ``rpc`` defaults to a 1.5 ms deadline with three
    attempts; ``config`` sets any other :class:`ClusterConfig` field,
    ``network`` included."""
    config.setdefault("prepared_lease", 5e-3)
    config.setdefault("gc_enabled", False)
    config.setdefault("network", NetworkConfig(
        jitter=5e-6,
        rpc=rpc or RpcConfig(request_timeout=1.5e-3, max_attempts=3),
    ))
    cluster = Cluster(
        protocol,
        ClusterConfig(num_nodes=num_nodes, seed=seed, **config),
        directory=directory,
        record_history=True,
    )
    for key in keys(num_keys):
        cluster.load(key, 0)
    return cluster, Nemesis(cluster)


def keys_at(cluster, site, pool):
    """The keys of ``pool`` whose current owner is ``site``."""
    return [key for key in pool if cluster.directory.site(key) == site]


def keys_off(cluster, site, pool):
    """The keys of ``pool`` that ``site`` does not own, in sorted order."""
    return sorted(key for key in pool if cluster.directory.site(key) != site)


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def rmw_plan(rng, coordinators, count, pool):
    """``count`` ``(coordinator, keys)`` steps, coordinators round-robin,
    each over two keys drawn from ``pool``."""
    return [
        (coordinators[n % len(coordinators)], rng.sample(pool, 2))
        for n in range(count)
    ]


def spawn_plan(cluster, plan, *, settle=SETTLE, read_only=False):
    """Start serialized ``(coordinator, keys)`` transactions: each reads its
    keys and, unless ``read_only``, writes each back plus one, then pauses
    ``settle``.  Returns ``(process, outcomes)`` -- one ``(ok, keys,
    values)`` per transaction -- without running the clock, so a fault or
    reconfiguration can be launched while the traffic is in flight."""
    outcomes = []

    def driver():
        for coordinator, step in plan:
            node = cluster.node(coordinator)
            txn = node.begin(is_read_only=read_only)
            values = []
            for key in step:
                values.append((yield from node.read(txn, key)))
            if not read_only:
                for key, value in zip(step, values):
                    node.write(txn, key, value + 1)
            ok = yield from node.commit(txn)
            outcomes.append((ok, list(step), values))
            yield cluster.sim.timeout(settle)

    return cluster.spawn(driver(), name="traffic"), outcomes


def drive(cluster, plan, *, budget=None, read_only=False):
    """Run a plan to completion on a stepped clock (background loops never
    quiesce); every transaction must commit.  Returns the outcomes.

    The default ``budget`` gives each transaction 1 ms past its settle
    pause and the plan 1 ms of slack -- 2 ms and 10 ms under replication
    (backup round trips, a failover's parked retries)."""
    _process, outcomes = spawn_plan(cluster, plan, read_only=read_only)
    room, slack = (
        (2e-3, 10e-3) if cluster.config.replication.enabled else (1e-3, 1e-3)
    )
    default = len(plan) * (SETTLE + room) + slack
    cluster.run(until=cluster.sim.now + (budget or default))
    assert len(outcomes) == len(plan), "traffic driver did not finish in time"
    assert all(ok for ok, _, _ in outcomes), [o for o in outcomes if not o[0]]
    return outcomes


def settle(cluster, for_=10e-3):
    cluster.run(until=cluster.sim.now + for_)


def rmw(cluster, coordinator, step, *, attempts=8, before_commit=None):
    """Generator: read-modify-write the keys of ``step`` at ``coordinator``,
    retried 100 us apart until it commits or ``attempts`` run out; an
    attempt whose RPC timed out is rolled back.  Returns ``(ok, txn)`` of
    the last attempt -- the transaction even on failure, so a case can
    assert its writes exist nowhere."""
    node = cluster.node(coordinator)
    for _ in range(attempts):
        txn = node.begin(is_read_only=False)
        try:
            values = []
            for key in step:
                values.append((yield from node.read(txn, key)))
            for key, value in zip(step, values):
                node.write(txn, key, value + 1)
            if before_commit is not None:
                before_commit()
            ok = yield from node.commit(txn)
        except RpcTimeoutError:
            node.abort(txn)
            ok = False
        if ok:
            return True, txn
        yield cluster.sim.timeout(100e-6)
    return False, txn


def run_txn(cluster, coordinator, step, *, attempts=8):
    """:func:`rmw` run to quiescence (no background loop may be armed)."""
    return cluster.run_process(rmw(cluster, coordinator, step, attempts=attempts))


def run_plan(cluster, plan):
    """Each ``(coordinator, keys)`` step as one :func:`run_txn`; all must
    commit.  Returns the transactions."""
    txns = []
    for coordinator, step in plan:
        ok, txn = run_txn(cluster, coordinator, step)
        assert ok, (coordinator, step)
        txns.append(txn)
    return txns


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
def fault(nemesis, kind, a, b=None):
    """Apply one fault transition now."""
    nemesis.apply(FaultEvent(nemesis.sim.now, kind, a, b))


def isolate(nemesis, node, peers, kind=PARTITION):
    """Cut (``kind=HEAL``: mend) both directions of every link between
    ``node`` and ``peers``, now."""
    for peer in peers:
        if peer != node:
            fault(nemesis, kind, node, peer)
            fault(nemesis, kind, peer, node)


def heal(nemesis, node, peers):
    isolate(nemesis, node, peers, HEAL)


def slow_shipments(cluster, seconds=0.6e-3):
    """Every shard shipment spends ``seconds`` on the wire, as a large one
    would: a fault timed into a handoff lands while its chains travel."""
    cluster.network.delay_policy = lambda envelope: (
        seconds if envelope.msg_type == MessageType.SHARD_SHIPMENT else 0.0
    )


class TracePoint:
    """A one-shot action fired at the n-th matching trace emit.

    Matching is by trace ``kind`` plus optional emitting ``node`` and
    ``when(record)`` predicate.  The tracer only
    notifies listeners for *enabled* kinds (hot protocol paths skip
    disabled emits entirely), so the hooked kind is enabled here on the
    caller's behalf.
    """

    def __init__(
        self,
        cluster,
        kind: str,
        action: Callable,
        *,
        node: Optional[int] = None,
        count: int = 1,
        when: Optional[Callable] = None,
    ) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.cluster = cluster
        self.kind = kind
        self.action = action
        self.node = node
        self.when = when
        self.remaining = count
        self.fired_at: Optional[float] = None
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
        if self.when is not None and not self.when(record):
            return
        self.remaining -= 1
        if self.remaining:
            return
        self.cancel()
        self.fired_at = self.cluster.sim.now
        self.action(record)

    def cancel(self) -> None:
        """Detach the listener (idempotent)."""
        try:
            self.cluster.tracer.remove_listener(self._on_record)
        except ValueError:
            pass


def crash_at(cluster, nemesis, victim, kind, *, node=None):
    """Durably crash ``victim`` at the first matching protocol point.

    The crash applies at the emit instant, so any message already sent
    to the victim but not yet delivered is destroyed (in-flight traffic
    drops at delivery time), and the victim's WAL freezes there.
    """
    return TracePoint(
        cluster, kind, lambda _record: fault(nemesis, CRASH_DURABLE, victim),
        node=node,
    )


def restart(cluster, nemesis, victim):
    """Restart ``victim`` now; returns its closed :class:`DownWindow`.

    For a durable crash the window carries the drop accounting and the
    spawned recovery process; run the cluster to quiescence afterwards
    to let recovery finish.
    """
    fault(nemesis, RESTART, victim)
    for window in reversed(nemesis.down_windows):
        if window.node == victim:
            return window
    return None


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def node_fingerprint(protocol_node):
    """A comparable digest of one node's durable state: the full
    version-chain contents, the ``siteVC`` and the next coordinator
    sequence number -- what a recovered or healed node must rebuild
    bit-identically to a never-faulted control."""
    return (
        store_fingerprint(protocol_node.store),
        protocol_node.site_vc.to_tuple(),
        protocol_node.curr_seq_no,
    )


def fingerprints(cluster):
    return [node_fingerprint(node) for node in cluster.nodes]


def assert_one_clock(cluster, nodes=None):
    """The nodes (default: all) have converged on one ``siteVC``."""
    clocks = {
        node.site_vc.to_tuple() for node in cluster.nodes
        if nodes is None or node.node_id in nodes
    }
    assert len(clocks) == 1, clocks


def assert_fixed_width(cluster):
    """Every clock is ``num_nodes`` wide: each node's ``siteVC``, every
    stored version's clock and its newest checkpoint's ``siteVC``."""
    width = cluster.config.num_nodes
    for node in cluster.nodes:
        assert len(node.site_vc) == width
        for _key, _base, versions in node.store.snapshots():
            assert {len(version[1]) for version in versions} == {width}
        checkpoints = [
            record for record in (node.wal.records() if node.wal else ())
            if isinstance(record, CheckpointRecord)
        ]
        if checkpoints:
            assert len(checkpoints[-1].site_vc) == width


def assert_counters_add_up(cluster):
    """Traced in full from the start: each event-fed counter is its records' sum."""
    added = dict.fromkeys((c for counts in COUNTS.values() for c, _ in counts), 0)
    for record in cluster.tracer.records:
        for counter, field in COUNTS.get(record.event, ()):
            added[counter] += 1 if field is None else record.details[field]
    assert not cluster.tracer.dropped
    assert added == {counter: cluster.metrics.counters[counter] for counter in added}


def chain_tuples(node, key):
    if key not in node.store:
        return ()
    return tuple(
        (v.vid, v.origin, v.seq, v.value, v.vc.to_tuple(), v.writer_txn)
        for v in node.store.chain(key)
    )


def authoritative_fingerprint(cluster, pool):
    """Every key's full chain at its *current* directory owner: a
    failover moves ownership and leaves stale chains behind by design,
    and what must match is the state the directory serves."""
    return {
        key: chain_tuples(cluster.node(cluster.directory.site(key)), key)
        for key in sorted(pool)
    }


def assert_backups_verbatim(cluster, pool, *, skip=()):
    """Every live backup holds its primary's chains bit-for-bit."""
    for key in pool:
        reference = chain_tuples(cluster.node(cluster.directory.site(key)), key)
        assert reference, key
        for backup in cluster.replication.backups_for_key(key):
            if backup not in skip:
                assert chain_tuples(cluster.node(backup), key) == reference, key


def assert_converges(run, *args, **scenario):
    """The pair every battery case is: ``run(..., faulty=True)`` ends on
    the fingerprint of ``run(..., faulty=False)``, its never-faulted
    control.  Returns the faulty run's."""
    faulty = run(*args, faulty=True, **scenario)
    assert faulty == run(*args, faulty=False, **scenario)
    return faulty


def assert_replays(run, *args, **scenario):
    """A faulty run is a pure function of its seed."""
    assert run(*args, faulty=True, **scenario) == run(
        *args, faulty=True, **scenario
    )

"""Helpers for scripted protocol scenarios (the paper's Figures 1-4)."""

from repro import Cluster, ClusterConfig, NetworkConfig
from repro.cluster import ExplicitDirectory, ShardMap
from repro.core import mvcc_node
from repro.sim.rng import make_rng

from tests.harness.oracle import increment_client


def make_cluster(
    protocol,
    num_nodes,
    placement,
    initial=None,
    propagate_delay=0.0,
    record_history=True,
    seed=0,
):
    """A cluster with explicit key placement and optional Propagate delay.

    ``placement`` maps key -> preferred node; every placed key is loaded
    with ``initial.get(key, 0)``.
    """
    network = NetworkConfig(jitter=0.0)
    if propagate_delay:
        network = network.with_propagate_delay(propagate_delay)
    config = ClusterConfig(num_nodes=num_nodes, seed=seed, network=network)
    cluster = Cluster(
        protocol,
        config,
        directory=ExplicitDirectory(dict(placement)),
        record_history=record_history,
    )
    initial = initial or {}
    for key in placement:
        cluster.load(key, initial.get(key, 0))
    return cluster


def update_txn(cluster, node_id, writes, reads=(), delay=0.0):
    """Generator: run one update transaction; returns (ok, read_values)."""
    node = cluster.node(node_id)
    if delay:
        yield cluster.sim.timeout(delay)
    txn = node.begin(is_read_only=False)
    observed = {}
    for key in reads:
        observed[key] = yield from node.read(txn, key)
    for key, value in writes.items():
        node.write(txn, key, value)
    ok = yield from node.commit(txn)
    return ok, observed


def read_only_txn(cluster, node_id, keys, delay=0.0):
    """Generator: run one read-only transaction; returns observed dict."""
    node = cluster.node(node_id)
    if delay:
        yield cluster.sim.timeout(delay)
    txn = node.begin(is_read_only=True)
    observed = {}
    for key in keys:
        observed[key] = yield from node.read(txn, key)
    ok = yield from node.commit(txn)
    assert ok, "read-only transactions never abort"
    return observed


def retry_update(cluster, node_id, writes, reads=(), delay=0.0, backoff=100e-6):
    """Generator: retry an update transaction until it commits.

    Backoff is jittered (seeded per node) so two conflicting retry loops
    cannot livelock in deterministic lockstep.  Returns
    (attempts, read_values_of_last_attempt).
    """
    from repro.sim.rng import make_rng

    rng = make_rng(cluster.config.seed, "retry", node_id, repr(sorted(writes, key=repr)))
    node = cluster.node(node_id)
    if delay:
        yield cluster.sim.timeout(delay)
    attempts = 0
    while True:
        attempts += 1
        txn = node.begin(is_read_only=False)
        observed = {}
        for key in reads:
            observed[key] = yield from node.read(txn, key)
        for key, value in writes.items():
            if callable(value):
                node.write(txn, key, value(observed))
            else:
                node.write(txn, key, value)
        ok = yield from node.commit(txn)
        if ok:
            return attempts, observed
        yield cluster.sim.timeout(backoff * (0.5 + rng.random()))


def commit_log(cluster):
    """The commit log as comparable tuples (ids, placement, ops, clocks)."""
    return [
        (r.txn_id, r.node_id, r.is_read_only, r.seq_no, r.commit_vc,
         tuple((op.kind, op.key, op.vid) for op in r.ops))
        for r in cluster.finalized_history()
    ]


def run_sequential(cluster, keys, rng, each_round=lambda: None):
    """Thirty seeded transactions, each run to quiescence before the next.

    Returns ``(commit_log, site_vc_history)``: the history holds every
    node's siteVC tuple at each quiescence point.
    """
    site_vc_history = []
    for round_no in range(30):
        each_round()
        node_id = rng.randrange(len(cluster.nodes))
        chosen = rng.sample(keys, 2)
        if rng.random() < 0.4:
            cluster.spawn(read_only_txn(cluster, node_id, chosen))
        else:
            writes = {key: round_no for key in chosen}
            cluster.spawn(update_txn(cluster, node_id, writes, reads=chosen))
        cluster.run()
        site_vc_history.append(tuple(cluster.site_clocks()))
    return commit_log(cluster), site_vc_history


def modulo_cluster(protocol, keys, network=None, num_nodes=3, **config):
    """Keys placed one shard per node (``ShardMap(range(n), n)``), every
    one of ``keys`` loaded at 0, history on; ``config`` is the rest of
    ``ClusterConfig``."""
    network = network or NetworkConfig(jitter=0.0)
    config = ClusterConfig(num_nodes=num_nodes, network=network, **config)
    cluster = Cluster(
        protocol, config, directory=ShardMap(range(num_nodes), num_nodes),
        record_history=True,
    )
    for key in keys:
        cluster.load(key, 0)
    return cluster


def spawn_increment_clients(
    cluster, keys, label, clients=2, txns=40, read_only=0.4,
    backoff=(50e-6, 150e-6), pause=100e-6,
):
    """``clients`` seeded increment clients per node."""
    for node_id in range(len(cluster.nodes)):
        for client_id in range(clients):
            rng = make_rng(cluster.config.seed, label, node_id, client_id)
            cluster.spawn(increment_client(
                cluster, node_id, rng, keys, txns, read_only=read_only,
                backoff=backoff, pause=pause,
            ))


def shrink_gc(monkeypatch, trigger, keep, min_age):
    """A GC policy that reclaims within a short run (the MVCC node reads
    the constants at every install)."""
    monkeypatch.setattr(mvcc_node, "GC_TRIGGER_LENGTH", trigger)
    monkeypatch.setattr(mvcc_node, "GC_KEEP_VERSIONS", keep)
    monkeypatch.setattr(mvcc_node, "GC_MIN_AGE", min_age)

"""The one oracle, as every suite asserts it, and the increment workload
whose sum :func:`assert_increments_add_up` audits."""

from itertools import count

from repro.metrics import check_fresh, check_psi
from repro.net.rpc import RpcTimeoutError
from repro.system import resolve_write_vids


def increment_client(
    cluster, node_id, rng, keys, txns, read_only, backoff, pause, attempts=None
):
    """A closed-loop client: ``txns`` transactions over two of ``keys``,
    read-only with probability ``read_only`` and else adding one to both,
    each retried after ``rng.uniform(*backoff)`` until it commits, then
    ``rng.uniform(0, pause)`` of think time.  An attempt whose RPC timed
    out is rolled back; after ``attempts`` (if given) the client abandons
    the transaction, so a run under a long-lived fault still quiesces."""
    node = cluster.node(node_id)
    for _ in range(txns):
        chosen = rng.sample(keys, 2)
        is_read_only = rng.random() < read_only
        for _attempt in range(attempts) if attempts else count():
            txn = node.begin(is_read_only=is_read_only)
            try:
                values = []
                for key in chosen:
                    values.append((yield from node.read(txn, key)))
                if not is_read_only:
                    for key, value in zip(chosen, values):
                        node.write(txn, key, value + 1)
                ok = yield from node.commit(txn)
            except RpcTimeoutError:
                node.abort(txn)
                ok = False
            if ok:
                break
            yield cluster.sim.timeout(rng.uniform(*backoff))
        yield cluster.sim.timeout(rng.uniform(0, pause))


def assert_verdict(history, catalog, fresh):
    """``check_psi`` -- and, for FW-KV (``fresh``), ``check_fresh`` -- over
    a history wherever it ran; returns it."""
    for result in [check_psi(history, catalog)] + ([check_fresh(history)] if fresh else []):
        assert result.ok, result.violations[:3]
    return history


def assert_psi(cluster, *, quiescent=False):
    """The verdict over ``cluster``'s finalized history.  ``quiescent``: the
    run was driven until nothing was in flight, so no lock may be held and
    an acknowledged write found in no store is lost (``lost_writes``)."""
    catalog = cluster.version_catalog()
    history = resolve_write_vids(cluster.history, catalog)
    assert_verdict(history, catalog, fresh=cluster.protocol == "fwkv")
    if quiescent:
        assert not history.lost_writes, history.lost_writes[:5]
        assert not cluster.any_locks_held()
    return history


def assert_increments_add_up(cluster, history):
    """No lost update, by value -- which GC cannot hide from: when every
    update adds one to two keys, the latest values sum to twice the
    committed updates."""
    total = sum(
        node.store.chain(key).latest.value
        for node in cluster.nodes
        for key in node.store.keys()
    )
    assert total == 2 * len(history.committed_updates())

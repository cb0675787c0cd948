"""FW-KV's line (DESIGN.md 4, "What a lost conflict costs"): a retry
reads the key it lost first, and in line at the key's home.

The line is advice -- ``_validate`` under the write locks decides every
commit -- so the tests come in two kinds: the hand-over works as written
(FIFO, lease, cap, one place per transaction), and nothing breaks when it
does not (the grant-all run).
"""

import pytest

from repro import Cluster, ClusterConfig, NetworkConfig, RpcConfig, RunConfig
from repro.cluster import ExplicitDirectory
from repro.harness import run_experiment
from repro.harness.runner import client_loop
from repro.net.message import MessageType
from repro.storage import LockTable
from repro.workloads import YCSBConfig, YCSBWorkload
from repro.workloads.base import TxnProgram, Workload
from tests.harness.oracle import assert_psi
from tests.integration.scenario_tools import make_cluster

HOME = 1  # the contended key's preferred site in the scripted scenarios


def queued_increment(cluster, node_id, order, delay, key="x"):
    """Generator: one retry as ``client_loop`` runs it -- read ``key`` in
    line, increment it, commit."""
    node = cluster.node(node_id)
    yield cluster.sim.timeout(delay)
    txn = node.begin(is_read_only=False)
    value = yield from node.read(txn, key, queue=True)
    order.append((node_id, value, cluster.sim.now))
    node.write(txn, key, value + 1)
    return (yield from node.commit(txn))


def test_three_waiters_are_served_in_arrival_order_each_reading_its_predecessor():
    cluster = make_cluster("fwkv", 4, {"x": HOME})
    order = []
    # Arrivals 5 us apart: all three stand in line long before the first
    # one's prepare comes back (a read is a ~40 us round trip).
    procs = [
        cluster.spawn(queued_increment(cluster, node_id, order, delay))
        for node_id, delay in ((3, 0.0), (0, 5e-6), (2, 10e-6))
    ]
    cluster.run()
    assert [p.value for p in procs] == [True, True, True]
    assert [(node_id, value) for node_id, value, _at in order] == [
        (3, 0), (0, 1), (2, 2),
    ]
    assert cluster.node(HOME).store.chain("x").latest.value == 3
    assert cluster.metrics.aborts == 0
    assert cluster.metrics.counters["places_expired"] == 0
    assert not cluster.any_locks_held()


def test_a_head_that_never_prepares_hands_over_by_lease_and_is_counted():
    cluster = make_cluster("fwkv", 3, {"x": HOME})
    order = []

    def wedged():
        node = cluster.node(0)
        txn = node.begin(is_read_only=False)
        yield from node.read(txn, "x", queue=True)
        # ... and never commits: the place is only ever taken back.

    cluster.spawn(wedged())
    successor = cluster.spawn(queued_increment(cluster, 2, order, 10e-6))
    cluster.run()
    lease = cluster.config.lock_timeout
    ((_node, value, served_at),) = order
    assert value == 0 and lease < served_at < lease + 100e-6
    assert successor.value is True
    assert cluster.metrics.counters["places_expired"] == 1
    assert not cluster.any_locks_held()


def timed_cluster(request_timeout, lock_timeout):
    config = ClusterConfig(
        num_nodes=3, lock_timeout=lock_timeout,
        network=NetworkConfig(
            jitter=0.0, rpc=RpcConfig(request_timeout=request_timeout)
        ),
    )
    cluster = Cluster("fwkv", config, directory=ExplicitDirectory({"x": HOME}))
    cluster.load("x", 0)
    return cluster


def test_under_an_rpc_deadline_a_waiter_is_served_as_a_plain_read_at_its_cap():
    """Half-way to the deadline, so the reply is still in time; the waiter
    leaves no ghost in the queue and the wedged head still expires."""
    cluster = timed_cluster(request_timeout=2e-3, lock_timeout=5e-3)
    home = cluster.node(HOME)
    seen = {}

    def wedged():
        node = cluster.node(0)
        txn = node.begin(is_read_only=False)
        yield from node.read(txn, "x", queue=True)

    def waiter():
        node = cluster.node(2)
        yield cluster.sim.timeout(10e-6)
        txn = node.begin(is_read_only=False)
        seen["value"] = yield from node.read(txn, "x", queue=True)
        seen["at"] = cluster.sim.now
        seen["queue"] = home.line.lock_for("x").queue_length
        # Served while the place was someone else's: it yields at commit.
        node.write(txn, "x", 1)
        seen["ok"] = yield from node.commit(txn)
        seen["lost"] = txn.lost_key

    cluster.spawn(wedged())
    cluster.spawn(waiter())
    cluster.run()
    assert seen["value"] == 0
    assert 1e-3 < seen["at"] < 1e-3 + 100e-6  # the cap, not the 5 ms lease
    assert seen["queue"] == 0
    assert (seen["ok"], seen["lost"]) == (False, "x")
    assert cluster.metrics.aborts_by_reason == {"spoken_for": 1}
    assert cluster.network.stats.rpc_timeouts == 0
    assert cluster.metrics.counters["places_expired"] == 1
    assert not cluster.any_locks_held()


@pytest.mark.parametrize("first_is", ["holding", "waiting"])
def test_a_duplicated_read_request_takes_no_second_place(first_is):
    cluster = make_cluster("fwkv", 3, {"x": HOME})
    home = cluster.node(HOME)
    sender = cluster.node(0)
    replies = []

    def scenario():
        if first_is == "waiting":
            # Someone else is at the head, so our first request waits.
            holder = cluster.node(2).begin(is_read_only=False)
            yield from cluster.node(2).read(holder, "x", queue=True)
        txn = sender.begin(is_read_only=False)
        body = sender._read_request(txn, "x", queue=True)
        for _ in range(2):
            event = sender.node.rpc.request(HOME, MessageType.READ_REQUEST, body)
            event.add_callback(lambda e: replies.append((cluster.sim.now, e.value)))
        yield cluster.sim.timeout(200e-6)
        lock = home.line.lock_for("x")
        if first_is == "waiting":
            # One request stands in line; its duplicate was served at once,
            # as an ordinary read of a key that is spoken for.
            assert lock.queue_length == 1 and not lock.held_by(txn.txn_id)
            ((_at, reply),) = replies
            assert reply.spoken_for
        else:
            assert lock.queue_length == 0 and lock.held_by(txn.txn_id)
            assert len(replies) == 2
            assert not any(reply.spoken_for for _at, reply in replies)

    cluster.run_process(scenario())
    cluster.run()
    assert len(replies) == 2
    # Nobody prepared: each place came back by lease, one per transaction.
    expected = 2 if first_is == "waiting" else 1
    assert cluster.metrics.counters["places_expired"] == expected
    assert not cluster.any_locks_held()


# ----------------------------------------------------------------------
# Ten clients read-modify-writing one key
# ----------------------------------------------------------------------
class Counters(Workload):
    """Every transaction increments ``hot`` and one key of its own."""

    name = "counters"
    KEYS = ["hot"] + [f"own{i}" for i in range(10)]

    def load_items(self):
        return [(key, 0) for key in self.KEYS]

    def generate(self, rng, node_id):
        own = self.KEYS[1 + rng.randrange(10)]

        def body(ctx):
            for key in (own, "hot") if rng.random() < 0.5 else ("hot", own):
                value = yield from ctx.read(key)
                ctx.write(key, value + 1)

        return TxnProgram("increment", False, body)


def contended_run(seed=3, duration=8e-3):
    """Five nodes x two clients on :class:`Counters`; returns the cluster
    and, per commit, ``(attempts, committed in line)``."""
    workload = Counters()
    cluster = Cluster(
        "fwkv", ClusterConfig(num_nodes=5, clients_per_node=2, seed=seed),
        record_history=True,
    )
    cluster.load_many(workload.load_items())
    commits = []
    on_commit = cluster.metrics.on_commit

    def recording(txn, latency, attempts):
        commits.append((attempts, txn.in_line))
        on_commit(txn, latency, attempts)

    cluster.metrics.on_commit = recording
    for node_id in cluster.config.node_ids:
        for client_id in range(cluster.config.clients_per_node):
            cluster.spawn(client_loop(
                cluster, node_id, client_id, workload, duration
            ))
    cluster.run()
    return cluster, commits


def assert_every_increment_landed(cluster, commits):
    assert_psi(cluster, quiescent=True)  # a lost update is a one-rw cycle
    latest = {
        key: cluster.node(cluster.directory.site(key)).store.chain(key).latest.value
        for key in Counters.KEYS
    }
    # Every commit incremented ``hot`` once and one own key once.
    assert latest["hot"] == len(commits)
    assert sum(latest.values()) == 2 * len(commits)


def test_ten_clients_on_one_key_hand_it_over_in_line():
    cluster, commits = contended_run()
    assert len(commits) > 25
    assert_every_increment_landed(cluster, commits)
    # A first attempt cannot know it will lose; its retry stands in line
    # and commits there -- unless an attempt that read ``hot`` while the
    # line was still empty steals that turn, which costs one more round.
    assert max(attempts for attempts, _queued in commits) <= 3
    retries = [attempts for attempts, queued in commits if queued]
    assert retries and retries.count(2) >= 0.8 * len(retries)
    reasons = cluster.metrics.aborts_by_reason
    assert set(reasons) <= {"validation", "spoken_for"}
    assert reasons["spoken_for"] > 0
    assert cluster.metrics.counters["places_expired"] == 0


def test_safety_does_not_depend_on_the_line(monkeypatch):
    """Everyone is granted at once and nobody yields: the line does
    nothing, and validation alone still loses no update."""
    monkeypatch.setattr(LockTable, "take_place", lambda *args: None)
    monkeypatch.setattr(LockTable, "spoken_for", lambda *args: False)
    cluster, commits = contended_run()
    assert len(commits) > 10
    assert_every_increment_landed(cluster, commits)
    assert set(cluster.metrics.aborts_by_reason) == {"validation"}


# ----------------------------------------------------------------------
# Who does not stand in line
# ----------------------------------------------------------------------
def zipf_fingerprint(protocol, **config):
    result = run_experiment(
        protocol,
        YCSBWorkload(YCSBConfig(
            num_keys=2_000, read_only_fraction=0.5, distribution="zipf",
            zipf_s=1.1,
        )),
        ClusterConfig(num_nodes=4, clients_per_node=5, seed=11, **config),
        RunConfig(duration=0.02, warmup=0.005),
    )
    return (
        result.metrics["commits"], result.metrics["aborts"],
        result.cluster.sim.executed_count,
    )


def test_a_walter_home_serves_a_queued_request_as_an_ordinary_read():
    cluster = make_cluster("walter", 2, {"x": HOME})
    node = cluster.node(0)
    txn = node.begin(is_read_only=False)
    assert cluster.run_process(node.read(txn, "x", queue=True)) == 0
    assert not cluster.any_locks_held()


@pytest.mark.parametrize("protocol, config, pinned", [
    ("walter", {}, (401, 177, 15166)),
    ("2pc", {}, (416, 230, 23934)),
    ("fwkv", {"fwkv_fresh_update_reads": False}, (499, 183, 17807)),
])
def test_walter_2pc_and_stale_first_reads_run_exactly_as_before(
    protocol, config, pinned
):
    """``(commits, aborts, events)`` as the parent of PR 24 produced them:
    only the protocol whose first update read is fresh queues its retries."""
    assert zipf_fingerprint(protocol, **config) == pinned

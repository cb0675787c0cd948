"""The repair toolkit's primitives, one suite each (``repro.core.repair``).

Their callers -- lease expiry, recovery, gossip, promotion -- are covered
end to end by the chaos, recovery, healing and replication suites; these
cases pin what each primitive promises on its own.
"""

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    DurabilityConfig,
    NetworkConfig,
    RpcConfig,
)
from repro.cluster import ExplicitDirectory, ShardMap
from repro.core.repair import (
    REPAIR_TIMEOUT, TERMINATION_ATTEMPTS, Round, reannounce, repair_rpc,
)
from repro.healing.detector import DEAD_AFTER_TIMEOUTS, SUSPECT_MAX_ATTEMPTS
from repro.storage.wal import DecisionRecord
from repro.core.wire import PrepareBody
from repro.net.message import MessageType

TXN = 77
#: Pause between query rounds when no prepared lease is configured.
ROUND_WAIT = 1e-3


def build(num_nodes=2, placement=None, rpc=None, lease=None, directory=None):
    config = ClusterConfig(
        num_nodes=num_nodes,
        seed=5,
        prepared_lease=lease,
        network=NetworkConfig(
            jitter=0.0,
            rpc=rpc or RpcConfig(request_timeout=1e-3, max_attempts=2),
        ),
    )
    placement = placement or {"x": 1}
    directory = directory or ExplicitDirectory(placement)
    cluster = Cluster("fwkv", config, directory=directory)
    for key in placement:
        cluster.load(key, 0)
    return cluster


# ----------------------------------------------------------------------
# Fence
# ----------------------------------------------------------------------
def test_shard_fence_parks_prepares_only_and_node_fence_parks_both():
    # Reliable channels (no read retries); node 1 owns the one shard.
    cluster = build(rpc=RpcConfig(), directory=ShardMap([1, 0], num_shards=1))
    node = cluster.node(1)
    served = []

    def reader(tag):
        txn = cluster.node(0).begin(is_read_only=True)
        yield from cluster.node(0).read(txn, "x")
        served.append((tag, cluster.sim.now))

    def preparer():
        vote = yield from node._handle_prepare(
            PrepareBody(TXN, 0, {"x": 1}, tuple(node.site_vc))
        )
        served.append(("prepare", cluster.sim.now, vote.ok))

    node.fence.raise_shards([0])
    cluster.spawn(reader("shard-fenced read"))
    cluster.spawn(preparer())
    cluster.run(until=1e-3)
    assert [entry[0] for entry in served] == ["shard-fenced read"]
    node.fence.lower_shards([0])
    cluster.run(until=2e-3)
    assert served[-1][0] == "prepare" and served[-1][2]
    node._abort_prepared(TXN, node._prepared[TXN])  # frees x's write lock

    node.fence.raise_node()
    cluster.spawn(reader("node-fenced read"))
    cluster.run(until=3e-3)
    assert len(served) == 2, "a node-wide fence serves no read"
    node.fence.lower_node()
    cluster.run(until=4e-3)
    assert served[-1][0] == "node-fenced read" and served[-1][1] >= 3e-3


# ----------------------------------------------------------------------
# In-doubt resolver
# ----------------------------------------------------------------------
def prepared_entry(cluster):
    """A yes-vote at node 1 for a transaction node 0 coordinates (no
    lease is armed: only the test drives the resolver)."""
    node = cluster.node(1)
    vote = cluster.run_process(
        node._handle_prepare(PrepareBody(TXN, 0, {"x": 9}, tuple(node.site_vc)))
    )
    assert vote.ok and node.locks.write_held("x")
    return node, node._prepared[TXN]


def record_commit(cluster, seq_no=1):
    """Put TXN's commit on node 0's decision log; returns its Decide."""
    coordinator = cluster.node(0)
    coordinator.curr_seq_no = seq_no
    log = coordinator.in_doubt.log
    log.restore({TXN: DecisionRecord(TXN, seq_no, (seq_no, 0))})
    return log.decide(TXN)


def test_committed_reply_applies_through_the_decide_path():
    cluster = build()
    node, entry = prepared_entry(cluster)
    record_commit(cluster)
    applied = []
    original = node._apply_committed_decide
    node._apply_committed_decide = lambda body: (
        applied.append(body) or original(body)
    )
    cluster.run_process(node.in_doubt.terminate(TXN, entry))
    assert [(b.txn_id, b.origin, b.seq_no) for b in applied] == [(TXN, 0, 1)]
    latest = node.store.chain("x").latest
    assert (latest.value, latest.origin, latest.seq) == (9, 0, 1)
    assert node.site_vc[0] == 1
    assert TXN not in node._prepared and not node.locks.any_locked()
    assert cluster.metrics.counters["indoubt_committed"] == 1
    assert cluster.metrics.counters["lease_expirations"] == 0


def test_not_on_record_aborts_and_releases_the_locks():
    cluster = build()
    node, entry = prepared_entry(cluster)
    cluster.run_process(node.in_doubt.terminate(TXN, entry))
    assert node.store.chain("x").latest.value == 0
    assert TXN not in node._prepared and not node.locks.any_locked()
    assert cluster.metrics.counters["indoubt_aborted"] == 1
    assert cluster.metrics.counters["lease_expirations"] == 0


def test_unreachable_coordinator_exhausts_the_budget_then_presumes_abort():
    cluster = build()
    node, entry = prepared_entry(cluster)
    record_commit(cluster)
    cluster.network.crash(0)
    started = cluster.sim.now
    sent_before = cluster.network.stats.messages_by_type[MessageType.TXN_STATUS]
    cluster.run_process(node.in_doubt.terminate(TXN, entry))
    queries = (
        cluster.network.stats.messages_by_type[MessageType.TXN_STATUS]
        - sent_before
    )
    rpc = cluster.config.network.rpc
    # Every round pays the RPC ladder the failure detector leaves it --
    # one probe once the coordinator is classified dead -- and then the
    # between-rounds pause.
    assert SUSPECT_MAX_ATTEMPTS >= rpc.max_attempts  # suspicion cuts nothing
    ladders, strikes = [], 0
    for _ in range(TERMINATION_ATTEMPTS):
        dead = strikes >= DEAD_AFTER_TIMEOUTS
        ladders.append(1 if dead else rpc.max_attempts)
        strikes += ladders[-1]
    assert queries == sum(ladders) < TERMINATION_ATTEMPTS * rpc.max_attempts
    assert cluster.sim.now - started >= (
        sum(ladders) * rpc.request_timeout + TERMINATION_ATTEMPTS * ROUND_WAIT
    )
    assert TXN not in node._prepared and not node.locks.any_locked()
    assert node.store.chain("x").latest.value == 0
    assert cluster.metrics.counters["lease_expirations"] == 1
    assert cluster.metrics.counters["indoubt_committed"] == 0
    assert cluster.metrics.counters["indoubt_aborted"] == 0


def test_a_racing_real_decide_wins():
    cluster = build()
    node, entry = prepared_entry(cluster)
    decide = record_commit(cluster)
    cluster.network.crash(0)  # the query cannot be answered...
    process = cluster.spawn(node.in_doubt.terminate(TXN, entry))
    # ...but the Decide itself was already on the wire.
    cluster.sim.call_later(
        5e-4, lambda: cluster.spawn(node._apply_committed_decide(decide))
    )
    cluster.run()
    assert process.triggered
    assert node.store.chain("x").latest.value == 9 and node.site_vc[0] == 1
    assert not node.locks.any_locked()
    # The resolver noticed before its next round: no verdict of its own.
    assert cluster.metrics.counters["indoubt_committed"] == 0
    assert cluster.metrics.counters["indoubt_aborted"] == 0
    assert cluster.metrics.counters["lease_expirations"] == 0
    sent = cluster.network.stats.messages_by_type[MessageType.TXN_STATUS]
    assert sent == cluster.config.network.rpc.max_attempts


def test_repair_rpc_bounds_a_repair_only_in_the_paper_model():
    """Digests and 2PC status queries share one policy: with no global
    timeout, one private attempt; with one, the endpoint's own."""
    assert repair_rpc(RpcConfig()) == RpcConfig(request_timeout=REPAIR_TIMEOUT, max_attempts=1)
    assert repair_rpc(RpcConfig(request_timeout=1e-3, max_attempts=2)) is None


def test_a_lease_never_hangs_on_a_dead_coordinator_without_rpc_timeouts():
    """The paper-model ``request_timeout=None``: a bare status query to a
    coordinator that is gone for good would never return, and the lease
    that asked would hold its locks forever.  Every round is bounded like
    a gossip digest instead, so the budget runs out and the fallback
    frees the key."""
    lease = 1e-3
    cluster = build(rpc=RpcConfig(), lease=lease)
    node = cluster.node(1)
    cluster.spawn(
        node._handle_prepare(PrepareBody(TXN, 0, {"x": 9}, tuple(node.site_vc)))
    )
    cluster.run(until=lease / 2)
    assert TXN in node._prepared and node.locks.write_held("x")
    cluster.network.crash(0)  # for good
    round_cost = REPAIR_TIMEOUT + lease
    cluster.run(until=lease + TERMINATION_ATTEMPTS * round_cost + lease)
    assert TXN not in node._prepared and not node.locks.any_locked()
    assert node.store.chain("x").latest.value == 0
    assert cluster.metrics.counters["lease_expirations"] == 1
    assert cluster.metrics.counters["indoubt_aborted"] == 0
    # One single-attempt query per round, each retired at its deadline.
    stats = cluster.network.stats
    assert stats.messages_by_type[MessageType.TXN_STATUS] == TERMINATION_ATTEMPTS
    assert stats.rpc_timeouts == TERMINATION_ATTEMPTS and stats.rpc_retries == 0
    assert node.node.rpc.pending_count == 0
    assert node.node.rpc.deadline_count == 0


# ----------------------------------------------------------------------
# Re-announcer
# ----------------------------------------------------------------------
def lagging_peer_cluster(commits=5):
    """Node 0 commits ``commits`` local transactions while node 2 hears
    none of the Propagates; node 1 hears them all.  The lease is what
    makes node 0 keep its decisions: somebody may ask."""
    cluster = build(num_nodes=3, placement={"a": 0}, lease=5e-3)
    cluster.network.partition(0, 2)
    for value in range(commits):
        assert cluster.run_txn(lambda txn, v=value: txn.write("a", v + 1))
    cluster.network.heal_all()
    cluster.run()
    assert [clock[0] for clock in cluster.site_clocks()] == [commits, commits, 0]
    return cluster


def decides_sent(cluster):
    return cluster.network.stats.messages_by_type[MessageType.DECIDE]


def test_reannounce_closes_a_peers_gap_and_duplicates_are_noops():
    cluster = lagging_peer_cluster()
    origin = cluster.node(0)
    before = decides_sent(cluster)
    chain_before = [v.vid for v in cluster.node(0).store.chain("a")]
    announced = reannounce(
        origin, 0, origin.in_doubt.log.by_seq, {1: 0, 2: 0}, origin.site_vc[0]
    )
    cluster.run()
    assert announced == [1, 2, 3, 4, 5]
    assert decides_sent(cluster) - before == 10
    # Node 2 caught up; node 1 had applied all five already.
    assert [clock[0] for clock in cluster.site_clocks()] == [5, 5, 5]
    assert [v.vid for v in cluster.node(0).store.chain("a")] == chain_before
    assert not cluster.any_locks_held()


def test_reannounce_respects_each_peers_frontier():
    cluster = lagging_peer_cluster()
    origin = cluster.node(0)
    before = decides_sent(cluster)
    reannounce(origin, 0, origin.in_doubt.log.by_seq, {1: 5, 2: 3}, 5)
    assert decides_sent(cluster) - before == 2  # 4 and 5, to node 2 only


def test_reannounce_skips_pruned_sequence_numbers():
    cluster = lagging_peer_cluster()
    origin = cluster.node(0)
    del origin.in_doubt.log.by_seq[2]
    announced = reannounce(origin, 0, origin.in_doubt.log.by_seq, {2: 0}, 5)
    cluster.run()
    assert announced == [1, 3, 4, 5]
    # In-order apply: the peer stops at the hole only a checkpoint fills.
    assert cluster.node(2).site_vc[0] == 1


@pytest.mark.parametrize("limit, expected", [(2, [1, 2]), (None, [1, 2, 3, 4, 5])])
def test_reannounce_honours_its_per_call_limit(limit, expected):
    cluster = lagging_peer_cluster()
    origin = cluster.node(0)
    announced = reannounce(
        origin, 0, origin.in_doubt.log.by_seq, {2: 0}, 5, limit=limit
    )
    cluster.run()
    assert announced == expected
    assert cluster.node(2).site_vc[0] == len(expected)


# ----------------------------------------------------------------------
# C2: a coordinator says "not committed" only after making it true
# ----------------------------------------------------------------------
def slow_vote_cluster(protocol, sites, **durability):
    """T's two keys live at ``sites``; the 200 us lease is far shorter
    than the 600 us the second site's vote will take."""
    config = ClusterConfig(
        num_nodes=3,
        seed=5,
        prepared_lease=200e-6,
        durability=DurabilityConfig(**durability),
        network=NetworkConfig(jitter=0.0),
    )
    placement = {"a": sites[0], "b": sites[1]}
    cluster = Cluster(protocol, config, directory=ExplicitDirectory(placement))
    for key in placement:
        cluster.load(key, 0)
    return cluster


@pytest.mark.parametrize("sites", [(1, 2), (0, 2)], ids=["remote", "own"])
@pytest.mark.parametrize("protocol", ("fwkv", "walter"))
def test_a_status_query_dooms_the_round_it_finds_collecting_votes(
    protocol, sites
):
    """The first site votes yes, its lease expires and it asks while the
    coordinator still waits for the second vote.  "No decision on record"
    used to be the answer, the asker unstaged, the round then committed:
    half of an acknowledged commit was gone.  Now the answer dooms the
    round and the coordinator prepares again."""
    cluster = slow_vote_cluster(protocol, sites)
    node, slow = cluster.node(0), cluster.nodes[sites[1]]
    outcome = {}

    def transaction():
        txn = outcome["txn"] = node.begin(is_read_only=False)
        a = yield from node.read(txn, "a")
        b = yield from node.read(txn, "b")
        # Somebody else takes b's write lock now, for 600 us.
        granted = yield slow.locks.lock_for("b").acquire_write("blocker")
        assert granted
        cluster.sim.call_later(600e-6, slow.locks.release, "b", "blocker")
        node.write(txn, "a", a + 1)
        node.write(txn, "b", b + 1)
        outcome["ok"] = yield from node.commit(txn)

    cluster.spawn(transaction())
    cluster.run()
    txn_id = outcome["txn"].txn_id
    installed = [
        any(v.writer_txn == txn_id for v in cluster.nodes[site].store.chain(key))
        for site, key in zip(sites, "ab")
    ]
    assert installed == [outcome["ok"], outcome["ok"]]
    assert outcome["ok"], "MAX_ATTEMPTS leaves room for the second round"
    # The lease did fire and was answered "not committed" -- exactly.
    assert cluster.metrics.counters["indoubt_aborted"] == 1
    assert cluster.metrics.counters["lease_expirations"] == 0
    assert not cluster.any_locks_held()
    assert not any(n._prepared or n.in_doubt.rounds for n in cluster.nodes)
    clocks = cluster.site_clocks()
    assert clocks[0][0] == 1 and all(clock == clocks[0] for clock in clocks)


def test_a_status_query_inside_the_force_window_waits_for_the_force():
    """The decision is appended, its sync on the disk, when the query
    arrives; then the coordinator dies and the record with it.  The
    table entry is set ahead of the force, and answering from it told a
    participant to apply a commit the recovered coordinator has no
    record of."""
    from repro.faults import CRASH_DURABLE, FaultEvent, Nemesis
    from tests.harness.battery import TracePoint, restart

    config = ClusterConfig(
        num_nodes=2,
        seed=5,
        durability=DurabilityConfig(
            wal_enabled=True, fsync_latency=100e-6
        ),
        network=NetworkConfig(
            jitter=0.0, rpc=RpcConfig(request_timeout=1e-3, max_attempts=2)
        ),
    )
    cluster = Cluster("fwkv", config, directory=ExplicitDirectory({"x": 1}))
    cluster.load("x", 0)
    nemesis = Nemesis(cluster)
    coordinator, participant = cluster.node(0), cluster.node(1)
    outcome = {}

    def transaction():
        txn = outcome["txn"] = coordinator.begin(is_read_only=False)
        value = yield from coordinator.read(txn, "x")
        coordinator.write(txn, "x", value + 1)
        outcome["ok"] = yield from coordinator.commit(txn)

    def forcing_the_decision(record):
        return isinstance(coordinator.wal.records()[-1], DecisionRecord)

    def ask_then_crash(_record):
        txn_id = outcome["txn"].txn_id
        cluster.spawn(
            participant.in_doubt.terminate(txn_id, participant._prepared[txn_id])
        )
        # The query lands 20 us into the 100 us force; the crash at 60.
        cluster.sim.call_later(
            60e-6, nemesis.apply, FaultEvent(0.0, CRASH_DURABLE, 0)
        )
        cluster.sim.call_later(1.5e-3, restart, cluster, nemesis, 0)

    point = TracePoint(
        cluster, "wal_sync", ask_then_crash, node=0, when=forcing_the_decision
    )
    cluster.spawn(transaction())
    cluster.run()
    assert point.fired and coordinator.recovery.recoveries == 1
    txn_id = outcome["txn"].txn_id
    assert outcome["ok"] is False
    assert txn_id not in coordinator.in_doubt.log.by_txn
    assert participant.store.chain("x").latest.value == 0
    assert cluster.metrics.counters["indoubt_committed"] == 0
    assert cluster.metrics.counters["indoubt_aborted"] == 1
    assert not participant._prepared and not cluster.any_locks_held()
    assert cluster.site_clocks() == [(0, 0), (0, 0)]


def test_restage_answer_lists_what_was_committed_at_the_asker():
    """C3, coordinator side: decisions of our origin above the asker's
    frontier that wrote there, each with the asker's writes only; a
    round in flight that names the asker is doomed."""
    from repro.core.wire import SyncRequestBody

    config = ClusterConfig(
        num_nodes=3,
        seed=5,
        durability=DurabilityConfig(wal_enabled=True, fsync_latency=50e-6),
        network=NetworkConfig(jitter=0.0),
    )
    placement = {"p": 1, "q": 1, "r": 2}
    cluster = Cluster("fwkv", config, directory=ExplicitDirectory(placement))
    for key in placement:
        cluster.load(key, 0)
    for writes in ({"p": 1}, {"r": 1}, {"q": 2, "r": 2}, {"p": 3}):
        assert cluster.run_txn(
            lambda txn, w=writes: [txn.write(k, v) for k, v in w.items()]
        ).committed
    origin = cluster.node(0)
    naming = origin.in_doubt.rounds[901] = Round({1: {}, 2: {}})
    elsewhere = origin.in_doubt.rounds[902] = Round({2: {}})

    def ask(above):
        return cluster.run_process(
            cluster.node(1).node.rpc.call(
                0, MessageType.SYNC, SyncRequestBody(1, restage_above=above)
            )
        )

    reply = ask(1)
    assert reply.site_vc == origin.site_vc.to_tuple() == (4, 0, 0)
    assert sorted((d.seq_no, d.writes) for d in reply.decisions) == [
        (3, (("q", 2),)), (4, (("p", 3),)),
    ]
    assert all(d.committed and d.origin == 0 for d in reply.decisions)
    assert naming.doomed and not elsewhere.doomed
    assert sorted(d.seq_no for d in ask(0).decisions) == [1, 3, 4]
    assert ask(4).decisions == ()


def test_a_duplicate_decide_leaves_the_tick_to_the_applier_with_the_writes():
    """Two appliers of one Decide: the one that found no prepared entry
    used to tick the clock (and log an empty ApplyRecord) while the other
    was still charging its install -- a reader waiting on that tick saw
    the old version, and replay lost the write."""
    cluster = build(rpc=RpcConfig())
    node, _entry = prepared_entry(cluster)
    decide = record_commit(cluster)
    seen = []

    def reader():
        while node.site_vc[0] < 1:
            yield cluster.sim.timeout(1e-6)
        seen.append(node.store.chain("x").latest.value)

    cluster.spawn(reader())
    cluster.spawn(node._apply_committed_decide(decide))
    cluster.spawn(node._apply_committed_decide(decide))
    cluster.run()
    assert seen == [9]
    assert node.site_vc[0] == 1 and not node.locks.any_locked()
    assert not node._applying

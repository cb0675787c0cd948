"""Chain shipping (``repro.cluster.handoff.Shipments``): a backup
bootstrap's chains in one message.

The primary ships the chains of the shards the receiver backs; the
receiver adopts them verbatim and leaves its clock alone.  Whatever goes wrong,
the receiver installed nothing and takes the next shipment; each
shipment installs at most once, whatever copies of it arrive; what it
installed on a WAL node survives its durable crash.
"""

import pytest

from repro import Cluster, ClusterConfig, DurabilityConfig, NetworkConfig
from repro.cluster import ShardMap
from repro.cluster.handoff import fenced_handoff
from repro.faults import CRASH_DURABLE, Nemesis
from repro.net.message import MessageType
from repro.storage.wal import replay, store_fingerprint

from tests.harness.battery import fault, restart

pytestmark = pytest.mark.replication

SENDER, RECEIVER = 0, 2
KEYS = [f"k{i}" for i in range(24)]
SHIPMENT = MessageType.SHARD_SHIPMENT


def sender_keys(cluster):
    return [key for key in KEYS if cluster.directory.site(key) == SENDER][:2]


def build(wal=True):
    config = ClusterConfig(
        num_nodes=3,
        seed=3,
        durability=DurabilityConfig(wal_enabled=wal),
        network=NetworkConfig(jitter=0.0),
    )
    cluster = Cluster("fwkv", config, directory=ShardMap(range(3), 3))
    for key in KEYS:
        cluster.load(key, 0)
    # The sender commits on its own keys while the receiver hears
    # nothing, so the shipped chains are ahead of the receiver's clock.
    cluster.network.partition(SENDER, RECEIVER)
    for value in (1, 2, 3):
        for key in sender_keys(cluster):
            assert cluster.run_txn(lambda txn, k=key, v=value: txn.write(k, v))
    cluster.network.heal_all()
    cluster.run()
    return cluster


def ship(cluster):
    sender = cluster.node(SENDER)
    return cluster.spawn(
        sender.shipments.ship(RECEIVER, sender_keys(cluster), sender._incarnation)
    )


def tap(cluster, corrupt=False):
    """Every shipment sent and every answer to one, in order; ``corrupt``
    garbles each shipment's fingerprint in flight."""
    seen = {"shipments": [], "answers": []}

    def policy(envelope):
        if envelope.msg_type == SHIPMENT:
            seen["shipments"].append(envelope)
            if corrupt:
                envelope.payload.body.fingerprint = "0" * 64
        elif envelope.msg_type == MessageType.RPC_REPLY and any(
            (sent.dst, sent.src, sent.payload.request_id)
            == (envelope.src, envelope.dst, envelope.payload.request_id)
            for sent in seen["shipments"]
        ):
            seen["answers"].append(envelope.payload.body)
        return 0.0

    cluster.network.delay_policy = policy
    return seen


def installs(cluster):
    return cluster.metrics.counters["snapshot_installs"]


def assert_receiver_untouched(cluster, before):
    """Nothing installed, nothing held -- and the next shipment installs."""
    receiver = cluster.node(RECEIVER)
    assert installs(cluster) == 0
    assert not receiver.fence.node_wide
    assert receiver.site_vc.to_tuple() == before
    assert not any(key in receiver.store for key in sender_keys(cluster))
    cluster.network.delay_policy = None
    process = ship(cluster)
    cluster.run()
    assert process.value is True and installs(cluster) == 1


@pytest.mark.parametrize("wal", [True, False], ids=["durable", "volatile"])
def test_a_clean_shipment_installs_once(wal):
    cluster = build(wal)
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    seen = tap(cluster)
    process = ship(cluster)
    cluster.run()
    assert process.value is True and installs(cluster) == 1
    assert len(seen["shipments"]) == 1 and seen["answers"] == [None]
    assert not receiver.fence.node_wide
    # Shard chains arrive verbatim and leave the clock alone.
    assert receiver.site_vc.to_tuple() == before and before[SENDER] == 0
    assert receiver.store.chain(sender_keys(cluster)[0]).latest.value == 3
    # A WAL receiver checkpoints at once; a volatile one has nothing to.
    assert receiver.healing.checkpoints.taken == (1 if wal else 0)
    assert cluster.metrics.counters["snapshot_rejected"] == 0
    assert cluster.metrics.counters["snapshot_chains"] == 2


def test_a_shipment_is_refused_while_the_receiver_recovers():
    """The node-wide fence (a durable crash's recovery) refuses a
    shipment; once it is down the next one installs."""
    cluster = build()
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    seen = tap(cluster)
    receiver.fence.raise_node()
    process = ship(cluster)
    cluster.run()
    assert process.value is False
    assert seen["answers"] == ["recovering"]
    assert cluster.metrics.counters["snapshot_rejected"] == 1
    receiver.fence.lower_node()
    assert_receiver_untouched(cluster, before)


def test_a_sender_wiped_mid_shipment_fails_its_handoff():
    """The sender's incarnation changes while its shipment is on the
    wire: the handoff fails (no act) without counting a refusal.  The
    receiver may hold the chains already; the retried bootstrap's
    shipment, under a new id, installs over them."""
    cluster = build()
    sender = cluster.node(SENDER)
    seen = tap(cluster)
    process = ship(cluster)
    cluster.run(until=cluster.sim.now + 1e-6)
    assert len(seen["shipments"]) == 1
    sender._incarnation += 1
    cluster.run()
    assert process.value is False
    assert cluster.metrics.counters["snapshot_rejected"] == 0
    process = ship(cluster)
    cluster.run()
    assert process.value is True and installs(cluster) == 2
    ids = [envelope.payload.body.snapshot_id for envelope in seen["shipments"]]
    assert ids == [1, 2]


def test_a_corrupted_shipment_installs_nothing():
    cluster = build()
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    seen = tap(cluster, corrupt=True)
    process = ship(cluster)
    cluster.run()
    assert process.value is False and seen["answers"] == ["fingerprint"]
    assert_receiver_untouched(cluster, before)


def test_a_duplicated_or_late_copy_never_re_adopts():
    """A bootstrap shipment's copy -- one arriving while the original
    drains, one after the stream delivered a newer version -- is
    answered with the original's verdict and adopts nothing; once a
    second bootstrap installed newer chains, a late copy of the first
    is refused as stale."""
    cluster = build()
    receiver = cluster.node(RECEIVER)
    key = sender_keys(cluster)[0]
    shard = cluster.directory.shard_of(key)
    seen = tap(cluster)

    def bootstrap():
        return cluster.spawn(
            fenced_handoff(cluster, SENDER, RECEIVER, [shard], lambda: None)
        )

    # Hold the receiver's drain so a duplicate lands mid-install.
    receiver._applying[-1] = (SENDER, 0)
    cluster.sim.call_later(100e-6, receiver._applying.pop, -1)
    first = bootstrap()
    cluster.run(until=cluster.sim.now + 30e-6)
    (original,) = seen["shipments"]
    resend = cluster.network.send
    resend(SENDER, RECEIVER, SHIPMENT, original.payload)
    cluster.run(until=cluster.sim.now + 40e-6)
    assert installs(cluster) == 0 and not seen["answers"], "both wait"
    cluster.run()
    assert first.value and installs(cluster) == 1
    assert seen["answers"] == [None, None]

    # The restarted stream delivers a newer version of the key; a late
    # copy of the bootstrap must not roll it back.
    latest = receiver.store.chain(key).latest
    vc = latest.vc.copy()
    vc[SENDER] += 1
    receiver.store.install(key, 99, vc, SENDER, latest.seq + 1)
    resend(SENDER, RECEIVER, SHIPMENT, original.payload)  # late
    cluster.run()
    assert seen["answers"] == [None, None, None]
    assert installs(cluster) == 1
    assert receiver.store.chain(key).latest.value == 99

    assert cluster.run_txn(lambda txn: txn.write(key, 100), node=SENDER)
    second = bootstrap()
    cluster.run()
    assert second.value and installs(cluster) == 2
    assert receiver.store.chain(key).latest.value == 100
    resend(SENDER, RECEIVER, SHIPMENT, original.payload)  # older id
    cluster.run()
    assert seen["answers"] == [None, None, None, None, "stale"]
    assert installs(cluster) == 2
    assert receiver.store.chain(key).latest.value == 100


def test_installed_chains_survive_the_receivers_durable_crash():
    """The receiver's WAL prefix replays to the pre-install store, so the
    install checkpoints at once: replay and a real crash-and-restart both
    rebuild the shipped chains."""
    cluster = build()
    receiver = cluster.node(RECEIVER)
    process = ship(cluster)
    cluster.run()
    assert process.value is True
    installed = store_fingerprint(receiver.store)
    assert store_fingerprint(replay(receiver.wal.records(), 3).store) == installed

    nemesis = Nemesis(cluster)
    fault(nemesis, CRASH_DURABLE, RECEIVER)
    window = restart(cluster, nemesis, RECEIVER)
    cluster.run()
    assert window.closed and receiver.recovery.recoveries == 1
    assert store_fingerprint(receiver.store) == installed
    sender = cluster.node(SENDER)
    for key in sender_keys(cluster):
        assert receiver.store.snapshot(key) == sender.store.snapshot(key)

"""Chain shipping (``repro.healing.transfer``): a shard handoff's transfer.

The donor ships the chains of keys moving to the receiver; the receiver
adopts them verbatim at the final chunk and leaves its clock alone.
Whatever goes wrong, the receiver installed nothing and accepts the next
offer; what it installed on a WAL node survives its durable crash.
"""

import dataclasses

import pytest

from repro import Cluster, ClusterConfig, DurabilityConfig, NetworkConfig
from repro.cluster import ShardMap
from repro.faults import CRASH_DURABLE, Nemesis
from repro.net.message import MessageType
from repro.storage.wal import build_checkpoint, replay, store_fingerprint

from tests.harness.battery import fault, restart

pytestmark = pytest.mark.healing

SENDER, RECEIVER = 0, 2
KEYS = [f"k{i}" for i in range(24)]


@pytest.fixture(autouse=True)
def one_chain_per_chunk(monkeypatch):
    """Every transfer here streams at least two chunks."""
    monkeypatch.setattr("repro.healing.transfer.CHUNK_RECORDS", 1)


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


def record_for(cluster):
    """The sender's chains of two of its keys (two chunks)."""
    sender = cluster.node(SENDER)
    chains = [(key, *sender.store.snapshot(key)) for key in sender_keys(cluster)]
    return build_checkpoint(chains, sender.site_vc, sender.curr_seq_no)


def ship(cluster, record):
    sender = cluster.node(SENDER)
    return cluster.spawn(
        sender.healing.transfer.ship(RECEIVER, record, sender._incarnation)
    )


def assert_receiver_untouched(cluster, before):
    """Nothing installed, nothing held -- and the next offer installs."""
    receiver = cluster.node(RECEIVER)
    transfer = receiver.healing.transfer
    assert transfer.installs == 0 and transfer.inbound is None
    assert not receiver.fence.node_wide
    assert receiver.site_vc.to_tuple() == before
    assert not any(key in receiver.store for key in sender_keys(cluster))
    cluster.network.delay_policy = None
    process = ship(cluster, record_for(cluster))
    cluster.run()
    assert process.value is True and transfer.installs == 1


@pytest.mark.parametrize("wal", [True, False], ids=["durable", "volatile"])
def test_a_clean_transfer_installs_once(wal):
    cluster = build(wal)
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    process = ship(cluster, record_for(cluster))
    cluster.run()
    assert process.value is True and receiver.healing.transfer.installs == 1
    assert not receiver.fence.node_wide
    # Shard chains arrive verbatim and leave the clock alone.
    assert receiver.site_vc.to_tuple() == before and before[SENDER] == 0
    assert receiver.store.chain(sender_keys(cluster)[0]).latest.value == 3
    # A WAL receiver checkpoints at once; a volatile one has nothing to.
    assert receiver.healing.checkpoints.taken == (1 if wal else 0)
    assert cluster.metrics.counters["snapshot_rejected"] == 0
    assert cluster.metrics.counters["snapshot_chunks"] == 2


def test_rejected_at_the_offer():
    cluster = build()
    record = record_for(cluster)
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    receiver.healing.transfer.inbound = busy = object()
    process = ship(cluster, record)
    cluster.run()
    assert process.value is False
    assert cluster.metrics.counters["snapshot_rejected"] == 1
    assert cluster.metrics.counters["snapshot_chunks"] == 0, "no bulk data"
    assert receiver.healing.transfer.inbound is busy
    receiver.healing.transfer.inbound = None
    assert_receiver_untouched(cluster, before)


def test_an_offer_is_refused_while_the_receiver_recovers():
    """The node-wide fence (a durable crash's recovery) refuses an offer
    before any bulk data moves; once it is down the next offer installs."""
    cluster = build()
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    sent = []
    cluster.network.delay_policy = lambda envelope: sent.append(envelope) or 0.0
    receiver.fence.raise_node()
    process = ship(cluster, record_for(cluster))
    cluster.run()
    assert process.value is False
    assert [e.payload.body.reason for e in sent if e.src == RECEIVER] == ["recovering"]
    assert cluster.metrics.counters["snapshot_rejected"] == 1
    assert cluster.metrics.counters["snapshot_chunks"] == 0, "no bulk data"
    receiver.fence.lower_node()
    assert_receiver_untouched(cluster, before)


def test_rejected_mid_chunk():
    cluster = build()
    record = record_for(cluster)
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()

    def drop_after_first_chunk(envelope):
        if (
            envelope.msg_type == MessageType.SNAPSHOT_CHUNK
            and envelope.payload.body.index == 1
        ):
            receiver.healing.transfer._abandon("test")
        return 0.0

    cluster.network.delay_policy = drop_after_first_chunk
    process = ship(cluster, record)
    cluster.run()
    assert process.value is False
    assert cluster.metrics.counters["snapshot_chunks"] == 1
    assert cluster.metrics.counters["snapshot_rejected"] == 1
    assert_receiver_untouched(cluster, before)


def test_sender_wiped_mid_transfer():
    cluster = build()
    record = record_for(cluster)
    sender, receiver = cluster.node(SENDER), cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()

    def wipe_sender(envelope):
        if envelope.msg_type == MessageType.SNAPSHOT_CHUNK:
            sender._incarnation += 1
        return 0.0

    cluster.network.delay_policy = wipe_sender
    process = ship(cluster, record)
    cluster.run()
    assert process.value is False
    # Abandoned, not refused.
    assert cluster.metrics.counters["snapshot_rejected"] == 0
    # The receiver's watchdog notices the silence and drops the transfer.
    assert cluster.metrics.counters["snapshot_abandoned"] == 1
    assert_receiver_untouched(cluster, before)


def test_fingerprint_mismatch_installs_nothing():
    cluster = build()
    record = dataclasses.replace(record_for(cluster), fingerprint="0" * 64)
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    process = ship(cluster, record)
    cluster.run()
    assert process.value is False
    assert cluster.metrics.counters["snapshot_abandoned"] == 1
    assert_receiver_untouched(cluster, before)


def test_installed_chains_survive_the_receivers_durable_crash():
    """The receiver's WAL prefix replays to the pre-install store, so the
    install checkpoints at once: replay and a real crash-and-restart both
    rebuild the shipped chains."""
    cluster = build()
    receiver = cluster.node(RECEIVER)
    process = ship(cluster, record_for(cluster))
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

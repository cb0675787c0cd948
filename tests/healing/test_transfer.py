"""Chain shipping (``repro.healing.transfer``), both modes through one suite.

Checkpoint mode repairs a peer behind the sender's truncation floor;
shard mode hands keys to a new owner.  The wire protocol and its failure
behaviour are one implementation, so every failure case runs in both
modes: whatever goes wrong, the receiver installed nothing, holds no
fence, and accepts the next offer.
"""

import dataclasses

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    DurabilityConfig,
    HealingConfig,
    NetworkConfig,
    SnapshotTransferConfig,
)
from repro.cluster import ShardMap
from repro.net.message import MessageType
from repro.storage.wal import build_checkpoint

pytestmark = pytest.mark.healing

SENDER, RECEIVER = 0, 2
KEYS = [f"k{i}" for i in range(24)]
MODES = ("checkpoint", "shard")


def sender_keys(cluster):
    return [key for key in KEYS if cluster.directory.site(key) == SENDER][:2]


def build():
    config = ClusterConfig(
        num_nodes=3,
        seed=3,
        durability=DurabilityConfig(wal_enabled=True),
        network=NetworkConfig(jitter=0.0),
        healing=HealingConfig(snapshot=SnapshotTransferConfig(chunk_records=1)),
    )
    cluster = Cluster("fwkv", config, directory=ShardMap(range(3), 3))
    for key in KEYS:
        cluster.load(key, 0)
    # The sender commits on its own keys while the receiver hears nothing,
    # so a checkpoint of the sender dominates the receiver's clock.
    cluster.network.partition(SENDER, RECEIVER)
    for value in (1, 2, 3):
        for key in sender_keys(cluster):
            assert cluster.run_txn(lambda txn, k=key, v=value: txn.write(k, v))
    cluster.network.heal_all()
    cluster.run()
    return cluster


def record_for(cluster, mode):
    """The chain set ``mode`` would ship from the sender (>= 2 chunks)."""
    sender = cluster.node(SENDER)
    if mode == "checkpoint":
        return sender.healing.checkpoints.checkpoint_now()
    chains = [(key, *sender.store.snapshot(key)) for key in sender_keys(cluster)]
    return build_checkpoint(chains, sender.site_vc, sender.curr_seq_no)


def ship(cluster, record, mode):
    sender = cluster.node(SENDER)
    return cluster.spawn(
        sender.healing.transfer.ship(
            RECEIVER, record, sender._incarnation, shard=mode == "shard"
        )
    )


def assert_receiver_untouched(cluster, before):
    receiver = cluster.node(RECEIVER)
    transfer = receiver.healing.transfer
    assert transfer.installs == 0 and transfer.inbound is None
    assert not receiver.fence.node_wide
    assert receiver.site_vc.to_tuple() == before


@pytest.mark.parametrize("mode", MODES)
def test_a_clean_transfer_installs_once(mode):
    cluster = build()
    process = ship(cluster, record_for(cluster, mode), mode)
    cluster.run()
    assert process.value is True
    receiver = cluster.node(RECEIVER)
    assert receiver.healing.transfer.installs == 1
    assert not receiver.fence.node_wide
    key = sender_keys(cluster)[0]
    if mode == "checkpoint":
        # The clock runs up to the checkpoint's; the sender's chains are
        # foreign here and are not kept.
        assert receiver.site_vc[SENDER] == 6 and key not in receiver.store
    else:
        # Shard chains arrive verbatim and leave the clock alone.
        assert receiver.site_vc[SENDER] == 0
        assert receiver.store.chain(key).latest.value == 3
    assert cluster.metrics.counters["snapshot_rejected"] == 0


@pytest.mark.parametrize("mode", MODES)
def test_rejected_at_the_offer(mode):
    cluster = build()
    record = record_for(cluster, mode)
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    receiver.healing.transfer.inbound = busy = object()
    process = ship(cluster, record, mode)
    cluster.run()
    assert process.value is False
    assert cluster.metrics.counters["snapshot_rejected"] == 1
    assert cluster.metrics.counters["snapshot_chunks"] == 0, "no bulk data"
    assert receiver.healing.transfer.inbound is busy
    receiver.healing.transfer.inbound = None
    assert_receiver_untouched(cluster, before)


@pytest.mark.parametrize("mode", MODES)
def test_rejected_mid_chunk(mode):
    cluster = build()
    record = record_for(cluster, mode)
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
    process = ship(cluster, record, mode)
    cluster.run()
    assert process.value is False
    assert cluster.metrics.counters["snapshot_chunks"] == 1
    assert cluster.metrics.counters["snapshot_rejected"] == 1
    assert_receiver_untouched(cluster, before)


@pytest.mark.parametrize("mode", MODES)
def test_sender_wiped_mid_transfer(mode):
    cluster = build()
    record = record_for(cluster, mode)
    sender, receiver = cluster.node(SENDER), cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()

    def wipe_sender(envelope):
        if envelope.msg_type == MessageType.SNAPSHOT_CHUNK:
            sender._incarnation += 1
        return 0.0

    cluster.network.delay_policy = wipe_sender
    process = ship(cluster, record, mode)
    cluster.run()
    assert process.value is False
    # Abandoned, not refused.
    assert cluster.metrics.counters["snapshot_rejected"] == 0
    # The receiver's watchdog notices the silence and drops the fence.
    assert cluster.metrics.counters["snapshot_abandoned"] == 1
    assert_receiver_untouched(cluster, before)


@pytest.mark.parametrize("mode", MODES)
def test_fingerprint_mismatch_installs_nothing(mode):
    cluster = build()
    record = dataclasses.replace(
        record_for(cluster, mode), fingerprint="0" * 64
    )
    receiver = cluster.node(RECEIVER)
    before = receiver.site_vc.to_tuple()
    chains = {key: len(receiver.store.chain(key)) for key in receiver.store.keys()}
    process = ship(cluster, record, mode)
    cluster.run()
    assert process.value is False
    assert cluster.metrics.counters["snapshot_abandoned"] == 1
    assert_receiver_untouched(cluster, before)
    assert chains == {
        key: len(receiver.store.chain(key)) for key in receiver.store.keys()
    }

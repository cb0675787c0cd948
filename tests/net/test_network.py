"""Unit tests for the simulated network fabric."""

import pytest

from repro.config import NetworkConfig
from repro.net import Network
from repro.net.message import MessageType
from repro.net.network import SELF_LATENCY
from repro.sim import Simulator


def make_network(sim, **kwargs):
    config = NetworkConfig(jitter=0.0, **kwargs)
    net = Network(sim, config)
    return net


def test_delivery_after_base_latency():
    sim = Simulator()
    net = make_network(sim, base_latency=20e-6)
    received = []
    net.register(0, lambda env: None)
    net.register(1, lambda env: received.append((sim.now, env.payload)))
    net.send(0, 1, "Ping", "hello")
    sim.run()
    assert received == [(pytest.approx(20e-6), "hello")]


def test_self_messages_use_loopback_latency():
    sim = Simulator()
    net = make_network(sim, base_latency=20e-6)
    received = []
    net.register(0, lambda env: received.append(sim.now))
    net.send(0, 0, "Ping", None)
    sim.run()
    assert received == [pytest.approx(SELF_LATENCY)] and SELF_LATENCY < 20e-6


def test_unknown_destination_degrades_to_drop():
    # Consistent with the crash path: a retry against a node that was
    # never registered (or has been removed) must not crash the sender.
    sim = Simulator()
    net = make_network(sim)
    net.register(0, lambda env: None)
    envelope = net.send(0, 5, "Ping", None)
    sim.run()
    assert envelope.msg_type == "Ping"
    assert net.stats.messages_dropped == 1
    assert net.stats.drops_by_reason["unknown_dst"] == 1


def test_duplicate_registration_rejected():
    sim = Simulator()
    net = make_network(sim)
    net.register(0, lambda env: None)
    with pytest.raises(ValueError):
        net.register(0, lambda env: None)


def test_fifo_order_per_pair():
    sim = Simulator()
    net = make_network(sim, base_latency=10e-6)
    received = []
    net.register(0, lambda env: None)
    net.register(1, lambda env: received.append(env.payload))
    for i in range(5):
        net.send(0, 1, "Seq", i)
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_jitter_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator()
        net = Network(sim, NetworkConfig(jitter=10e-6), seed=seed)
        times = []
        net.register(0, lambda env: None)
        net.register(1, lambda env: times.append(sim.now))
        for _ in range(3):
            net.send(0, 1, "Ping", None)
        sim.run()
        return times

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_message_delay_injection_only_affects_that_type():
    sim = Simulator()
    config = NetworkConfig(
        base_latency=20e-6, jitter=0.0, message_delays={"Propagate": 1e-3}
    )
    net = Network(sim, config)
    received = []
    net.register(0, lambda env: None)
    net.register(1, lambda env: received.append((env.msg_type, sim.now)))
    net.send(0, 1, MessageType.PROPAGATE, None)
    net.send(0, 1, "Decide", None)
    sim.run()
    # Decide is foreground; the delayed Propagate is background and must
    # not hold it up.
    assert received[0] == ("Decide", pytest.approx(20e-6))
    assert received[1] == ("Propagate", pytest.approx(1e-3 + 20e-6))


def test_background_channel_keeps_fifo_within_itself():
    sim = Simulator()
    net = make_network(sim, base_latency=10e-6)
    received = []
    net.register(0, lambda env: None)
    net.register(1, lambda env: received.append(env.payload))
    net.send(0, 1, MessageType.PROPAGATE, "p1")
    net.send(0, 1, MessageType.PROPAGATE, "p2")
    sim.run()
    assert received == ["p1", "p2"]


def test_stats_count_messages_by_type():
    sim = Simulator()
    net = make_network(sim)
    net.register(0, lambda env: None)
    net.register(1, lambda env: None)
    net.send(0, 1, "A", None)
    net.send(0, 1, "A", None)
    net.send(1, 0, "B", None)
    sim.run()
    assert net.stats.messages_sent == 3
    assert net.stats.messages_by_type == {"A": 2, "B": 1}

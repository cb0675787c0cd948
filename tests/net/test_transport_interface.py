"""The transport seam: contract tests for Transport backends.

The seam's promise is that everything above construction is
backend-agnostic: the simulated :class:`Network` and the socket backend
are both :class:`Transport`\\ s, :class:`RpcEndpoint` is built through
the transport's factory, fault injection refuses cleanly off the sim
backend, and :func:`build_transport` is the single selection point.
"""

import pytest

from repro.config import ClusterConfig, NetworkConfig, TransportConfig
from repro.net import (
    Network,
    RpcEndpoint,
    Transport,
    TransportError,
    build_transport,
)
from repro.net.message import Envelope
from repro.sim import Simulator


class MinimalTransport(Transport):
    """The smallest conforming backend: direct immediate dispatch."""

    kind = "minimal"

    def __init__(self, sim, config=None, seed=0):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.seed = seed
        from repro.net.network import NetworkStats

        self.stats = NetworkStats()
        self._nodes = {}

    def register(self, node_id, deliver):
        self._nodes[node_id] = deliver

    def send(self, src, dst, msg_type, payload):
        envelope = Envelope(msg_type, src, dst, payload, self.sim.now, self.sim.now, 0)
        self.sim._post_soon(self._nodes[dst], envelope)
        return envelope


def test_network_is_a_transport_and_rpc_is_an_endpoint():
    sim = Simulator()
    net = Network(sim)
    assert isinstance(net, Transport)
    assert Network.kind == "sim"
    # One endpoint class over every backend: the four-method contract
    # (request / call / reply / handle_reply) is RpcEndpoint's own.
    assert isinstance(net.endpoint(0), RpcEndpoint)
    assert isinstance(MinimalTransport(sim).endpoint(0), RpcEndpoint)


def test_endpoint_factory_matches_direct_construction():
    sim = Simulator()
    net = Network(sim, NetworkConfig(), seed=3)
    via_factory = net.endpoint(1)
    direct = RpcEndpoint(sim, net, 1)
    assert via_factory.node_id == direct.node_id
    assert via_factory.config is direct.config
    assert via_factory.network is direct.network
    # Same seeded jitter stream: the factory changes nothing.
    assert [via_factory._rng.random() for _ in range(4)] == [
        direct._rng.random() for _ in range(4)
    ]


def test_base_pump_is_exactly_sim_run():
    sim = Simulator()
    transport = MinimalTransport(sim)
    fired = []
    sim.call_at(5e-3, fired.append, "x")
    assert transport.pump(until=1e-3) == 1e-3
    assert fired == []
    assert transport.pump() == 5e-3
    assert fired == ["x"]
    transport.close()  # base close is a no-op


def test_default_fault_surface_probes_healthy_and_refuses_mutation():
    transport = MinimalTransport(Simulator())
    assert transport.is_crashed(0) is False
    assert transport.is_partitioned(0, 1) is False
    assert transport.last_send_horizon(0, 1) == 0.0
    for mutate in (
        lambda: transport.crash(0),
        lambda: transport.restart(0),
        lambda: transport.partition(0, 1),
        lambda: transport.heal(0, 1),
        lambda: transport.heal_all(),
    ):
        with pytest.raises(TransportError):
            mutate()


def test_rpc_round_trip_over_a_non_sim_backend():
    # The endpoint must consume only the Transport surface, so it works
    # over the minimal backend verbatim.
    sim = Simulator()
    transport = MinimalTransport(sim)
    from repro.cluster import Node

    client = Node(sim, 0, transport)
    server = Node(sim, 1, transport)
    server.on("Echo", lambda env: server.rpc.reply(env, server.rpc.body_of(env) + 1))

    def proc():
        reply = yield client.rpc.request(1, "Echo", 41)
        return reply

    assert sim.run_process(proc()) == 42


def test_build_transport_selects_by_kind():
    sim = Simulator()
    net = build_transport(sim, ClusterConfig(num_nodes=2))
    assert isinstance(net, Network)
    assert net.kind == "sim"

    bad = ClusterConfig(num_nodes=2)
    bad.transport.kind = "carrier-pigeon"  # skip __post_init__ validation
    with pytest.raises(ValueError):
        build_transport(sim, bad)


def test_build_transport_socket_kind():
    from repro.net.socket_transport import SocketTransport

    sim = Simulator()
    transport = build_transport(
        sim, ClusterConfig(num_nodes=2, transport=TransportConfig(kind="socket"))
    )
    try:
        assert isinstance(transport, SocketTransport)
        assert transport.kind == "socket"
        assert isinstance(transport, Transport)
    finally:
        transport.close()


def test_sim_transport_config_is_bit_identical_to_default():
    # TransportConfig(kind="sim") must change nothing: same network
    # object shape, same seeded streams, same stats after a run.
    from repro import Cluster

    def run(config):
        cluster = Cluster("fwkv", config)
        cluster.load("x", 0)

        def bump(txn):
            value = yield from txn.read("x")
            txn.write("x", value + 1)

        for _ in range(3):
            assert cluster.run_txn(bump)
        stats = cluster.network.stats
        return (
            cluster.sim.now,
            cluster.sim.executed_count,
            stats.messages_sent,
            dict(stats.messages_by_type),
        )

    default = run(ClusterConfig(num_nodes=3, seed=5))
    explicit = run(
        ClusterConfig(
            num_nodes=3, seed=5, transport=TransportConfig(kind="sim")
        )
    )
    assert default == explicit

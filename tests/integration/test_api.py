"""Public API surface suite: exports, config serde, transaction facade.

Pins the package's public contract: every public ``*Config`` dataclass
is importable from ``repro`` (the regression that motivated this suite
was a config living in ``repro.config`` but missing from the package
exports), every config round-trips through ``to_dict()`` /
``from_dict()`` -- including through JSON -- and the
:meth:`~repro.system.Cluster.run_txn` facade behaves exactly as the
README quickstart promises.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.config
from repro import (
    Cluster,
    ClusterConfig,
    DurabilityConfig,
    HealingConfig,
    NetworkConfig,
    ReplicationConfig,
    RpcConfig,
    ShardingConfig,
    TransportConfig,
    TxnHandle,
    TxnResult,
)
from repro.config import BatchingConfig, ConfigSerde

pytestmark = pytest.mark.api


# ----------------------------------------------------------------------
# Export surface
# ----------------------------------------------------------------------
def public_config_classes():
    """Every public config dataclass defined in repro.config."""
    return {
        name: obj
        for name, obj in vars(repro.config).items()
        if isinstance(obj, type)
        and issubclass(obj, ConfigSerde)
        and obj is not ConfigSerde
        and not name.startswith("_")
    }


def test_every_public_config_class_is_exported():
    classes = public_config_classes()
    # Inert, accepted only for the frozen ledger registry: not exported.
    del classes["BatchingConfig"]
    assert "BatchingConfig" not in repro.__all__
    assert len(classes) >= 9  # the known surface; growing is fine
    for name, obj in classes.items():
        assert name in repro.__all__, f"{name} missing from repro.__all__"
        assert getattr(repro, name) is obj, f"repro.{name} is a stray alias"


def test_facade_types_are_exported():
    assert repro.TxnHandle is TxnHandle
    assert repro.TxnResult is TxnResult
    assert "TxnHandle" in repro.__all__ and "TxnResult" in repro.__all__


def test_transport_seam_is_part_of_the_public_surface():
    # The transport redesign's contract: the abstract seam type and the
    # one endpoint over it are importable from repro.net, and the
    # selecting config from repro.
    import repro.net
    from repro.net import Network, RpcEndpoint, Transport

    assert issubclass(Network, Transport)
    assert "RpcEndpoint" in repro.net.__all__ and callable(RpcEndpoint.call)
    assert not hasattr(repro.net, "Endpoint")  # was an ABC with one subclass
    assert repro.TransportConfig is TransportConfig
    assert "TransportConfig" in repro.__all__
    assert TransportConfig in public_config_classes().values()


def test_transport_config_defaults_to_sim_and_validates_kind():
    cfg = TransportConfig()
    assert cfg.kind == "sim"
    assert ClusterConfig(num_nodes=3).transport == cfg
    with pytest.raises(ValueError):
        TransportConfig(kind="carrier-pigeon")
    overlay = ClusterConfig.from_dict(
        {"num_nodes": 3, "transport": {"kind": "socket", "time_scale": 2.0}}
    )
    assert overlay.transport.kind == "socket"
    assert overlay.transport.time_scale == 2.0
    assert overlay.transport.host == TransportConfig().host  # defaults kept


def test_cli_config_includes_the_transport_block(capsys):
    from repro.cli import main

    assert main(["config", "--nodes", "3"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["transport"]["kind"] == "sim"
    assert ClusterConfig.from_dict(printed).transport == TransportConfig()


def test_group_commit_and_adaptive_batching_fields_default_off():
    # The perf knobs added with group commit must stay inert by default:
    # fsync cost zero (unbuffered WAL, historical behaviour).
    durability = DurabilityConfig()
    assert durability.fsync_latency == 0.0
    assert durability.group_commit_window == 0.0
    round_tripped = DurabilityConfig.from_dict(
        {"fsync_latency": 1e-4, "group_commit_window": 2e-4}
    )
    assert round_tripped.fsync_latency == 1e-4
    assert round_tripped.group_commit_window == 2e-4
    # The deleted early-flush knob is an unknown key now, and the two
    # surviving fields are validated.
    with pytest.raises(ValueError):
        DurabilityConfig.from_dict({"group_commit_max_records": 8})
    with pytest.raises(ValueError):
        DurabilityConfig(fsync_latency=-1e-6)
    with pytest.raises(ValueError):
        DurabilityConfig(group_commit_window=-1e-6)


def test_replication_defaults_off_and_overlays():
    # Replication must stay inert by default: one copy of every shard,
    # no streams, no failover driver.
    replication = ReplicationConfig()
    assert replication.enabled is False
    assert replication.failover_timeout is None
    assert replication.replication_factor >= 2
    assert replication.mode == "sync"
    cfg = ClusterConfig.from_dict(
        {
            "num_nodes": 3,
            "sharding": {"enabled": True},
            "replication": {
                "enabled": True,
                "replication_factor": 3,
                "mode": "sync",
                "failover_timeout": 4e-3,
            },
        }
    )
    assert cfg.replication.enabled and cfg.replication.replication_factor == 3
    assert cfg.replication.mode == "sync"
    assert cfg.replication.failover_timeout == 4e-3


def test_sharding_defaults_off_and_overlays():
    # Sharding must stay inert by default: clusters keep the consistent
    # hash ring unless opted in.
    sharding = ShardingConfig()
    assert sharding.enabled is False
    assert sharding.num_shards > 0
    cfg = ClusterConfig.from_dict(
        {"num_nodes": 3, "sharding": {"enabled": True, "num_shards": 32}}
    )
    assert cfg.sharding.enabled and cfg.sharding.num_shards == 32


# ----------------------------------------------------------------------
# Config serde round-trip
# ----------------------------------------------------------------------
def optional(strategy):
    return st.none() | strategy

small_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive_floats = st.floats(
    min_value=1e-6, max_value=1.0, allow_nan=False
)

rpc_configs = st.builds(
    RpcConfig,
    request_timeout=optional(positive_floats),
    max_attempts=st.integers(1, 6),
)
network_configs = st.builds(
    NetworkConfig,
    base_latency=positive_floats,
    jitter=small_floats,
    message_delays=st.dictionaries(
        st.sampled_from(["Propagate", "Decide", "Prepare"]),
        small_floats,
        max_size=2,
    ),
    loss_rate=small_floats,
    duplicate_rate=small_floats,
    rpc=rpc_configs,
)
replication_configs = st.builds(
    ReplicationConfig,
    enabled=st.booleans(),
    replication_factor=st.integers(1, 5),
    mode=st.just("sync"),
    failover_timeout=optional(positive_floats),
)
sharding_configs = st.builds(
    ShardingConfig,
    enabled=st.booleans(),
    num_shards=st.integers(1, 256),
)
transport_configs = st.builds(
    TransportConfig,
    kind=st.sampled_from(["sim", "socket"]),
    host=st.sampled_from(["127.0.0.1", "localhost"]),
    base_port=st.integers(0, 65535),
    time_scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)
healing_configs = st.builds(
    HealingConfig,
    heartbeat_interval=optional(positive_floats),
    anti_entropy_interval=optional(positive_floats),
    checkpoint_interval=optional(positive_floats),
)
cluster_configs = st.builds(
    ClusterConfig,
    num_nodes=st.integers(1, 8),
    clients_per_node=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    gc_enabled=st.booleans(),
    prepared_lease=optional(positive_floats),
    batching=st.builds(BatchingConfig, adaptive=st.booleans()),
    durability=st.builds(
        DurabilityConfig,
        wal_enabled=st.booleans(),
        fsync_latency=small_floats,
        group_commit_window=small_floats,
    ),
    healing=healing_configs,
    sharding=sharding_configs,
    replication=replication_configs,
    network=network_configs,
    transport=transport_configs,
)


@given(cluster_configs)
@settings(max_examples=60, deadline=None)
def test_cluster_config_round_trips_through_dict_and_json(cfg):
    assert ClusterConfig.from_dict(cfg.to_dict()) == cfg
    assert ClusterConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_every_config_class_round_trips_at_defaults():
    for name, cls in public_config_classes().items():
        required = [
            f
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        cfg = cls(3) if required else cls()  # num_nodes for ClusterConfig
        assert cls.from_dict(cfg.to_dict()) == cfg, name


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        ClusterConfig.from_dict({"num_nodes": 3, "num_shards": 7})
    # Deleted knobs are unknown keys, not silently accepted ones.
    for overlay in (
        {"durability": {"termination_query": True}},
        {"healing": {"snapshot": {"chunk_records": 64}}},
        {"healing": {"checkpoint": {"max_peer_lag": 2}}},
        {"costs": {"cpu_cores": 8}},
        {"healing": {"detector_enabled": False}},
    ):
        with pytest.raises(ValueError, match="unknown keys"):
            ClusterConfig.from_dict(overlay)


@pytest.mark.parametrize("overlay", [
    {"base_latency": -1e-6},
    {"jitter": -1e-6},
    {"message_delays": {"Propagate": -1e-3}},
    {"loss_rate": 2.0},
    {"duplicate_rate": -0.1},
])
def test_network_config_rejects_what_would_crash_or_hang_a_run(overlay):
    # A negative delay schedules into the past; loss_rate=2.0 drops every
    # message and leaves run_txn waiting forever.
    with pytest.raises(ValueError):
        ClusterConfig.from_dict({"num_nodes": 2, "network": overlay})


def test_from_dict_accepts_partial_overlay():
    cfg = ClusterConfig.from_dict(
        {"num_nodes": 3, "healing": {"anti_entropy_interval": 5e-4}}
    )
    assert cfg.num_nodes == 3
    assert cfg.healing.anti_entropy_interval == 5e-4
    assert cfg.healing.checkpoint_interval is None  # defaults kept
    assert cfg.network == NetworkConfig()


# ----------------------------------------------------------------------
# Transaction facade
# ----------------------------------------------------------------------
def fresh_cluster(protocol="fwkv"):
    cluster = Cluster(protocol, ClusterConfig(num_nodes=4, seed=3))
    cluster.load("account:alice", 100)
    cluster.load("account:bob", 0)
    return cluster


def test_run_txn_executes_the_quickstart_transfer():
    cluster = fresh_cluster()

    def transfer(txn):
        balance = yield from txn.read("account:alice")
        txn.write("account:alice", balance - 10)
        txn.write("account:bob", 10)

    result = cluster.run_txn(transfer)
    assert result.committed and bool(result)
    assert isinstance(result, TxnResult)

    def audit(txn):
        values = yield from txn.read_many(["account:alice", "account:bob"])
        return values

    checked = cluster.run_txn(audit, node=1, read_only=True)
    assert checked.committed
    assert checked.value == {"account:alice": 90, "account:bob": 10}


@pytest.mark.parametrize("protocol", ["fwkv", "walter"])
def test_run_txn_works_on_every_mvcc_protocol(protocol):
    cluster = fresh_cluster(protocol)

    def bump(txn):
        balance = yield from txn.read("account:bob")
        txn.write("account:bob", balance + 5)
        return balance

    result = cluster.run_txn(bump, node=2)
    assert result.committed and result.value == 0


def test_run_txn_plain_function_body_writes_blind():
    cluster = fresh_cluster()
    result = cluster.run_txn(lambda txn: txn.write("account:bob", 42))
    assert result.committed

    def check(txn):
        return (yield from txn.read("account:bob"))

    assert cluster.run_txn(check, read_only=True).value == 42


def test_run_txn_explicit_commit_and_rollback():
    cluster = fresh_cluster()

    def committed_explicitly(txn):
        txn.write("account:bob", 7)
        ok = yield from txn.commit()
        return ok

    result = cluster.run_txn(committed_explicitly)
    assert result.committed and result.value is True

    def rolled_back(txn):
        txn.write("account:bob", 999)
        txn.rollback()
        if False:  # pragma: no cover - makes the body a generator
            yield

    result = cluster.run_txn(rolled_back)
    assert not result.committed

    def check(txn):
        return (yield from txn.read("account:bob"))

    assert cluster.run_txn(check, read_only=True).value == 7


def test_txn_subroutine_composes_inside_one_process():
    cluster = fresh_cluster()

    def add(amount):
        def body(txn):
            balance = yield from txn.read("account:bob")
            txn.write("account:bob", balance + amount)

        return body

    def driver():
        first = yield from cluster.txn(add(1))
        second = yield from cluster.txn(add(2))
        return first, second

    first, second = cluster.run_process(driver())
    assert first.committed and second.committed
    assert first.txn_id != second.txn_id

    def check(txn):
        return (yield from txn.read("account:bob"))

    assert cluster.run_txn(check, read_only=True).value == 3

"""Per-layer micro-benchmarks: direct timed loops on public functions.

One registry, ``MICROS``: metric name -> factory.  A factory sets up its
fixture and returns ``run(n)``, which performs the operation ``n`` times;
``bench`` reports the best of three batches per operation.  Factories
that hold external resources register their teardown on the ``ExitStack``
they are given.

    PYTHONPATH=src python benchmarks/ledger/micro.py [NAME ...]
"""

from __future__ import annotations

import gc
import random
import sys
import time
from contextlib import ExitStack
from typing import Callable, Dict

from repro.cluster.directory import ConsistentHashDirectory, ShardMap
from repro.cluster.node import Node
from repro.config import (
    ClusterConfig,
    NetworkConfig,
    ReplicationConfig,
    ShardingConfig,
    TransportConfig,
)
from repro.core.fwkv.visibility import select_read_only_version
from repro.core.transaction import Transaction
from repro.core.vector_clock import VectorClock
from repro.core.walter.visibility import select_walter_version
from repro.core.wire import DecideBody, PropagateBody, ReadRequestBody
from repro.metrics.stats import MetricsRecorder
from repro.net.network import Network
from repro.net.serde import FrameDecoder, decode_envelope, encode_frame
from repro.net.socket_transport import SocketTransport
from repro.sim.simulator import Simulator
from repro.storage.chain import VersionChain
from repro.storage.locks import LockTable
from repro.storage.store import MultiVersionStore
from repro.storage.wal import PropagateRecord, WriteAheadLog
from repro.system import Cluster
from repro.workloads.distributions import ZipfKeyGenerator
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

from registry import MICRO

SITES = 10  # the ledger's sim workloads run 10 nodes
_UNITS = {metric.name: metric.unit for metric in MICRO}
_PER_SECOND = {"ns": 1e9, "us": 1e6}

Run = Callable[[int], None]


def bench(run: Run, min_time: float = 0.2) -> float:
    """Seconds per operation: grow ``n`` until a batch takes ``min_time``,
    then report the best of three batches (damps scheduler noise).

    The protocol of ``benchmarks/perf/microbench.bench``, kept as a copy:
    the ledger is the yardstick later PRs are measured by, so it imports
    nothing those PRs may rewrite except the program under test (README,
    "Where this departs")."""
    n = 64
    # Collector off: a batch allocates n objects at once, so with it on
    # the per-operation cost would depend on the calibrated n.
    gc.collect()
    gc.disable()
    try:
        while True:
            started = time.perf_counter()
            run(n)
            elapsed = time.perf_counter() - started
            if elapsed >= min_time or n >= 1 << 22:
                break
            n *= 4
        best = elapsed
        for _ in range(2):
            started = time.perf_counter()
            run(n)
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best / n


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def _noop() -> None:
    pass


def sim_call_soon(_stack) -> Run:
    def run(n):
        sim = Simulator()
        for _ in range(n):
            sim.call_soon(_noop)
        sim.run()
    return run


def sim_timer_cancel(_stack) -> Run:
    def run(n):
        sim = Simulator()
        timers = [sim.call_at(1e9 + i, _noop) for i in range(n)]
        for timer in timers:
            timer.cancel()
        sim.call_soon(_noop)
        sim.run()
    return run


def sim_process_switch(_stack) -> Run:
    def run(n):
        sim = Simulator()

        def proc():
            for _ in range(n):
                yield sim.sleep(1e-6)

        sim.spawn(proc())
        sim.run()
    return run


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def core_vc_merge(_stack) -> Run:
    a = VectorClock(range(7, 7 + SITES))
    b = VectorClock(range(SITES, 0, -1))

    def run(n):
        for _ in range(n):
            a.copy().merge(b)
    return run


def core_vc_leq(_stack) -> Run:
    a = VectorClock(range(7, 7 + SITES))
    b = VectorClock(range(SITES, 0, -1))

    def run(n):
        leq = a.leq
        for _ in range(n):
            leq(b)
    return run


def _vas_chain() -> VersionChain:
    """Depth 8, 16 VAS entries per version, all committed by origin 0."""
    chain = VersionChain("k")
    for seq in range(8):
        vc = VectorClock.zeros(SITES)
        vc[0] = seq
        version = chain.install(value=seq, vc=vc, origin=0, seq=seq)
        version.access_set.update(range(100, 116))
    return chain


#: A reader pinned mid-chain at site 0: selection walks four versions.
_PINNED_VC = tuple([4] + [0] * (SITES - 1))
_HAS_READ = tuple([True] + [False] * (SITES - 1))


def core_fwkv_select_ro(_stack) -> Run:
    chain = _vas_chain()

    def run(n):
        for _ in range(n):
            select_read_only_version(chain, _PINNED_VC, _HAS_READ, txn_id=10**9)
    return run


def core_walter_select(_stack) -> Run:
    chain = _vas_chain()

    def run(n):
        for _ in range(n):
            select_walter_version(chain, _PINNED_VC)
    return run


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
def storage_chain_install(_stack) -> Run:
    vc = VectorClock.zeros(SITES)

    def run(n):
        # A fresh store every 4096 installs bounds the chain (and memory).
        for start in range(0, n, 4096):
            install = MultiVersionStore().install
            for seq in range(min(4096, n - start)):
                install("k", seq, vc, 0, seq)
    return run


def storage_chain_by_vid(_stack) -> Run:
    chain = VersionChain("k")
    for seq in range(64):
        chain.install(value=seq, vc=VectorClock.zeros(SITES), origin=0, seq=seq)

    def run(n):
        by_vid = chain.by_vid
        for _ in range(n):
            by_vid(32)
    return run


def storage_vas_remove(_stack) -> Run:
    """A read-only txn's footprint: two VAS entries added, one Remove."""
    store = MultiVersionStore()
    vc = VectorClock.zeros(SITES)
    first = store.create("a", 0, vc)
    second = store.create("b", 0, vc)
    clock = [0]

    def run(n):
        base = clock[0]
        for txn_id in range(base, base + n):
            store.vas_add(first, txn_id)
            store.vas_add(second, txn_id)
            # 1 ms per txn: tombstones expire, so the store stays bounded.
            store.vas_remove_txn(txn_id, txn_id * 1e-3)
        clock[0] = base + n
    return run


def storage_lock_acquire_release(_stack) -> Run:
    def run(n):
        sim = Simulator()
        table = LockTable(sim)
        keys = ("a", "b")

        def proc():
            for _ in range(n):
                yield from table.acquire_write_all(keys, 1, None)
                table.release_write_all(keys, 1)

        sim.spawn(proc())
        sim.run()
    return run


def wal_append(_stack) -> Run:
    record = PropagateRecord(0, 1)

    def run(n):
        append = WriteAheadLog(buffered=True).append
        for _ in range(n):
            append(record)
    return run


def wal_group_sync(_stack) -> Run:
    record = PropagateRecord(0, 1)

    def run(n):
        wal = WriteAheadLog(buffered=True)
        append = wal.append
        mark = wal.mark_durable
        for _ in range(n):
            lsn = append(record)
            if lsn & 31 == 0:
                mark(lsn)
    return run


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
def _read_body() -> ReadRequestBody:
    return ReadRequestBody(
        txn_id=1, is_read_only=True, key="u4242",
        vc=tuple(range(7, 7 + SITES)), has_read=_HAS_READ,
    )


def net_send_deliver(_stack) -> Run:
    def run(n):
        sim = Simulator()
        network = Network(sim, NetworkConfig(), seed=1)
        network.register(0, _noop_deliver)
        network.register(1, _noop_deliver)
        send = network.send
        for _ in range(n):
            send(0, 1, "Propagate", None)
        sim.run()
    return run


def _noop_deliver(_envelope) -> None:
    pass


def _echo_pair(sim, network):
    """Two nodes; node 1 echoes every ``Echo`` request body back."""
    caller, server = Node(sim, 0, network), Node(sim, 1, network)
    server.on("Echo", lambda env: server.rpc.reply(env, server.rpc.body_of(env)))
    return caller


def net_rpc_roundtrip(_stack) -> Run:
    body = _read_body()

    def run(n):
        sim = Simulator()
        caller = _echo_pair(sim, Network(sim, NetworkConfig(), seed=1))

        def proc():
            for _ in range(n):
                yield from caller.rpc.call(1, "Echo", body)

        sim.spawn(proc())
        sim.run()
    return run


def _wire_envelope(msg_type: str, body, rpc: bool):
    """The envelope the fabric really carries for ``body`` (an RPC
    request travels inside the endpoint's request wrapper)."""
    sim = Simulator()
    network = Network(sim, NetworkConfig(), seed=1)
    caller = Node(sim, 0, network)
    captured = []
    Node(sim, 1, network).on(msg_type, captured.append)
    if rpc:
        caller.rpc.request(1, msg_type, body)
    else:
        caller.send(1, msg_type, body)
    sim.run()
    return captured[0]


def _propagate_envelope():
    return _wire_envelope("Propagate", PropagateBody(origin=3, seq_no=4711), False)


def _read_envelope():
    return _wire_envelope("ReadRequest", _read_body(), True)


def _encode(make_envelope) -> Callable:
    def factory(_stack) -> Run:
        envelope = make_envelope()

        def run(n):
            for _ in range(n):
                encode_frame(envelope)
        return run
    return factory


def _decode(make_envelope) -> Callable:
    def factory(_stack) -> Run:
        data = encode_frame(make_envelope())[4:]

        def run(n):
            for _ in range(n):
                decode_envelope(data)
        return run
    return factory


def serde_frame_decoder(_stack) -> Run:
    """Splitting a stream of read-request frames fed in 16 KiB chunks."""
    frame = encode_frame(_read_envelope())
    batch = 1024
    stream = frame * batch
    chunks = [stream[i:i + 16384] for i in range(0, len(stream), 16384)]

    def run(n):
        for _ in range(max(1, n // batch)):
            feed = FrameDecoder().feed
            frames = 0
            for chunk in chunks:
                frames += len(feed(chunk))
            assert frames == batch
    return run


def socket_loopback_rtt(stack) -> Run:
    """Echo RPC over real loopback TCP (one connection, one caller)."""
    sim = Simulator()
    transport = SocketTransport(
        sim, NetworkConfig(), seed=1, num_nodes=2,
        options=TransportConfig(kind="socket"),
    )
    stack.callback(transport.close)
    caller = _echo_pair(sim, transport)
    body = _read_body()

    def run(n):
        def proc():
            for _ in range(n):
                yield from caller.rpc.call(1, "Echo", body)

        transport.pump(stop=sim.spawn(proc()))
    return run


# ----------------------------------------------------------------------
# replication / cluster / metrics / workloads
# ----------------------------------------------------------------------
def replication_stream(stack) -> Run:
    """Primary -> backup apply records through the public hooks: enqueue,
    batched REPLICATE RPC, verbatim install at the backup, ack."""
    cluster = Cluster("fwkv", ClusterConfig(
        num_nodes=2,
        sharding=ShardingConfig(enabled=True, num_shards=4),
        replication=ReplicationConfig(enabled=True, replication_factor=2),
    ))
    stack.callback(cluster.close)
    key = next(
        k for k in (f"u{i}" for i in range(64)) if cluster.directory.site(k) == 0
    )
    cluster.load(key, 0)
    primary = cluster.node(0).replication
    commit_vc = (1, 0)
    seq = [0]

    def run(n):
        # Bursts of 64 keep the outbox short, as it is in a live run.
        for base in range(seq[0], seq[0] + n, 64):
            for seq_no in range(base, base + 64):
                primary.note_apply(
                    DecideBody(seq_no, True, 0, seq_no, commit_vc), {key: seq_no}
                )
            cluster.run()
        seq[0] += n
    return run


def _site_lookup(directory) -> Run:
    """Steady-state placement lookups (the directories memoise per key)."""
    keys = [f"u{i}" for i in range(1024)]
    site = directory.site
    for key in keys:
        site(key)

    def run(n):
        for i in range(n):
            site(keys[i & 1023])
    return run


def cluster_shardmap_site(_stack) -> Run:
    return _site_lookup(ShardMap(list(range(SITES)), 64))


def cluster_ring_site(_stack) -> Run:
    return _site_lookup(ConsistentHashDirectory(list(range(SITES))))


def metrics_on_commit(_stack) -> Run:
    recorder = MetricsRecorder(Simulator())
    recorder.open_window(0.0)
    txn = Transaction(1, 0, SITES, True)

    def run(n):
        on_commit = recorder.on_commit
        for _ in range(n):
            on_commit(txn, 160e-6, 1)
    return run


def workloads_ycsb_generate(_stack) -> Run:
    workload = YCSBWorkload(YCSBConfig(num_keys=100_000))
    rng = random.Random(1)

    def run(n):
        generate = workload.generate
        for _ in range(n):
            generate(rng, 0)
    return run


def workloads_zipf_sample(_stack) -> Run:
    chooser = ZipfKeyGenerator(100_000, 1.1)
    rng = random.Random(1)

    def run(n):
        sample = chooser.sample
        for _ in range(n):
            sample(rng, 2)
    return run


#: metric name -> factory; the name's unit is in ``registry.MICRO``.
MICROS: Dict[str, Callable] = {
    "sim.call_soon_ns": sim_call_soon,
    "sim.timer_cancel_ns": sim_timer_cancel,
    "sim.process_switch_ns": sim_process_switch,
    "core.vc_merge_ns": core_vc_merge,
    "core.vc_leq_ns": core_vc_leq,
    "core.fwkv_select_ro_ns": core_fwkv_select_ro,
    "core.walter_select_ns": core_walter_select,
    "storage.chain_install_ns": storage_chain_install,
    "storage.chain_by_vid_ns": storage_chain_by_vid,
    "storage.vas_remove_ns": storage_vas_remove,
    "storage.lock_acquire_release_ns": storage_lock_acquire_release,
    "storage.wal.append_ns": wal_append,
    "storage.wal.group_sync_ns_per_record": wal_group_sync,
    "net.send_deliver_ns": net_send_deliver,
    "net.rpc_roundtrip_ns": net_rpc_roundtrip,
    "net.serde.encode_frame_propagate_ns": _encode(_propagate_envelope),
    "net.serde.encode_frame_read_ns": _encode(_read_envelope),
    "net.serde.decode_envelope_propagate_ns": _decode(_propagate_envelope),
    "net.serde.decode_envelope_read_ns": _decode(_read_envelope),
    "net.serde.frame_decoder_ns_per_frame": serde_frame_decoder,
    "net.socket.loopback_rtt_us": socket_loopback_rtt,
    "replication.stream_ns_per_record": replication_stream,
    "cluster.shardmap_site_ns": cluster_shardmap_site,
    "cluster.ring_site_ns": cluster_ring_site,
    "metrics.on_commit_ns": metrics_on_commit,
    "workloads.ycsb_generate_ns": workloads_ycsb_generate,
    "workloads.zipf_sample_ns": workloads_zipf_sample,
}


def run_micros(names=None, min_time: float = 0.2) -> Dict[str, float]:
    """Time the named micros (default: all); values in each name's unit."""
    results = {}
    for name in names or MICROS:
        with ExitStack() as stack:
            seconds = bench(MICROS[name](stack), min_time)
        results[name] = seconds * _PER_SECOND[_UNITS[name]]
    return results


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or None
    unknown = [name for name in names or () if name not in MICROS]
    if unknown:
        print(f"unknown micro(s) {unknown}; choose from {sorted(MICROS)}")
        return 2
    results = run_micros(names)
    width = max(len(name) for name in results)
    for name, value in results.items():
        print(f"{name:<{width}}  {value:>12.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

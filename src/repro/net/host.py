"""Multi-process cluster hosting: one OS process per node, real TCP between.

Two halves:

* :class:`NodeHost` (run via ``python -m repro.net.host``) builds the
  stack for **one** node -- simulator, :class:`SocketTransport` hosting
  just that node id, directory, history, protocol node -- loads the
  keys the directory places on it, drives the harness's own closed-loop
  clients (:func:`repro.harness.runner.client_loop` over the seeded
  :func:`host_workload`), and reports its history slice back as JSON.
* :func:`launch_cluster` (the parent; ``scripts/socket_cluster.py`` is
  its CLI) spawns one child per node, coordinates the phases below over
  the children's stdin/stdout, merges the reported histories and
  version catalogs, and runs the oracle over the union -- the same
  ``check_psi`` verdict (plus ``check_fresh`` under FW-KV) the simulated
  suites use, now auditing an execution that crossed real process and
  socket boundaries.

Phase protocol (JSON lines; child stdout is reserved for it):

1. child -> ``{"event": "listening", "node": i, "host": h, "port": p}``
2. parent -> ``{"cmd": "start", "peers": {id: [host, port], ...}}`` --
   the complete address book; the child wires its transport, loads its
   keys, spawns its clients, and pumps to the virtual stop time plus a
   drain grace (so peers' in-flight transactions finish against it).
3. child -> ``{"event": "done", ...counters}``
4. parent -> ``{"cmd": "report"}``; child -> one report line carrying
   its committed-transaction records, version catalog and the counters
   of its ``MetricsRecorder`` (the parent sums them).
5. parent -> ``{"cmd": "exit"}``; child closes its transport and exits.

Cross-process invariants that make the merge sound:

* **Placement** is :class:`ConsistentHashDirectory` over CRC32, stable
  across processes by construction (no ``PYTHONHASHSEED`` games).
* **Transaction ids** are unique cluster-wide without coordination:
  node ``i`` draws from ``count(i + 1, num_nodes)`` -- disjoint residue
  classes.
* **Stragglers degrade safely**: a version whose writer was still in
  flight when reports were cut simply lacks a catalog entry, and the
  oracle skips unknown versions rather than miscounting them.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import subprocess
import sys
import threading
from typing import List, Optional, Tuple

from repro.cluster.directory import ConsistentHashDirectory
from repro.cluster.node import Node
from repro.config import ClusterConfig
from repro.core.interfaces import SharedState
from repro.harness.runner import client_loop
from repro.metrics.history import History, OpRecord, TxnRecord
from repro.metrics.psi_checker import VersionCatalog, check_fresh, check_psi
from repro.metrics.stats import MetricsRecorder
from repro.net.socket_transport import SocketTransport
from repro.sim import Simulator
from repro.system import PROTOCOLS, resolve_write_vids, version_catalog_of
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

#: Wall-clock ceiling for each phase handshake (spawn, report, exit).
PHASE_TIMEOUT = 60.0


def host_workload(num_keys: int) -> YCSBWorkload:
    """What every child's clients run: half read-only pairs, half
    read-modify-writes of a pair, uniform over ``num_keys`` keys."""
    return YCSBWorkload(
        YCSBConfig(num_keys=num_keys, read_only_fraction=0.5, keys_per_txn=2)
    )


# ----------------------------------------------------------------------
# Child: one node per process
# ----------------------------------------------------------------------
class NodeHost:
    """One node's full stack inside its own process.

    To :func:`~repro.harness.runner.client_loop` it stands in for the
    cluster: ``sim``, ``config``, ``metrics`` and ``node(node_id)`` are
    all that loop reads of one.
    """

    def __init__(
        self,
        protocol: str,
        config: ClusterConfig,
        node_id: int,
        num_keys: int,
        duration: float,
        grace: float,
    ) -> None:
        self.config = config
        self.node_id = node_id
        self.workload = host_workload(num_keys)
        self.duration = duration
        self.grace = grace
        self.sim = Simulator()
        port = (
            config.transport.base_port + node_id
            if config.transport.base_port
            else 0
        )
        self.transport = SocketTransport(
            self.sim,
            config.network,
            seed=config.seed,
            num_nodes=config.num_nodes,
            options=config.transport,
            local_nodes=[node_id],
            port=port,
        )
        self.directory = ConsistentHashDirectory(list(config.node_ids))
        self.history = History()
        self.metrics = MetricsRecorder(self.sim)
        self._node = PROTOCOLS[protocol](
            Node(self.sim, node_id, self.transport),
            SharedState(
                sim=self.sim,
                config=config,
                directory=self.directory,
                metrics=self.metrics,
                history=self.history,
                # Disjoint residue classes: cluster-unique ids, no
                # coordination.
                _txn_ids=itertools.count(node_id + 1, config.num_nodes),
            ),
        )

    def node(self, _node_id: int):
        """The one protocol node this process hosts."""
        return self._node

    # -- workload ------------------------------------------------------
    def load_owned(self) -> int:
        """Install the workload's baseline for every key this node owns."""
        return self._node.load_many(
            (key, value)
            for key, value in self.workload.load_items()
            if self.directory.place(key) == self.node_id
        )

    def run_workload(self) -> None:
        stop_time = self.sim.now + self.duration
        for client_id in range(self.config.clients_per_node):
            self.sim.spawn(
                client_loop(
                    self, self.node_id, client_id, self.workload, stop_time
                ),
                name=f"client-{self.node_id}-{client_id}",
            )
        # The grace keeps this node answering peers' in-flight
        # transactions after its own clients stopped issuing.
        self.transport.pump(until=stop_time + self.grace)

    # -- reporting -----------------------------------------------------
    def report(self) -> dict:
        metrics = self.metrics
        catalog = [
            [key, vid, *entry]
            for (key, vid), entry in version_catalog_of([self._node]).items()
        ]
        records = [
            {
                "txn_id": r.txn_id,
                "node_id": r.node_id,
                "is_read_only": r.is_read_only,
                "start_time": r.start_time,
                "end_time": r.end_time,
                "seq_no": r.seq_no,
                "commit_vc": list(r.commit_vc) if r.commit_vc else None,
                "profile": r.profile,
                "write_keys": list(r.write_keys),
                "ops": [
                    [op.kind, op.key, op.vid, op.latest_vid_at_read]
                    for op in r.ops
                ],
            }
            for r in self.history
        ]
        return {
            "event": "report",
            "node": self.node_id,
            "committed": metrics.commits,
            "aborted": metrics.aborts,
            "records": records,
            "catalog": catalog,
            "counters": {"commits": metrics.commits, **metrics.counters},
            "stats": {
                "messages_sent": self.transport.stats.messages_sent,
                "messages_dropped": self.transport.stats.messages_dropped,
            },
        }


def _child_main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="FW-KV node host (one process = one node)"
    )
    parser.add_argument("--node", type=int, required=True)
    parser.add_argument("--protocol", default="fwkv")
    parser.add_argument("--config-json", required=True,
                        help="ClusterConfig.to_dict() as JSON")
    parser.add_argument("--num-keys", type=int, default=64)
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--grace", type=float, default=0.5)
    args = parser.parse_args(argv)

    config = ClusterConfig.from_dict(json.loads(args.config_json))
    host = NodeHost(
        args.protocol, config, args.node, args.num_keys, args.duration,
        args.grace,
    )

    def emit(obj: dict) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    def expect(cmd: str) -> dict:
        line = sys.stdin.readline()
        if not line:
            raise RuntimeError(f"parent vanished while child awaited {cmd!r}")
        msg = json.loads(line)
        if msg.get("cmd") != cmd:
            raise RuntimeError(f"expected {cmd!r}, got {msg!r}")
        return msg

    listen_host, listen_port = host.transport.listen_address
    emit({"event": "listening", "node": args.node,
          "host": listen_host, "port": listen_port})
    try:
        start = expect("start")
        host.transport.set_peers(
            {int(k): (v[0], v[1]) for k, v in start["peers"].items()}
        )
        loaded = host.load_owned()
        host.run_workload()
        emit({"event": "done", "node": args.node, "loaded": loaded,
              "committed": host.metrics.commits,
              "aborted": host.metrics.aborts})
        expect("report")
        emit(host.report())
        expect("exit")
    finally:
        host.transport.close()
    return 0


# ----------------------------------------------------------------------
# Parent: spawn, coordinate, merge, check
# ----------------------------------------------------------------------
class _Child:
    """One spawned node-host process plus a reader thread for its stdout."""

    def __init__(self, node_id: int, proc: subprocess.Popen) -> None:
        self.node_id = node_id
        self.proc = proc
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def recv(self, event: str, timeout: float) -> dict:
        while True:
            line = self.lines.get(timeout=timeout)
            if line is None:
                raise RuntimeError(
                    f"node {self.node_id} exited before sending {event!r} "
                    f"(rc={self.proc.poll()})"
                )
            msg = json.loads(line)
            if msg.get("event") == event:
                return msg

    def send(self, obj: dict) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()


def _merge_reports(reports: List[dict]) -> Tuple[History, VersionCatalog]:
    """Union the children's histories and catalogs, then resolve write
    vids against the merged catalog exactly as a :class:`Cluster` does."""
    history = History()
    catalog: VersionCatalog = {}
    for report in reports:
        for key, vid, origin, seq, writer in report["catalog"]:
            catalog[(key, vid)] = (origin, seq, writer)
        for raw in report["records"]:
            history.append(
                TxnRecord(
                    txn_id=raw["txn_id"],
                    node_id=raw["node_id"],
                    is_read_only=raw["is_read_only"],
                    start_time=raw["start_time"],
                    end_time=raw["end_time"],
                    ops=[
                        OpRecord(kind, key, vid, latest)
                        for kind, key, vid, latest in raw["ops"]
                    ],
                    seq_no=raw["seq_no"],
                    commit_vc=tuple(raw["commit_vc"])
                    if raw["commit_vc"] is not None
                    else None,
                    profile=raw["profile"],
                    write_keys=tuple(raw["write_keys"]),
                )
            )
    return resolve_write_vids(history, catalog), catalog


def run_cluster(
    protocol: str,
    config: ClusterConfig,
    *,
    num_keys: int = 64,
    duration: float = 1.0,
    grace: float = 0.5,
) -> Tuple[dict, History, VersionCatalog]:
    """Spawn ``config.num_nodes`` node-host processes, run the seeded
    workload over real TCP and merge the reports: ``(summary, history,
    catalog)``, unchecked.  Raises if any child fails."""
    if config.transport.kind != "socket":
        raise ValueError(
            'launch_cluster requires TransportConfig(kind="socket")'
        )
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    config_json = json.dumps(config.to_dict())
    children: List[_Child] = []
    try:
        for node_id in config.node_ids:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.net.host",
                    "--node", str(node_id),
                    "--protocol", protocol,
                    "--config-json", config_json,
                    "--num-keys", str(num_keys),
                    "--duration", str(duration),
                    "--grace", str(grace),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=None,  # inherit: child tracebacks stay visible
                text=True,
                env=env,
            )
            children.append(_Child(node_id, proc))

        peers = {}
        for child in children:
            msg = child.recv("listening", PHASE_TIMEOUT)
            peers[str(child.node_id)] = [msg["host"], msg["port"]]
        for child in children:
            child.send({"cmd": "start", "peers": peers})

        # Wall budget: virtual run length mapped through time_scale,
        # plus slack for loading and scheduling.
        run_budget = (
            (duration + grace) / config.transport.time_scale + PHASE_TIMEOUT
        )
        done = [child.recv("done", run_budget) for child in children]

        reports = []
        for child in children:
            child.send({"cmd": "report"})
            reports.append(child.recv("report", PHASE_TIMEOUT))
        for child in children:
            child.send({"cmd": "exit"})
        exit_codes = [child.proc.wait(timeout=PHASE_TIMEOUT)
                      for child in children]
    finally:
        for child in children:
            if child.proc.poll() is None:
                child.proc.kill()

    if any(exit_codes):
        raise RuntimeError(f"node host(s) failed: exit codes {exit_codes}")
    history, catalog = _merge_reports(reports)
    summary = {
        "protocol": protocol,
        "num_nodes": config.num_nodes,
        "committed": sum(r["committed"] for r in reports),
        "aborted": sum(r["aborted"] for r in reports),
        "loaded": sum(d["loaded"] for d in done),
        "history_records": len(history),
        "messages_sent": sum(r["stats"]["messages_sent"] for r in reports),
        # Every child's recorder, summed (the one maximum stays one).
        "counters": {
            name: (max if name.endswith("_max") else sum)(
                r["counters"][name] for r in reports
            )
            for name in reports[0]["counters"]
        },
        "exit_codes": exit_codes,
        "checks": "skipped",
    }
    return summary, history, catalog


def launch_cluster(
    protocol: str = "fwkv",
    config: Optional[ClusterConfig] = None,
    *,
    num_keys: int = 64,
    duration: float = 1.0,
    grace: float = 0.5,
) -> dict:
    """Run a multi-process socket cluster end to end; returns a summary.

    :func:`run_cluster`, then the oracle over the merged history: the
    PSI verdict, plus FW-KV's freshness verdict under FW-KV.  Raises if
    any child fails, a verdict finds a violation or nothing committed.
    """
    summary, history, catalog = run_cluster(
        protocol, config or ClusterConfig(num_nodes=3),
        num_keys=num_keys, duration=duration, grace=grace,
    )
    fresh = [check_fresh(history)] if protocol == "fwkv" else []
    for result in [check_psi(history, catalog)] + fresh:
        if not result.ok:
            raise RuntimeError(f"oracle violated: {result.violations[:3]}")
    if summary["committed"] <= 0:
        raise RuntimeError("socket cluster committed no transactions")
    summary["checks"] = "green"
    return summary


if __name__ == "__main__":
    sys.exit(_child_main())

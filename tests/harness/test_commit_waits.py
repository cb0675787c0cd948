"""``scripts/commit_waits.py``: the wait table on a shortened repeat."""

import dataclasses
import importlib.util
from pathlib import Path

from repro.replication.shard import NodeReplication

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "commit_waits.py"


def test_a_replicated_update_commit_waits_once_for_its_decision():
    spec = importlib.util.spec_from_file_location("commit_waits", SCRIPT)
    commit_waits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(commit_waits)
    workload = commit_waits.WORKLOADS_BY_NAME["ycsb_replicated"]
    short = dataclasses.replace(
        workload, warmup=0.0005, duration=0.0015,
        ycsb=dataclasses.replace(workload.ycsb, num_keys=2_000),
    )
    hooks = (NodeReplication.replicate_prepare, NodeReplication.replicate_decision)
    *rows, per_commit = commit_waits.report(commit_waits.measure(short, 7000))
    assert hooks == (
        NodeReplication.replicate_prepare, NodeReplication.replicate_decision
    ), "the probes must come off again"
    by_phase = {row[0]: row for row in rows}
    commits = by_phase["vote collection"][1]
    assert commits > 50
    assert by_phase["ensure_durable"][1] == 0  # no WAL on this workload
    # S4: every participant streams its prepare, none waits for it ...
    assert by_phase["prepare replication wait"][1] >= commits
    assert by_phase["prepare replication wait"][2] == 0
    # ... S3: the coordinator waits once, about one backup round trip.
    assert 0.9 <= per_commit <= 1.05
    assert 40.0 < by_phase["decision replication wait"][4] < 80.0

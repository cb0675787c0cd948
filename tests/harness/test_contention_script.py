"""``scripts/contention.py``: the per-rank table on a shortened repeat."""

import dataclasses
import importlib.util
from pathlib import Path

from repro.metrics.stats import MetricsRecorder

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "contention.py"


def test_the_hot_rank_commits_in_line_and_the_table_adds_up():
    spec = importlib.util.spec_from_file_location("contention", SCRIPT)
    contention = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(contention)
    workload = contention.WORKLOADS_BY_NAME["ycsb_zipf"]
    short = dataclasses.replace(
        workload, warmup=0.002, duration=0.02,
        ycsb=dataclasses.replace(workload.ycsb, num_keys=5_000),
    )
    hooks = (MetricsRecorder.on_commit, MetricsRecorder.on_abort)
    table = contention.report(contention.measure(short, 7000))
    assert hooks == (MetricsRecorder.on_commit, MetricsRecorder.on_abort), (
        "the wrappers must come off again"
    )
    rows = {row["rank"]: row for row in table["rows"]}
    assert list(rows) == list(contention.RANKS)
    hot, rest = rows["0"], rows["rest"]
    assert hot["commits"] > 50 and rest["commits"] > hot["commits"]
    for row in rows.values():
        assert row["commits"] == row["queued_commits"] + row["unqueued_commits"]
        assert row["p99_us"] >= row["mean_us"] * 0.5 > 0
    # The hot key is handed over in line: nearly every commit of it is a
    # queued retry's, at about two attempts each; the cold ranks mostly
    # commit on their first, unqueued attempt.
    assert hot["queued_commits"] >= 0.9 * hot["commits"]
    assert 1.5 < hot["attempts_per_commit"] < 3.0
    assert rest["unqueued_commits"] > 0.8 * rest["commits"]
    assert rest["attempts_per_commit"] < 1.2
    assert table["places_taken"] == sum(
        row["queued_commits"] + row["queued_aborts"] for row in rows.values()
    )
    assert table["places_expired"] <= 2
    # One key's serial cycle: read, second read, prepare, decide.
    assert 150.0 < table["hot_interval_us"] < 400.0

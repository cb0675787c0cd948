"""``scripts/callback_wall.py``: the per-entry wall table on a shortened
repeat, and what it shows of the kernel: a simulated YCSB run pauses
with bare delays only, so no ``sim.timeout`` event is ever scheduled."""

import dataclasses
import importlib.util
from collections import Counter
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "callback_wall.py"


def test_every_pause_of_a_ycsb_run_is_a_bare_delay():
    spec = importlib.util.spec_from_file_location("callback_wall", SCRIPT)
    callback_wall = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(callback_wall)
    workload = callback_wall.WORKLOADS_BY_NAME["ycsb_uniform"]
    short = dataclasses.replace(
        workload, warmup=0.0005, duration=0.0015,
        ycsb=dataclasses.replace(workload.ycsb, num_keys=2_000),
    )
    wall, count = Counter(), Counter()
    commits, _wall_s = callback_wall.run_once(short, 7000, wall, count)
    assert commits > 50
    assert commits == callback_wall.run_once(short, 7000)[0], "timing moves nothing"
    assert set(wall) == set(count)
    # The client's overhead and retry pauses and every CPU charge.
    assert count["delay -> client"] >= commits
    assert count["delay -> ReadRequest"] > 0 and count["delay -> Prepare"] > 0
    assert "timeout expiry" not in count

"""``scripts/setup_wall.py``: the set-up phase split on a shortened
ledger workload adds up, and each phase lands where the load spends it."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "setup_wall.py"


@pytest.mark.parametrize("name", ["ycsb_uniform", "ycsb_durable", "ycsb_replicated"])
def test_the_phases_add_up_to_the_set_up(name):
    spec = importlib.util.spec_from_file_location("setup_wall", SCRIPT)
    setup_wall = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_wall)
    workload = setup_wall.WORKLOADS_BY_NAME[name]
    short = dataclasses.replace(
        workload, ycsb=dataclasses.replace(workload.ycsb, num_keys=5_000))
    spent = setup_wall.set_up(short, 7000, setup_wall.Reference())
    assert set(spent) == set(setup_wall.PHASES) | {"total"}
    assert spent["total"] == sum(spent[phase] for phase in setup_wall.PHASES)
    # Nested timers: a node's load holds its store insert, the cluster's
    # load its placement and its nodes' loads, so no remainder is negative.
    assert all(spent[phase] > 0 for phase in setup_wall.PHASES if phase != "LoadRecord")
    assert spent["LoadRecord"] >= 0

"""Each deterministic ledger workload's gate run -- ``measure.gate``'s seed
and ``gate_duration``, through ``timed_build`` / ``drive`` -- into the full
verdict (``measure.gate`` itself still asks the two partial views)."""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.metrics import check_fresh, check_psi
from repro.system import resolve_write_vids
from tests.harness.oracle import assert_verdict

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"))
import measure  # noqa: E402
from measure import GATE_INDEX, drive, sub_seed, timed_build  # noqa: E402
from registry import DEFAULT_SEED, WORKLOADS, WORKLOADS_BY_NAME  # noqa: E402


@pytest.fixture(autouse=True)
def nominal_yardstick(monkeypatch):
    """No wall-clock yardstick work: no verdict reads wall seconds."""
    def tick(reference):
        reference.chunks += 1
        reference.seconds += reference.CHUNK_NOMINAL_S

    monkeypatch.setattr(measure.Reference, "tick", tick)


def gate_history(spec):
    """``(history, catalog)`` of ``spec``'s gate run."""
    cluster, workload, _setup_s, _raw_s = timed_build(
        spec, sub_seed(DEFAULT_SEED, GATE_INDEX), record_history=True
    )
    try:
        drive(cluster, workload, 0.0, spec.gate_duration)
        catalog = cluster.version_catalog()
        return resolve_write_vids(cluster.history, catalog), catalog
    finally:
        cluster.close()


def test_every_ledger_gate_run_passes_the_full_verdict():
    gated = [spec for spec in WORKLOADS if spec.deterministic]
    for spec in gated:
        assert_verdict(*gate_history(spec), fresh=spec.protocol == "fwkv")


def test_walter_fails_freshness_where_fwkv_passes():
    """The uniform rows on a thousand keys: Walter's begin-time snapshot
    serves stale first reads, FW-KV's first contacts never do."""
    for name, fresh in (("ycsb_uniform_walter", False), ("ycsb_uniform", True)):
        spec = WORKLOADS_BY_NAME[name]
        ycsb = dataclasses.replace(spec.ycsb, num_keys=1_000)
        history, catalog = gate_history(dataclasses.replace(spec, ycsb=ycsb))
        assert check_psi(history, catalog).ok
        assert check_fresh(history).ok is fresh

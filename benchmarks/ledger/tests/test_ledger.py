"""Self-tests of the perf ledger (run by path, ~15 s):

    python -m pytest benchmarks/ledger/tests -q
"""

import dataclasses
import json
import os
import re
import sys

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
PACKAGE = os.path.join(ROOT, "src", "repro")
sys.path[:0] = [LEDGER, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import registry  # noqa: E402
from micro import MICROS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_manifest_is_within_the_contract_limits():
    doc = registry.manifest()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for workload in doc["workloads"]:
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(json.dumps(doc)) < 64 * 1024


def test_every_metric_has_unit_direction_and_bound():
    for metric in registry.GATED:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
        assert 0 < metric.bound <= 0.25
    # A metric that can read 0 needs an absolute floor to be gated at all.
    assert all(metric.floor > 0 for metric in registry.LEDGER_ONLY)
    for metric in registry.per_layer():
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
        assert metric.bound is None
    setup = {m.name: m for m in registry.END_TO_END}["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in registry.END_TO_END)


def test_benchmark_json_matches_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == registry.manifest()


def test_every_module_under_src_repro_has_a_layer():
    for directory, _dirs, files in os.walk(PACKAGE):
        for file in files:
            if file.endswith(".py"):
                relative = os.path.relpath(os.path.join(directory, file), PACKAGE)
                layer = registry.layer_of(relative.replace(os.sep, "/"))
                assert layer in registry.LAYERS, f"no layer for {relative}"


def test_boundary_functions_and_micros_exist():
    for name, targets in registry.BOUNDARIES.items():
        for path, function in targets:
            with open(os.path.join(PACKAGE, path), encoding="utf-8") as fh:
                assert f"def {function}(" in fh.read(), (name, path, function)
    assert set(MICROS) == {m.name for m in registry.MICRO}


def _tiny(spec):
    """A CI-sized cut of a workload: same shape, a fraction of the work."""
    return dataclasses.replace(
        spec,
        cluster=dataclasses.replace(spec.cluster, num_nodes=3, clients_per_node=2),
        ycsb=dataclasses.replace(spec.ycsb, num_keys=500),
        warmup=0.001, duration=0.004, gate_duration=0.002,
    )


def test_smoke_run_emits_every_declared_metric(monkeypatch):
    monkeypatch.setattr(layers, "TRACE_MICRO_MIN_TIME", 0.0005)
    spec = _tiny(registry.WORKLOADS_BY_NAME["ycsb_durable"])

    result = measure.measure(spec, seed=3, seconds=1, repeats=2)
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == [m.name for m in registry.GATED]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert all(result["metrics"][m.name]["value"] != 0 for m in registry.END_TO_END)
    # Repeats draw different inputs; the same seed reproduces them exactly.
    again = measure.measure(spec, seed=3, seconds=1, repeats=2)
    assert [measure.fingerprint(r) for r in again["repeats"]] == [
        measure.fingerprint(r) for r in result["repeats"]
    ]

    traced = layers.trace(spec, seed=3)
    assert traced["correct"], traced["problems"]
    assert list(traced["metrics"]) == [m.name for m in registry.per_layer()]
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    assert values["storage.wal.calls_per_commit"] > 0
    assert values["replication.calls_per_commit"] == 0
    assert values["net.serde.calls_per_commit"] == 0
    assert abs(values["trace_self_time_coverage"] - 1.0) < 0.1


def test_gate_reports_a_nondeterministic_or_faulty_run():
    spec = _tiny(registry.WORKLOADS_BY_NAME["ycsb_uniform"])
    assert measure.gate(spec, seed=5)["problems"] == []
    row = {"net.rpc_timeouts": 2, "net.msgs_dropped": 0, "failed": 0,
           "commits": 0, "seed": 5}
    assert measure.run_problems(row) == [
        "net.rpc_timeouts = 2 on a fault-free workload",
        "seed 5 committed nothing",
    ]


def test_a_run_that_commits_nothing_is_reported_not_crashed_on():
    # A 1 ns window sees no commit: the broken change the gate exists for
    # must still end in a result with problems, not in a traceback.
    spec = dataclasses.replace(
        _tiny(registry.WORKLOADS_BY_NAME["ycsb_uniform"]),
        duration=1e-9, gate_duration=1e-9,
    )
    result = measure.measure(spec, seed=5, seconds=1, repeats=2)
    assert not result["correct"]
    assert sum("committed nothing" in p for p in result["problems"]) == 3
    assert result["metrics"]["attempts_per_commit"]["value"] == 0.0
    traced = layers.trace(spec, seed=5)
    assert not traced["correct"]
    assert traced["metrics"]["sim.calls_per_commit"]["value"] == 0.0


def _metric(value, q1=None, q3=None, better="lower", bound=0.1, exact=False,
            floor=0.0):
    return {
        "value": value, "q1": value if q1 is None else q1,
        "q3": value if q3 is None else q3,
        "better": better, "bound": bound, "exact": exact, "floor": floor,
    }


def test_compare_verdicts():
    verdict = lambda a, b: compare.verdict(a, b)[0]  # noqa: E731
    assert verdict(_metric(100), _metric(105)) == "unchanged"
    assert verdict(_metric(100), _metric(111)) == "regressed"
    assert verdict(_metric(100), _metric(89)) == "improved"
    higher = dict(better="higher")
    assert verdict(_metric(100, **higher), _metric(89, **higher)) == "regressed"
    assert verdict(_metric(100, **higher), _metric(111, **higher)) == "improved"
    # Quartiles wider than the bound: the sets cannot tell.
    assert verdict(_metric(100, 90, 104), _metric(120)) == "unresolved"
    assert verdict(_metric(100), _metric(120, 110, 125)) == "unresolved"
    # Medians apart by more than the bound, quartile ranges still touching.
    assert verdict(_metric(100, 96, 105), _metric(112, 104, 113)) == "unresolved"
    assert verdict(_metric(100, 96, 103), _metric(112, 104, 113)) == "regressed"
    # Exact (deterministic) metrics carry no noise: the spread is input
    # variation across the run's repeats, not a reason to abstain.
    noisy = dict(q1=80, q3=120, exact=True)
    assert verdict(_metric(100, **noisy), _metric(120, **noisy)) == "regressed"
    assert verdict(_metric(100, **noisy), _metric(100, **noisy)) == "unchanged"
    # "1% or 0.005 abs": the floor gates a zero or near-zero baseline.
    rate = dict(bound=0.01, floor=0.005, exact=True)
    assert verdict(_metric(0.0, **rate), _metric(0.0, **rate)) == "unchanged"
    assert verdict(_metric(0.0, **rate), _metric(0.004, **rate)) == "unchanged"
    assert verdict(_metric(0.0, **rate), _metric(0.006, **rate)) == "regressed"
    assert verdict(_metric(0.0002, **rate), _metric(0.16, **rate)) == "regressed"
    assert verdict(_metric(0.79, **rate), _metric(0.797, **rate)) == "unchanged"
    assert verdict(_metric(0.79, **rate), _metric(0.78, **rate)) == "improved"


def _set(value, commits):
    return {
        "seed": 7, "seconds": 10, "trace": 0,
        "workloads": {"w": {
            "deterministic": True,
            "metrics": {"m": _metric(value), "layer.x": {"value": 1.0}},
            "rows": [{"seed": 7000, "commits": commits, "aborts": 0, "events": 9}],
        }},
    }


def test_compare_sets_and_exit_codes(tmp_path, capsys):
    def run(a, b, *flags):
        paths = []
        for name, doc in (("a.json", a), ("b.json", b)):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return compare.main(paths + list(flags))

    assert run(_set(100, 50), _set(101, 50), "--expect-identical") == 0
    assert run(_set(100, 50), _set(130, 50)) == 1
    assert "regressed" in capsys.readouterr().out
    assert run(_set(100, 50), _set(100, 51)) == 0
    assert run(_set(100, 50), _set(100, 51), "--expect-identical") == 1
    assert "DIFFER" in capsys.readouterr().out
    other_seed = dict(_set(100, 50), seed=8)
    assert run(_set(100, 50), other_seed) == 2

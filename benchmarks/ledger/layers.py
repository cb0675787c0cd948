"""The per-layer pass (``--trace 1``): profile, counters, micro-benches.

End-to-end numbers never come from here.  One untraced repeat gives the
counters and the reference run time; the same repeat under ``cProfile``
(enabled for the run phase only) gives self time and primitive call
counts rolled up by module path into the ``src/repro`` packages;
``trace_overhead_x`` is the ratio of the two run times.  cProfile charges
every Python call but not the work inside builtins, so the shares are a
map of where to look, not a prediction of the saving.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict

from measure import (
    GATE_INDEX, fingerprint, gate, repeat, run_problems, sub_seed,
)
from micro import run_micros
from registry import BOUNDARIES, COUNTERS, LAYERS, Workload, layer_of, per_layer

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
_PACKAGE = os.sep + os.path.join("src", "repro") + os.sep
#: Micro-benches ride along in every trace run, so they get a short batch.
TRACE_MICRO_MIN_TIME = 0.02


def classify(filename: str) -> tuple:
    """(layer, path relative to src/repro or None) of a profiled file."""
    at = filename.rfind(_PACKAGE)
    if at >= 0:
        relative = filename[at + len(_PACKAGE):].replace(os.sep, "/")
        return layer_of(relative) or "harness", relative
    if filename.startswith(LEDGER_DIR):
        return "harness", None
    return "python", None


def rollup(profile: cProfile.Profile, commits: int, run_wall_s: float) -> Dict[str, float]:
    """Profile -> ``<layer>.*`` and ``<boundary>.*`` metrics."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    wanted = {
        target: name for name, targets in BOUNDARIES.items() for target in targets
    }
    boundary_calls = dict.fromkeys(BOUNDARIES, 0)
    boundary_cum_s = dict.fromkeys(BOUNDARIES, 0.0)
    for (filename, _line, function), (primitive, _total, tottime, cumtime, _callers) \
            in pstats.Stats(profile).stats.items():
        layer, relative = classify(filename)
        self_s[layer] += tottime
        calls[layer] += primitive
        boundary = wanted.get((relative, function))
        if boundary is not None:
            boundary_calls[boundary] += primitive
            boundary_cum_s[boundary] += cumtime
    per_commit = 1.0 / commits if commits else 0.0
    out = {"trace_self_time_coverage": sum(self_s.values()) / run_wall_s}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_kcommit"] = self_s[layer] * 1e6 * per_commit
        out[f"{layer}.calls_per_commit"] = calls[layer] * per_commit
    for name in BOUNDARIES:
        out[f"{name}.calls_per_commit"] = boundary_calls[name] * per_commit
        out[f"{name}.cum_ms_per_kcommit"] = boundary_cum_s[name] * 1e6 * per_commit
    return out


def trace(spec: Workload, seed: int) -> Dict[str, object]:
    """Every per-layer metric of one workload."""
    gated = gate(spec, sub_seed(seed, GATE_INDEX))
    first = sub_seed(seed, 0)
    plain = repeat(spec, first)
    profile = cProfile.Profile()
    traced = repeat(spec, first, profiler=profile)

    problems = gated["problems"] + run_problems(plain)
    if spec.deterministic and fingerprint(traced) != fingerprint(plain):
        problems.append(
            f"profiled run diverged: {fingerprint(plain)} then {fingerprint(traced)}"
        )
    values = rollup(profile, traced["commits"], traced["run_wall_s"])
    values["trace_overhead_x"] = traced["run_wall_s"] / plain["run_wall_s"]
    values.update((m.name, plain[m.name]) for m in COUNTERS)
    values.update(run_micros(min_time=TRACE_MICRO_MIN_TIME))
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit, "better": m.better}
        for m in per_layer()
    }
    return {
        "workload": spec.name, "seed": seed, "deterministic": spec.deterministic,
        "correct": not problems, "problems": problems,
        "attempted": plain["commits"] + plain["failed"], "failed": plain["failed"],
        "metrics": metrics, "repeats": [plain, traced], "gate": gated,
    }

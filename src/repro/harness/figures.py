"""The paper's evaluation as one table (EXPERIMENTS.md, DESIGN.md 4).

Each entry of :data:`FIGURES` is a figure, ablation or extension: its
title, its table's columns, its sweep at each scale and the shape its rows
must have.  A sweep maps a tuple-valued axis to its values -- crossed in
order, the last fastest; a tuple of names zips several axes -- and any
other field to one value.  :func:`measure` turns a point into a row, its
history through the oracle.  ``quick`` is a smoke run, ``default`` the
record in ``benchmarks/results/``, ``paper`` the paper's axes (hours).
"""

from __future__ import annotations

import dataclasses
from itertools import product
from statistics import fmean
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.config import ClusterConfig, NetworkConfig, RunConfig
from repro.harness.runner import ExperimentResult, run_experiment
from repro.metrics.psi_checker import CYCLE, READ_SKEW, Violation, check_fresh, check_psi
from repro.system import resolve_write_vids
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload, tpcc_directory
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

Row = Dict[str, object]

SCALES = ("quick", "default", "paper")
PSI = ("fwkv", "walter")
ALL = ("fwkv", "walter", "2pc")

#: The quick and default scales' TPC-C sizing (the paper scale runs the
#: spec's); warehouses per node, which the sweeps vary, set contention.
BENCH_TPCC = TPCCConfig(
    num_warehouses=1, districts_per_warehouse=4, customers_per_district=24, num_items=120,
    initial_orders_per_district=3, min_order_lines=3, max_order_lines=6, stock_level_orders=3)

#: Everything a row reports of a run; a table prints the columns it names.
METRICS: Dict[str, Callable[[ExperimentResult], float]] = {
    "throughput_ktps": lambda r: r.throughput_ktps,
    "abort_rate": lambda r: r.abort_rate,
    "mean_antidep": lambda r: r.mean_antidep,
    "max_antidep": lambda r: r.metrics["antidep_collected"]["max"],
    "samples": lambda r: r.metrics["antidep_collected"]["count"],
    "vas_inspected_mean": lambda r: r.metrics["vas_inspected"]["mean"],
    "residual_vas": lambda r: r.cluster.total_vas_entries(),
    "stale_ro_read_frac": lambda r: r.metrics["stale_read_fraction"],
    "mean_gap_versions": lambda r: r.metrics["ro_read_gap"]["mean"],
    "max_gap_versions": lambda r: r.metrics["ro_read_gap"]["max"],
    "first_contact_fresh": lambda r: (
        r.metrics["first_contact_fresh"] / r.metrics["first_contact_reads"]
        if r.metrics["first_contact_reads"] else 1.0),
    "ro_p50_us": lambda r: r.metrics["ro_latency_percentiles"]["p50"] * 1e6,
    "ro_p99_us": lambda r: r.metrics["ro_latency_percentiles"]["p99"] * 1e6,
    "up_p50_us": lambda r: r.metrics["update_latency_percentiles"]["p50"] * 1e6,
    "up_p99_us": lambda r: r.metrics["update_latency_percentiles"]["p99"] * 1e6,
}


class Figure(NamedTuple):
    title: str
    columns: tuple
    sweeps: Dict[str, Row]  # scale -> sweep
    shape: Callable[[List[Row]], None]  # asserts
    fold: Optional[Callable[[List[Row]], List[Row]]] = None  # rows -> table rows


def points(sweep: Row) -> Iterator[Row]:
    """Every point of ``sweep``."""
    axes = [(name, values) for name, values in sweep.items() if isinstance(values, tuple)]
    fixed = {name: value for name, value in sweep.items() if not isinstance(value, tuple)}
    for values in product(*(values for _name, values in axes)):
        point = dict(fixed)
        for (name, _values), value in zip(axes, values):
            point.update(zip(name, value) if isinstance(name, tuple) else [(name, value)])
        yield point


def run_point(point: Row, seed: int) -> ExperimentResult:
    """One run of ``point``, history recorded: 5 closed-loop clients a
    node, YCSB over ``keys`` or TPC-C at ``w_per_node``."""
    network = NetworkConfig()
    if point.get("delay_us"):
        network = network.with_propagate_delay(point["delay_us"] * 1e-6)
    nodes, ro = point["nodes"], point["ro"]
    config = ClusterConfig(num_nodes=nodes, clients_per_node=5, seed=seed,
                           network=network, **point.get("config", {}))
    directory = None
    if "w_per_node" in point:
        tpcc = dataclasses.replace(point["tpcc"], read_only_fraction=ro,
                                   num_warehouses=nodes * point["w_per_node"])
        workload = TPCCWorkload(tpcc, num_nodes=nodes, seed=seed)
        directory = tpcc_directory(nodes)
    else:
        workload = YCSBWorkload(YCSBConfig(
            num_keys=point["keys"], read_only_fraction=ro,
            **{name: point[name] for name in ("distribution", "zipf_s") if name in point}))
    return run_experiment(point["protocol"], workload, config, point["run"],
                          directory=directory, record_history=True)


def one_site_skew(violation: Violation, records, site) -> bool:
    """The FW-KV TPC-C shape DESIGN.md 7 (6) pins: a read at site ``s``
    missed the cycle's first writer, a later read at ``s`` took a version of
    its last writer, whose origin is not ``s`` -- Alg. 3 checks a site
    already read only at its own entry, the commit's seq lives in its
    origin's."""
    if violation.kinds not in ((READ_SKEW,), (CYCLE,)) or len(violation.cycle) < 2:
        return False
    reader, first, last = (records[txn] for txn in violation.cycle[:2] + violation.cycle[-1:])
    overwrote = {op.key: op.vid for op in first.writes()}
    wrote = {op.key: op.vid for op in last.writes()}
    reads = [op for op in reader.ops if op.kind == "r"]
    missed = [at for at, op in enumerate(reads) if op.vid < overwrote.get(op.key, -1)]
    taken = [at for at, op in enumerate(reads) if op.vid == wrote.get(op.key)]
    sites = {site(reads[at].key) for at in missed + taken}
    return bool(missed and taken) and min(missed) < max(taken) and (
        len(sites) == 1 and last.node_id not in sites)


def verdict(result: ExperimentResult) -> str:
    """``check_psi`` over ``result``'s history, and ``check_fresh`` under
    FW-KV: "clean", "pinned" if every violation is an FW-KV TPC-C
    :func:`one_site_skew`; any other violation raises."""
    cluster = result.cluster
    catalog = cluster.version_catalog()
    history = resolve_write_vids(cluster.history, catalog)
    violations = check_psi(history, catalog).violations
    if result.protocol == "fwkv":
        violations += check_fresh(history).violations
    if not violations:
        return "clean"
    records = {record.txn_id: record for record in history}
    if (result.protocol, result.workload) == ("fwkv", "tpcc") and all(
            one_site_skew(v, records, cluster.directory.site) for v in violations):
        return "pinned"
    raise AssertionError(f"{result.protocol} {result.workload}: {violations[:3]}")


def measure(point: Row, seed: int = 1, trials: int = 1) -> Row:
    """``point``'s row: its fields, each of :data:`METRICS` (the mean over
    ``trials`` runs, seeds ``seed``, ``seed + 1``, ...) and the oracle's
    verdict on all of them."""
    runs, verdicts = [], set()
    for trial in range(trials):
        result = run_point(point, seed + trial)
        verdicts.add(verdict(result))
        runs.append({name: metric(result) for name, metric in METRICS.items()})
    row = dict(point, oracle="pinned" if "pinned" in verdicts else "clean")
    for name in METRICS:
        values = [run[name] for run in runs]
        row[name] = values[0] if trials == 1 else sum(values) / trials
    return dict(row, trials=trials) if trials > 1 else row


def run_figure(name: str, scale: str = "default", seed: int = 1, trials: int = 1) -> List[Row]:
    """``name``'s table rows at ``scale`` (its shape is the caller's)."""
    figure = FIGURES[name]
    rows = [measure(point, seed, trials) for point in points(figure.sweeps[scale])]
    return figure.fold(rows) if figure.fold else rows


# Shapes: what the paper claims, as asserts over a table's rows.
def _at(rows: List[Row], y: str, *axes: str) -> dict:
    """``{axis values: row[y]}``, keyed by the bare value for one axis."""
    return {(row[axes[0]] if len(axes) == 1 else tuple(row[a] for a in axes)): row[y]
            for row in rows}


def _throughput(rows: List[Row], size: str, share: float) -> dict:
    """Figs. 5 and 8, at every point: both PSI systems beat 2PC, FW-KV
    keeps ``share`` of Walter's throughput and scales with the nodes."""
    ktps = _at(rows, "throughput_ktps", "ro", size, "nodes", "protocol")
    fewest, most = min(r["nodes"] for r in rows), max(r["nodes"] for r in rows)
    for ro, n, nodes, _protocol in ktps:
        fwkv, walter, twopc = (ktps[ro, n, nodes, protocol] for protocol in ALL)
        assert fwkv > twopc and walter > twopc and fwkv >= share * walter, (ro, n, nodes)
        assert ktps[ro, n, most, "fwkv"] > ktps[ro, n, fewest, "fwkv"], (ro, n)
    return ktps


def _fig5(rows: List[Row]) -> None:
    ktps = _throughput(rows, "keys", 0.7)  # the paper's worst gap: 20%
    keys, nodes = max(r["keys"] for r in rows), min(r["nodes"] for r in rows)
    for ro in (0.2, 0.5):  # the headline: within 5% at the lowest contention
        assert ktps[ro, keys, nodes, "fwkv"] >= 0.95 * ktps[ro, keys, nodes, "walter"], ro


def _fig6(rows: List[Row]) -> None:
    # Sets shrink with the key space, "gradually decreasing to zero"; their
    # growth with the update fraction needs the paper's multi-second runs.
    antidep = _at(rows, "mean_antidep", "keys", "ro")
    keys, ros = sorted({k for k, _ro in antidep}), sorted({ro for _k, ro in antidep})
    assert all(antidep[keys[0], ro] >= antidep[keys[-1], ro] for ro in ros)
    assert antidep[keys[-1], ros[0]] < 0.5 and max(antidep[keys[0], ro] for ro in ros) > 0


def _abort_multiple(rows: List[Row], by: tuple, summary: Callable, least: float) -> None:
    """Figs. 7 and 9a: Walter aborts more than FW-KV at every point, and the
    ``summary`` of the ratios where FW-KV aborts at all is ``least`` or more."""
    aborts = _at(rows, "abort_rate", *by, "protocol")
    pairs = [(aborts[point + ("walter",)], aborts[point + ("fwkv",)])
             for point in {key[:-1] for key in aborts}]
    assert all(walter > fwkv for walter, fwkv in pairs), pairs
    ratios = [walter / fwkv for walter, fwkv in pairs if fwkv > 0]
    assert not ratios or summary(ratios) >= least, ratios


def _fig8(rows: List[Row]) -> None:
    ktps = _throughput(rows, "w_per_node", 0.65)  # the paper's worst gap: 28%
    speedups = [ktps[p[:3] + ("walter",)] / ktps[p] for p in ktps if p[3] == "2pc"]
    assert sum(speedups) / len(speedups) >= 1.5, speedups


def _fig9b(rows: List[Row]) -> None:
    # The paper's <= 28% envelope, plus a margin for the scaled-down runs;
    # and reversed since a retry waits in line for the key it lost
    # (EXPERIMENTS.md): per mix, FW-KV gains most at the fewest warehouses.
    slowdown = _at(rows, "slowdown_pct", "ro", "w_per_node")
    for (ro, wpn), value in slowdown.items():
        assert slowdown[ro, min(w for r, w in slowdown if r == ro)] <= value <= 35.0, (ro, wpn)


def _slowdown(rows: List[Row]) -> List[Row]:
    """Figure 9b's table: each (FW-KV, Walter) pair of points as one row."""
    table = []
    for fwkv, walter in zip(rows[::2], rows[1::2]):
        w, f = walter["throughput_ktps"], fwkv["throughput_ktps"]
        table.append(dict(fwkv, walter_ktps=w, fwkv_ktps=f,
                          slowdown_pct=100.0 * (w - f) / w if w > 0 else 0.0,
                          oracle=max(fwkv["oracle"], walter["oracle"])))  # "pinned" > "clean"
    return table


def _visible_reads(rows: List[Row]) -> None:
    ktps = _at(rows, "throughput_ktps", "variant")  # VAS off recovers throughput
    assert min(ktps["fwkv-no-vas"], ktps["walter"]) >= 0.98 * ktps["fwkv"]


def _fresh_update_reads(rows: List[Row]) -> None:
    aborts = _at(rows, "abort_rate", "variant")  # fresh update reads save aborts
    assert min(aborts["fwkv-stale-updates"], aborts["walter"]) > aborts["fwkv"]


def _remove_scope(rows: List[Row]) -> None:
    vas = _at(rows, "residual_vas", "variant")  # cleanup scope orders residual VAS
    assert vas["off"] > max(vas["contacted-only"], vas["broadcast"])


def _delay_sweep(rows: List[Row]) -> None:
    aborts = _at(rows, "abort_rate", "delay_us", "protocol")  # Walter degrades
    assert aborts[2000, "walter"] > max(aborts[0, "walter"], aborts[2000, "fwkv"])


def _freshness(rows: List[Row]) -> None:
    # A first contact is stale only where the VAS already holds the
    # reader's id (Fig. 2); congestion stales Walter's reads.
    fresh, stale, gap = (_at(rows, y, "delay_us", "protocol") for y in (
        "first_contact_fresh", "stale_ro_read_frac", "mean_gap_versions"))
    assert min(fresh[0, "fwkv"], fresh[1000, "fwkv"]) >= 0.99
    assert stale[1000, "walter"] > max(stale[1000, "fwkv"], stale[0, "walter"])
    assert gap[1000, "walter"] > gap[1000, "fwkv"]


def _skew(rows: List[Row]) -> None:
    # Zipf, s = 0.99 (the paper skips it): hot keys raise aborts and
    # collected sets, and FW-KV's gap to Walter stays bounded.
    aborts, antidep, ktps = (_at(rows, y, "distribution", "protocol") for y in (
        "abort_rate", "mean_antidep", "throughput_ktps"))
    assert all(aborts["zipf", p] >= aborts["uniform", p] for p in PSI)
    assert antidep["zipf", "fwkv"] >= antidep["uniform", "fwkv"]
    assert ktps["zipf", "fwkv"] >= 0.55 * ktps["zipf", "walter"]


def _latency(rows: List[Row]) -> None:
    # 2PC's read-only commit pays round trips; FW-KV's ~ Walter's (5.1).
    p50 = _at(rows, "ro_p50_us", "protocol")
    assert p50["2pc"] > 1.3 * max(p50["walter"], p50["fwkv"])
    assert p50["fwkv"] <= 1.25 * p50["walter"]


def _omitted_80ro(rows: List[Row]) -> None:
    ktps = _at(rows, "throughput_ktps", "protocol")  # "almost identical" ...
    assert abs(ktps["fwkv"] - ktps["walter"]) / ktps["walter"] < 0.03
    assert _at(rows, "mean_antidep", "protocol")["fwkv"] < 0.5  # ... for ~empty sets


# The registry.  ``RunConfig(duration, warmup)``, in virtual seconds.
def _sweeps(base: Row, **scales: Row) -> Dict[str, Row]:
    """``base`` (its order is the sweep's) overlaid per scale."""
    return {scale: {**base, **scales.get(scale, {})} for scale in SCALES}


#: Figs. 6 and 7: keys and nodes per scale.
_YCSB_GRID = dict(
    quick=dict(keys=(5_000, 20_000, 50_000), nodes=8, run=RunConfig(0.015, 0.005)),
    default=dict(keys=(20_000, 50_000, 100_000), nodes=12, run=RunConfig(0.03, 0.008)),
    paper=dict(keys=(50_000, 100_000, 500_000), nodes=20, run=RunConfig(0.2, 0.05)),
)
#: Figs. 8, 9a and 9b: the runs of the scaled scales (paper: spec-sized TPC-C).
_TPCC_RUNS = dict(quick=dict(run=RunConfig(0.04, 0.012)),
                  default=dict(run=RunConfig(0.06, 0.015)))
_TPCC_PAPER = dict(nodes=20, run=RunConfig(0.3, 0.08), tpcc=TPCCConfig())
#: The ablations' and extensions' cluster.
_SMALL = dict(nodes=8, run=RunConfig(0.02, 0.006))
_DELAYED = 1000  # us: the paper's +1 ms on Propagate ("congestion")
_VARIANTS = ("variant", "protocol", "config")

FIGURES: Dict[str, Figure] = {
    "fig5": Figure(
        "Figure 5: YCSB throughput (KTxs/s)",
        ("figure", "ro", "keys", "nodes", "protocol", "throughput_ktps", "abort_rate"),
        _sweeps(
            {("figure", "ro"): (("5a", 0.2), ("5b", 0.5)), "keys": (), "nodes": (),
             "protocol": ALL},
            quick=dict(keys=(5_000, 50_000), nodes=(4, 8), run=RunConfig(0.012, 0.004)),
            default=dict(keys=(20_000, 100_000), nodes=(5, 10, 20),
                         run=RunConfig(0.025, 0.008)),
            paper=dict(keys=(50_000, 500_000), nodes=(5, 10, 15, 20),
                       run=RunConfig(0.2, 0.05)),
        ),
        _fig5,
    ),
    "fig6": Figure(
        "Figure 6: anti-dependencies collected at prepare (FW-KV)",
        ("figure", "keys", "ro", "mean_antidep", "max_antidep", "samples"),
        # Paper-literal Remove scope: ids propagated to nodes a reader never
        # contacted are never cleaned, the effect behind the paper's jump.
        _sweeps(dict(figure="6", keys=(), ro=(0.2, 0.5, 0.8), protocol="fwkv",
                     config={"remove_broadcast": False}), **_YCSB_GRID),
        _fig6,
    ),
    "fig7": Figure(
        "Figure 7: YCSB abort rate, Propagate delayed 1 ms",
        ("figure", "keys", "ro", "delayed", "protocol", "abort_rate", "throughput_ktps"),
        _sweeps(dict(figure="7", keys=(), ro=(0.2, 0.5), protocol=PSI, delay_us=_DELAYED,
                     delayed=True), **_YCSB_GRID),
        lambda rows: _abort_multiple(rows, ("keys", "ro"), fmean, 1.5),  # paper: ~2x
    ),
    "fig8": Figure(
        "Figure 8: TPC-C throughput (KTxs/s)",
        ("figure", "ro", "w_per_node", "nodes", "protocol", "throughput_ktps", "abort_rate"),
        _sweeps(
            {("figure", "ro"): (("8a", 0.2), ("8b", 0.5)), "w_per_node": (2, 8),
             "nodes": (4, 8), "protocol": ALL, "tpcc": BENCH_TPCC},
            **_TPCC_RUNS, paper=dict(_TPCC_PAPER, w_per_node=(16, 32), nodes=(5, 10, 15, 20)),
        ),
        _fig8,
    ),
    "fig9a": Figure(
        "Figure 9a: TPC-C abort rate, Propagate delayed 1 ms",
        ("figure", "w_per_node", "protocol", "abort_rate", "throughput_ktps"),
        _sweeps(dict(figure="9a", w_per_node=(2, 8), protocol=PSI, nodes=8, ro=0.2,
                     delay_us=_DELAYED, tpcc=BENCH_TPCC),
                **_TPCC_RUNS, paper=dict(_TPCC_PAPER, w_per_node=(16, 32))),
        lambda rows: _abort_multiple(rows, ("w_per_node",), max, 1.5),  # paper: ~4x
    ),
    "fig9b": Figure(
        "Figure 9b: FW-KV slowdown vs Walter (percent)",
        ("figure", "ro", "w_per_node", "walter_ktps", "fwkv_ktps", "slowdown_pct"),
        _sweeps(dict(figure="9b", ro=(0.2, 0.5), w_per_node=(2, 4, 8), protocol=PSI,
                     nodes=8, tpcc=BENCH_TPCC),
                **_TPCC_RUNS, paper=dict(_TPCC_PAPER, w_per_node=(8, 16, 32))),
        _fig9b,
        fold=_slowdown,
    ),
    "ablation_visible_reads": Figure(
        "Ablation: cost of the visible-reads (VAS) machinery, 50% RO",
        ("variant", "throughput_ktps", "abort_rate"),
        _sweeps({**_SMALL, "keys": 20_000, "ro": 0.5, _VARIANTS: (
            ("fwkv", "fwkv", {}), ("fwkv-no-vas", "fwkv", {"fwkv_visible_reads": False}),
            ("walter", "walter", {}))}),
        _visible_reads,
    ),
    "ablation_fresh_update_reads": Figure(
        "Ablation: fresh first reads for update txns, Propagate +1ms",
        ("variant", "abort_rate"),
        _sweeps({**_SMALL, "keys": 20_000, "ro": 0.2, "delay_us": _DELAYED, _VARIANTS: (
            ("fwkv", "fwkv", {}),
            ("fwkv-stale-updates", "fwkv", {"fwkv_fresh_update_reads": False}),
            ("walter", "walter", {}))}),
        _fresh_update_reads,
    ),
    "ablation_remove_scope": Figure(
        "Ablation: Remove scope vs VAS accumulation (50% RO)",
        ("variant", "residual_vas", "mean_antidep", "throughput_ktps"),
        _sweeps({**_SMALL, "keys": 20_000, "ro": 0.5, "protocol": "fwkv",
                 ("variant", "config"): (("broadcast", {"remove_broadcast": True}),
                                         ("contacted-only", {"remove_broadcast": False}),
                                         ("off", {"removes_enabled": False}))}),
        _remove_scope,
    ),
    "ablation_delay_sweep": Figure(
        "Ablation: abort rate vs injected Propagate delay (20% RO)",
        ("delay_us", "protocol", "abort_rate", "throughput_ktps"),
        _sweeps(dict(_SMALL, keys=20_000, ro=0.2, delay_us=(0, 250, 500, 1000, 2000),
                     protocol=PSI)),
        _delay_sweep,
    ),
    "ext_freshness": Figure(
        "Extension: read-only snapshot freshness (50% RO, 10k keys)",
        ("delay_us", "protocol", "stale_ro_read_frac", "mean_gap_versions",
         "max_gap_versions", "first_contact_fresh"),
        # A small key space: frequent overwrites make staleness visible.
        _sweeps(dict(_SMALL, keys=10_000, ro=0.5, delay_us=(0, _DELAYED), protocol=PSI)),
        _freshness,
    ),
    "ext_skew": Figure(
        "Extension: uniform vs zipf (s = 0.99) access (50% RO, 20k keys)",
        ("distribution", "protocol", "throughput_ktps", "abort_rate", "mean_antidep"),
        _sweeps(dict(_SMALL, keys=20_000, ro=0.5, distribution=("uniform", "zipf"),
                     zipf_s=0.99, protocol=PSI)),
        _skew,
    ),
    "ext_latency": Figure(
        "Extension: latency percentiles (us), YCSB 50% RO, 50k keys",
        ("protocol", "ro_p50_us", "ro_p99_us", "up_p50_us", "up_p99_us"),
        _sweeps(dict(_SMALL, keys=50_000, ro=0.5, protocol=ALL)),
        _latency,
    ),
    "ext_80ro": Figure(
        "Extension: the omitted 80% read-only configuration (50k keys)",
        ("protocol", "throughput_ktps", "abort_rate", "mean_antidep", "vas_inspected_mean"),
        _sweeps(dict(_SMALL, keys=50_000, ro=0.8, protocol=PSI)),
        _omitted_80ro,
    ),
}

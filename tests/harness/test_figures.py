"""The figure registry: every entry's first point runs through the oracle
in tier-1; every entry's shape at quick scale runs under ``-m figures``."""

from itertools import islice

import pytest

from repro.config import RunConfig
from repro.harness.figures import FIGURES, measure, points, run_figure, run_point, verdict
from repro.metrics import check_psi

SHORT = RunConfig(duration=0.002, warmup=0.001)


def test_a_sweep_crosses_its_axes_in_order_and_zips_named_tuples():
    sweep = {("figure", "ro"): (("a", 0.2), ("b", 0.5)), "nodes": (4, 8), "keys": 10}
    assert [(p["figure"], p["ro"], p["nodes"], p["keys"]) for p in points(sweep)] == [
        ("a", 0.2, 4, 10), ("a", 0.2, 8, 10), ("b", 0.5, 4, 10), ("b", 0.5, 8, 10)]


@pytest.mark.parametrize("name", FIGURES)
def test_first_quick_row_runs_clean(name):
    figure = FIGURES[name]
    first = islice(points({**figure.sweeps["quick"], "run": SHORT}), 2 if figure.fold else 1)
    rows = [measure(point) for point in first]
    (row,) = figure.fold(rows) if figure.fold else rows
    assert row["oracle"] == "clean"
    assert set(figure.columns) <= set(row)


def test_fwkv_tpcc_one_site_read_skew_is_pinned():
    """DESIGN.md 7 (6), pinned until fixed: a new-order reads its warehouse
    at the warehouse's site, a payment from another origin commits the
    warehouse and a district there, and the new-order's read of that
    district takes the payment's version -- its fresh merge lifted ``T.VC``
    at the payment's origin, and Alg. 3 checks a site already read only at
    its own entry.  The same run with stale update reads is clean."""
    fig9a = next(points(FIGURES["fig9a"].sweeps["quick"]))
    point = {**fig9a, "run": RunConfig(duration=0.015, warmup=0.005)}
    assert (point["protocol"], point["nodes"], point["w_per_node"]) == ("fwkv", 8, 2)
    result = run_point(point, seed=1)
    cluster = result.cluster
    history = cluster.finalized_history()
    (violation,) = check_psi(history, cluster.version_catalog()).violations
    records = {record.txn_id: record for record in history}
    reader, writer = (records[txn] for txn in violation.cycle)
    assert violation.kinds == ("read skew",)
    assert (reader.profile, writer.profile) == ("tpcc-new-order", "tpcc-payment")
    warehouse, district = (op.key for op in reader.ops[:2])
    assert (warehouse[0], district[0]) == ("w", "d")
    read = {op.key: op.vid for op in reader.ops if op.kind == "r"}
    wrote = {op.key: op.vid for op in writer.writes()}
    assert read[warehouse] < wrote[warehouse] and read[district] == wrote[district]
    site = cluster.directory.site
    assert site(warehouse) == site(district) != writer.node_id
    assert verdict(result) == "pinned"
    stale = {**point, "config": {"fwkv_fresh_update_reads": False}}
    assert verdict(run_point(stale, seed=1)) == "clean"


@pytest.mark.figures
@pytest.mark.parametrize("name", FIGURES)
def test_quick_scale_shape(name):
    FIGURES[name].shape(run_figure(name, "quick"))

"""``scripts/ledger_pairs.py``: the paired-runs verdict, without the runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "ledger_pairs.py"


@pytest.fixture(scope="module")
def ledger_pairs():
    spec = importlib.util.spec_from_file_location("ledger_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HIGHER = {
    "name": "commits_per_wall_s_norm", "unit": "1/s", "better": "higher",
    "bound": 0.2,
}
LOWER = {
    "name": "update_latency_p50_us", "unit": "us", "better": "lower",
    "bound": 0.15,
}
PARENT = [1200, 1210, 1190, 1225, 1205, 1215, 1195, 1220, 1200, 1210]


def test_gain_needs_nine_of_ten_pairs_and_medians_beyond_the_parents_spread(
    ledger_pairs,
):
    clear = ledger_pairs.summarise(HIGHER, PARENT, [p + 250 for p in PARENT])
    assert (clear["won"], clear["lost"], clear["verdict"]) == (10, 0, "gain")
    # Two pairs lost: the medians still lie apart, the pairs rule fails.
    mixed = [p + 250 for p in PARENT[:8]] + [p - 5 for p in PARENT[8:]]
    row = ledger_pairs.summarise(HIGHER, PARENT, mixed)
    assert row["medians_apart"] and (row["won"], row["lost"]) == (8, 2)
    assert row["verdict"] == "ok"
    # Every pair won by a hair: inside the parent's own quartile distance.
    row = ledger_pairs.summarise(HIGHER, PARENT, [p + 1 for p in PARENT])
    assert row["won"] == 10 and not row["medians_apart"]
    assert row["verdict"] == "ok"


def test_direction_follows_the_metric_and_ties_count_for_neither(ledger_pairs):
    faster = ledger_pairs.summarise(LOWER, PARENT, [p - 250 for p in PARENT])
    assert (faster["won"], faster["lost"], faster["verdict"]) == (10, 0, "gain")
    same = ledger_pairs.summarise(LOWER, PARENT, list(PARENT))
    assert (same["won"], same["lost"], same["verdict"]) == (0, 0, "ok")


def test_no_regression_rule_uses_the_metrics_bound(ledger_pairs):
    # 15% bound on ~1205: worse by 250 regresses, worse by 100 does not.
    row = ledger_pairs.summarise(LOWER, PARENT, [p + 250 for p in PARENT])
    assert (row["won"], row["lost"], row["verdict"]) == (0, 10, "regressed")
    row = ledger_pairs.summarise(LOWER, PARENT, [p + 100 for p in PARENT])
    assert row["verdict"] == "ok"
    # A spread wider than the bound allows cannot show "no worse" ...
    noisy = [800, 1700, 900, 1600, 1000, 1500, 1100, 1400, 1200, 1300]
    row = ledger_pairs.summarise(LOWER, PARENT, noisy)
    assert row["verdict"] == "unresolved"
    # ... unless every run of the change beat every run of the parent
    # (here by too little, next to the parent's spread, to be a gain).
    bimodal = [0, 100] * 5
    row = ledger_pairs.summarise(HIGHER, bimodal, [101] * 10)
    assert not row["medians_apart"] and row["verdict"] == "ok"
    row = ledger_pairs.summarise(HIGHER, bimodal, [101] * 9 + [99])
    assert row["verdict"] == "unresolved"


def test_expect_identical_checks_only_what_the_parent_repeats_exactly(
    ledger_pairs,
):
    import math

    virtual = [232.12455412773784] * 10
    tie = ledger_pairs.summarise(LOWER, virtual, list(virtual))
    assert ledger_pairs.not_identical([tie]) == []
    # One ulp in one run of the change is a moved metric, named with
    # both values.
    ulp = list(virtual)
    ulp[3] = math.nextafter(virtual[3], math.inf)
    moved = ledger_pairs.not_identical(
        [ledger_pairs.summarise(LOWER, virtual, ulp)]
    )
    assert len(moved) == 1 and moved[0].startswith("update_latency_p50_us")
    assert repr(virtual[0]) in moved[0] and repr(ulp[3]) in moved[0]
    # A wall metric differs between parent runs already: not this
    # flag's business, however far the change moved it.
    noisy = ledger_pairs.summarise(HIGHER, PARENT, [p + 250 for p in PARENT])
    assert ledger_pairs.not_identical([noisy, tie]) == []

"""The anomaly catalogue: one hand-built history per shape.

``check_psi`` must reject every shape PSI forbids -- lost update, read
skew, a write-write conflict of concurrent committers ("short fork"), a
per-origin prefix violation, a causality violation, a cycle with no rw
edge -- and accept long fork and write skew; ``check_fresh`` is FW-KV's
stronger claim.  Unless a test says otherwise, each transaction here
begins after the one before it committed.
"""

import pytest

from repro.metrics import (
    History,
    OpRecord,
    TxnRecord,
    check_fresh,
    check_no_read_skew,
    check_psi,
    check_site_order,
    find_long_forks,
)
from repro.metrics.psi_checker import catalog_of
from repro.system import resolve_write_vids


def txn(txn_id, *ops, node=0, seq=None, start=None):
    """A committed transaction -- read-only unless it has a ``seq``;
    ``ops`` are ``("r", key, vid, latest_at_read)`` / ``("w", key, vid)``."""
    start = float(txn_id) if start is None else start
    return TxnRecord(
        txn_id, node, seq is None, start, start + 0.5,
        [OpRecord(*op) for op in ops],
        seq_no=seq, write_keys=tuple(op[1] for op in ops if op[0] == "w"),
    )


def history(*records):
    return History(records)  # the catalog: ``catalog_of`` its writes


def fork(readers_start=None, latest=1):
    """Two independent writes, two readers seeing them in opposite orders."""
    return history(
        txn(1, ("w", "x", 1), node=1, seq=1),
        txn(2, ("w", "y", 1), node=2, seq=1),
        txn(3, ("r", "x", 1, 1), ("r", "y", 0, latest), start=readers_start),
        txn(4, ("r", "y", 1, 1), ("r", "x", 0, latest), start=readers_start),
    )


FORBIDDEN = {
    # T2 overwrote x without seeing T1's x: 2 -rw-> 1 -ww-> 2.
    "lost update": history(
        txn(1, ("r", "x", 0, 0), ("w", "x", 1), seq=1),
        txn(2, ("r", "x", 0, 0), ("w", "x", 2), node=1, seq=1),
    ),
    # R saw W's x but not W's y: 2 -rw-> 1 -wr-> 2.
    "read skew": history(
        txn(1, ("w", "x", 1), ("w", "y", 1), seq=1),
        txn(2, ("r", "x", 1, 1), ("r", "y", 0, 1)),
    ),
    # T2 read y before T1 wrote it, yet wrote x after T1: two concurrent
    # committers of x, both kept.
    "short fork": history(
        txn(1, ("w", "x", 1), ("w", "y", 1), seq=1),
        txn(2, ("r", "y", 0, 0), ("w", "x", 2), node=1, seq=1),
    ),
    # R saw origin 2's seq 2 and missed its seq 1, already installed.
    "prefix": history(
        txn(1, ("w", "y", 1), node=2, seq=1),
        txn(2, ("w", "x", 1), node=2, seq=2),
        txn(3, ("r", "x", 1, 1), ("r", "y", 0, 1)),
    ),
    # W2 read W1's x; R saw W2's y and missed W1's x.
    "causality": history(
        txn(1, ("w", "x", 1), node=1, seq=1),
        txn(2, ("r", "x", 1, 1), ("w", "y", 1), node=2, seq=1),
        txn(3, ("r", "y", 1, 1), ("r", "x", 0, 1)),
    ),
    # x holds 1 before 2, y holds 2 before 1.
    "no rw edge": history(
        txn(1, ("w", "x", 1), ("w", "y", 2), seq=1),
        txn(2, ("w", "x", 2), ("w", "y", 1), node=1, seq=1),
    ),
}

ALLOWED = {
    "long fork": fork(),
    # Each update read what the other wrote, before it wrote it.
    "write skew": history(
        txn(1, ("r", "x", 0, 0), ("r", "y", 0, 0), ("w", "x", 1), seq=1),
        txn(2, ("r", "x", 0, 0), ("r", "y", 0, 0), ("w", "y", 1), node=1, seq=1),
    ),
    "serial": history(
        txn(1, ("r", "x", 0, 0), ("w", "x", 1), seq=1),
        txn(2, ("r", "x", 1, 1), ("w", "x", 2), node=1, seq=1),
        txn(3, ("r", "x", 2, 2)),
    ),
}


@pytest.mark.parametrize("shape", sorted(FORBIDDEN))
def test_the_oracle_rejects_every_forbidden_shape_and_names_its_cycle(shape):
    result = check_psi(FORBIDDEN[shape])
    assert not result.ok and not result
    for violation in result.violations:
        assert len(violation.cycle) >= 2
        assert set(violation.cycle) <= {r.txn_id for r in FORBIDDEN[shape]}
        assert all(str(txn_id) in violation.detail for txn_id in violation.cycle)


@pytest.mark.parametrize("shape", sorted(ALLOWED))
def test_the_oracle_accepts_what_psi_allows(shape):
    assert check_psi(ALLOWED[shape]).ok


def test_each_shape_is_named_and_the_old_views_see_only_their_own_kind():
    kinds = {
        shape: {kind for v in check_psi(h).violations for kind in v.kinds}
        for shape, h in FORBIDDEN.items()
    }
    assert kinds == {
        "lost update": {"lost update"}, "read skew": {"read skew", "site order"},
        "short fork": {"cycle"}, "prefix": {"site order"},
        "causality": {"cycle"}, "no rw edge": {"cycle"},
    }
    # A lost update passes the two partial checks the ledger gate runs.
    lost, prefix = FORBIDDEN["lost update"], FORBIDDEN["prefix"]
    assert check_no_read_skew(lost).ok and check_site_order(lost, catalog_of(lost)).ok
    assert not check_no_read_skew(FORBIDDEN["read skew"]).ok
    assert check_no_read_skew(prefix).ok
    assert not check_site_order(prefix, catalog_of(prefix)).ok


def test_the_prefix_rule_binds_concurrent_committers_but_only_what_was_there():
    """Seeing an origin's seq 2 and missing its seq 1, already where it was
    read, breaks the in-order apply ``siteVC`` promises even when the origin
    ran the two concurrently (no so edge: the prefix rule alone names it).
    A read that ran before seq 1 reached its site (FW-KV's fresh contacts
    overtake it) closes a cycle through data edges only."""
    writes, reader = FORBIDDEN["prefix"][:2], FORBIDDEN["prefix"][2]
    concurrent = [txn(1, ("w", "y", 1), node=2, seq=1, start=1.8), writes[1]]
    (violation,) = check_psi(history(*concurrent, reader)).violations
    assert violation.kinds == ("site order",) and violation.cycle == (3, 1, 2)
    assert check_psi(history(*writes, txn(3, ("r", "y", 0, 0), ("r", "x", 1, 1)))).ok
    skewed = [FORBIDDEN["read skew"][0], txn(2, ("r", "x", 1, 1), ("r", "y", 0, 0))]
    assert not check_psi(history(*skewed)).ok


def test_wiped_clock_breaks_site_order():
    """A restart that loses ``siteVC`` state serves provably-stale reads: the
    snapshot holds origin 2 up to seq 6 (x@3), yet y was read at 0 while
    y@1, origin 2 seq 4, was already there -- writers known only to the
    catalog, and no data edge between them."""
    catalog = {("x", 3): (2, 6, 110), ("y", 1): (2, 4, 109)}
    wiped = history(txn(9, ("r", "x", 3, 3), ("r", "y", 0, 1)))
    (violation,) = check_site_order(wiped, catalog).violations
    assert violation.cycle == (9, 109, 110)
    assert check_psi(wiped, catalog).violations == [violation]


def test_caught_up_clock_passes_site_order():
    """After anti-entropy catch-up the same snapshot shape is clean."""
    catalog = {("x", 3): (2, 6, 110), ("y", 1): (2, 4, 109)}
    assert check_psi(history(txn(9, ("r", "x", 3, 3), ("r", "y", 1, 1))), catalog).ok


def test_a_reclaimed_version_hides_a_cycle_but_never_invents_one():
    skewed = FORBIDDEN["read skew"]
    catalog = catalog_of(skewed)
    del catalog[("y", 1)]  # garbage-collected after the run
    assert check_psi(skewed, catalog).ok
    serial = ALLOWED["serial"]
    for version in catalog_of(serial):
        trimmed = catalog_of(serial)
        del trimmed[version]
        assert check_psi(serial, trimmed).ok


def test_a_stale_first_read_fails_freshness_unless_a_backup_served_it():
    stale = history(txn(1, ("r", "x", 0, 1), ("r", "y", 3, 3)))
    (violation,) = check_fresh(stale).violations
    assert violation.kinds == ("stale first read",) and violation.cycle == (1,)
    # A backup's answer carries no freshness witness; later reads are
    # bounded by hasRead, not by this verdict.
    assert check_fresh(history(txn(1, ("r", "x", 0, None)))).ok
    assert check_fresh(history(txn(1, ("r", "y", 3, 3), ("r", "x", 0, 1)))).ok


def test_only_an_observable_long_fork_fails_freshness():
    (found,) = find_long_forks(fork())
    assert found == (3, 4, 1, 2)  # reader 3 saw writer 1 and not 2 ...
    kinds = [violation.kinds for violation in check_fresh(fork()).violations]
    assert ("observable long fork",) in kinds
    # Readers that began before the writers committed, or that missed
    # versions not yet where they read: concurrent, allowed.
    assert find_long_forks(fork(readers_start=0.5)) == []
    assert find_long_forks(fork(latest=0)) == []


def test_a_committed_write_in_no_store_is_reported_unless_gc_trimmed_its_key():
    recorded = history(*(txn(i, seq=i) for i in (1, 2, 3)))
    for record, key in zip(recorded, "xyz"):
        record.write_keys = (key,)
    catalog = {
        ("x", 0): (0, 0, None), ("x", 1): (0, 1, 1),  # installed
        ("y", 1): (1, 1, 99), ("y", 2): (1, 2, 98),  # y@0 reclaimed
    }
    resolved = resolve_write_vids(recorded, catalog)
    assert [op.vid for op in resolved[0].writes()] == [1]
    # y's chain lost its prefix to GC: txn 2's write may be in it.
    assert resolved.lost_writes == [(3, "z")]

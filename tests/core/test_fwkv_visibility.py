"""Unit tests for FW-KV version selection (Alg. 3), including the paper's
worked examples from Figures 2 and 3."""

import pytest

from repro.core import VectorClock
from repro.core.fwkv import (
    select_read_only_version,
    select_update_version,
    update_excluded,
    visible_under,
)
from repro.storage.chain import VersionChain


def version(chain, value, vc_entries, origin=0, seq=0):
    return chain.install(value, VectorClock(vc_entries), origin, seq)


def test_visible_under_only_constrains_read_sites():
    chain = VersionChain()
    v = version(chain, "a", [9, 2, 9])
    assert visible_under(v, [0, 5, 0], [False, True, False])
    assert not visible_under(v, [0, 1, 0], [False, True, False])
    # No read sites: everything visible.
    assert visible_under(v, [0, 0, 0], [False, False, False])


def test_read_only_selection_prefers_freshest_visible():
    chain = VersionChain()
    version(chain, "v0", [0, 0, 0])
    version(chain, "v1", [0, 3, 0], origin=1, seq=3)
    version(chain, "v2", [0, 7, 0], origin=1, seq=7)
    # Transaction already read site 1 at timestamp 5: v2 invisible.
    chosen, _ = select_read_only_version(
        chain, [0, 5, 0], [False, True, False], txn_id=42
    )
    assert chosen.value == "v1"


def test_read_only_first_contact_sees_latest():
    chain = VersionChain()
    version(chain, "v0", [0, 0, 0])
    version(chain, "v1", [0, 9, 9], origin=1, seq=9)
    # hasRead all false: no visibility constraint, freshest wins.
    chosen, _ = select_read_only_version(
        chain, [0, 0, 0], [False, False, False], txn_id=42
    )
    assert chosen.value == "v1"


def test_read_only_skips_versions_with_own_id_in_vas():
    """Figure 2: y1 carries T1's id (propagated by T3's commit), so T1's
    read of y must fall back to y0 despite y1 being VC-visible."""
    chain = VersionChain()
    y0 = version(chain, "y0", [2, 5, 6])
    y1 = version(chain, "y1", [2, 7, 7], origin=2, seq=7)
    y1.access_set.add(1)  # T1's identifier, installed by T3's commit
    # T1 (read-only, id 1) with VC <2,7,6> after reading x0 at site 1.
    chosen, inspected = select_read_only_version(
        chain, [2, 7, 6], [False, True, False], txn_id=1
    )
    assert chosen is y0
    assert inspected >= 1
    # A different reader without the anti-dependency gets y1... if visible.
    chosen2, _ = select_read_only_version(
        chain, [2, 7, 7], [False, True, False], txn_id=9
    )
    assert chosen2 is y1


def test_read_only_selection_never_fails_on_initial_version():
    chain = VersionChain()
    version(chain, "v0", [0, 0])
    chosen, _ = select_read_only_version(chain, [0, 0], [True, True], txn_id=5)
    assert chosen.value == "v0"


def test_read_only_raises_when_no_version_visible():
    chain = VersionChain()
    version(chain, "v1", [0, 9], origin=1, seq=9)  # no initial version
    with pytest.raises(RuntimeError):
        select_read_only_version(chain, [0, 0], [False, True], txn_id=5)


def test_update_first_read_never_excluded():
    """Figure 4: T1's first read returns x1 even though x1's clock exceeds
    the begin snapshot at an unread position."""
    chain = VersionChain()
    version(chain, "x0", [2, 4], origin=1, seq=4)
    x1 = version(chain, "x1", [2, 7], origin=1, seq=7)
    # T1 began at node 0 with VC <2,5>; hasRead all false (first read).
    assert not update_excluded(x1, [2, 5], [False, False])
    chosen, _ = select_update_version(chain, [2, 5], [False, False])
    assert chosen is x1


def test_update_exclusion_rule_figure3():
    """Figure 3: y1 with VC <2,7,7> is excluded for T1 with VC <2,7,6> and
    hasRead true only at site 1; y0 is returned instead."""
    chain = VersionChain()
    y0 = version(chain, "y0", [2, 5, 6])
    y1 = version(chain, "y1", [2, 7, 7], origin=2, seq=7)
    txn_vc = [2, 7, 6]
    has_read = [False, True, False]
    assert update_excluded(y1, txn_vc, has_read)
    assert not update_excluded(y0, txn_vc, has_read)
    chosen, _ = select_update_version(chain, txn_vc, has_read)
    assert chosen is y0


def test_update_exclusion_requires_equality_at_read_sites():
    chain = VersionChain()
    version(chain, "y0", [2, 5, 6])
    y1 = version(chain, "y1", [2, 6, 7], origin=2, seq=7)
    # T.VC[1]=7 != y1.VC[1]=6 at the read site: not excluded (and visible).
    assert not update_excluded(y1, [2, 7, 6], [False, True, False])
    chosen, _ = select_update_version(chain, [2, 7, 6], [False, True, False])
    assert chosen is y1


def test_update_exclusion_requires_newer_unread_entry():
    chain = VersionChain()
    y1 = version(chain, "y1", [2, 7, 6], origin=1, seq=7)
    # Equal at read site but nowhere newer: not excluded.
    assert not update_excluded(y1, [2, 7, 6], [False, True, False])


def test_update_selection_raises_without_visible_version():
    chain = VersionChain()
    version(chain, "x1", [0, 9], origin=1, seq=9)
    with pytest.raises(RuntimeError):
        select_update_version(chain, [0, 0], [False, True])


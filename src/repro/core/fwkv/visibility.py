"""FW-KV version-selection rules (Alg. 3), as pure functions.

Keeping these free of node state makes the subtle visibility logic unit-
testable against the paper's worked examples (Figures 2 and 3).
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from repro.storage.chain import VersionChain
from repro.storage.version import Version


def _entry(entries: Sequence[int], site: int) -> int:
    """Zero-default indexing: clocks of different widths coexist while a
    membership change is in flight, and a missing entry means the clock
    was minted before that site joined -- exactly zero."""
    return entries[site] if site < len(entries) else 0


def visible_under(
    version: Version,
    txn_vc: Sequence[int],
    has_read: Sequence[bool],
) -> bool:
    """Alg. 3 lines 4/13: the visibility test shared by both paths.

    A version is visible when its clock does not exceed the transaction's
    clock at any *already-read* site; sites the transaction has not read
    from yet place no constraint (that is what lets a first contact observe
    the latest data there).
    """
    vc = version.vc.entries
    return all(
        _entry(vc, site) <= _entry(txn_vc, site)
        for site in range(len(has_read))
        if has_read[site]
    )


def update_excluded(
    version: Version,
    txn_vc: Sequence[int],
    has_read: Sequence[bool],
) -> bool:
    """Alg. 3 line 14: the conservative exclusion rule for update reads.

    A visible version is excluded when it *equals* the transaction's clock
    at every already-read site yet is *newer* at some not-yet-read site --
    the signature of a commit by a potentially concurrent conflicting
    transaction (the SCORe-style over-approximation; see Figure 3, where
    ``y1`` with VC <2,7,7> is excluded for T1 with VC <2,7,6>).

    The rule only applies after the first read: the paper guarantees "an
    update transaction ... is guaranteed to return the latest version of
    its first read operation" (Section 2.4), and Figure 4 shows the first
    read returning a version strictly newer than the begin snapshot.  A
    literal reading of the formula would exclude such versions (the
    universally-quantified clause is vacuous when ``hasRead`` is all
    false), so the first read uses an empty ExcludedSet, matching the
    prose ("After the first read operation served by node n, for any
    subsequent operation ... the check in Line 14 excludes ...",
    Section 4.6).
    """
    if not any(has_read):
        return False
    vc = version.vc.entries
    equal_at_read_sites = all(
        _entry(vc, site) == _entry(txn_vc, site)
        for site in range(len(has_read))
        if has_read[site]
    )
    if not equal_at_read_sites:
        return False
    return any(
        _entry(vc, site) > _entry(txn_vc, site)
        for site in range(len(has_read))
        if not has_read[site]
    )


def select_read_only_version(
    chain: VersionChain,
    txn_vc: Sequence[int],
    has_read: Sequence[bool],
    txn_id: int,
    key: Hashable = None,
) -> Tuple[Version, int]:
    """Alg. 3 lines 2-10: freshest visible version not anti-depended upon.

    Returns ``(version, vas_entries_inspected)``; the second component is
    the bookkeeping-cost proxy charged by the read handler.

    The loop fuses :func:`visible_under` inline (no per-version function
    call, early exit on the first violated site); the property suite
    asserts it selects exactly what the reference predicates admit.
    A transaction that has read nowhere skips the clock loop entirely
    (no active site can constrain it).
    """
    inspected = 0
    any_read = True in has_read
    for version in chain.newest_first():
        if any_read:
            visible = True
            for a, t, active in zip(version.vc.entries, txn_vc, has_read):
                if active and a > t:
                    visible = False
                    break
            if not visible:
                continue
        access = version.vas
        if not access:
            return version, inspected
        inspected += 1
        if txn_id in access:
            # Alg. 3 lines 5-6: an anti-dependency (direct or
            # transitive) with this version's writer already exists;
            # keep looking at older versions.
            continue
        return version, inspected + len(access)
    raise RuntimeError(
        f"no visible version of {key!r} for read-only txn {txn_id}; "
        "the initial version should always be visible"
    )


def select_update_version(
    chain: VersionChain,
    txn_vc: Sequence[int],
    has_read: Sequence[bool],
    key: Hashable = None,
) -> Tuple[Version, int]:
    """Alg. 3 lines 11-18: freshest visible, conservatively-safe version.

    Single fused pass per version over (:func:`visible_under` and
    :func:`update_excluded`); the property suite asserts equivalence with
    the reference predicates.
    """
    if True not in has_read:
        # First read: no active site constrains visibility and the
        # exclusion rule does not apply yet, so the chain head wins.
        for version in chain.newest_first():
            return version, 0
    for version in chain.newest_first():
        visible = True
        equal_at_read = True
        newer_at_unread = False
        for a, t, active in zip(version.vc.entries, txn_vc, has_read):
            if active:
                if a > t:
                    visible = False
                    break
                if a != t:
                    equal_at_read = False
            elif a > t:
                newer_at_unread = True
        if not visible:
            continue
        if equal_at_read and newer_at_unread:
            continue
        return version, 0
    raise RuntimeError(
        f"no visible version of {key!r} for an update read; "
        "the initial version should always be visible"
    )

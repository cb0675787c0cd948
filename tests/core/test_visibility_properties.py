"""Property-based tests (hypothesis) for FW-KV version selection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VectorClock
from repro.core.fwkv.visibility import (
    select_read_only_version,
    select_update_version,
    update_excluded,
    visible_under,
)
from repro.core.walter.visibility import select_walter_version
from repro.storage.chain import VersionChain

SITES = 3


@st.composite
def chains(draw):
    """A version chain with an always-visible initial version."""
    chain = VersionChain()
    chain.install("v0", VectorClock.zeros(SITES), origin=0, seq=0)
    count = draw(st.integers(min_value=0, max_value=6))
    for i in range(count):
        origin = draw(st.integers(0, SITES - 1))
        seq = draw(st.integers(1, 20))
        entries = [draw(st.integers(0, 20)) for _ in range(SITES)]
        entries[origin] = seq
        chain.install(f"v{i + 1}", VectorClock(entries), origin, seq)
    return chain


txn_vcs = st.lists(st.integers(0, 20), min_size=SITES, max_size=SITES)
has_reads = st.lists(st.booleans(), min_size=SITES, max_size=SITES)


@given(chains(), txn_vcs, has_reads)
@settings(max_examples=200)
def test_read_only_selection_is_visible_and_freshest(chain, txn_vc, has_read):
    chosen, _ = select_read_only_version(chain, txn_vc, has_read, txn_id=999)
    assert visible_under(chosen, txn_vc, has_read)
    # Maximality: no visible, non-excluded version is newer.
    for version in chain:
        if version.vid > chosen.vid and visible_under(version, txn_vc, has_read):
            assert 999 in version.access_set, (
                "a newer visible version may only be skipped via the VAS"
            )


@given(chains(), txn_vcs, has_reads)
@settings(max_examples=200)
def test_update_selection_is_visible_and_freshest(chain, txn_vc, has_read):
    chosen, _ = select_update_version(chain, txn_vc, has_read)
    assert visible_under(chosen, txn_vc, has_read)
    assert not update_excluded(chosen, txn_vc, has_read)
    for version in chain:
        if version.vid > chosen.vid and visible_under(version, txn_vc, has_read):
            assert update_excluded(version, txn_vc, has_read)


@given(chains(), txn_vcs)
@settings(max_examples=200)
def test_update_first_read_returns_global_latest(chain, txn_vc):
    """With hasRead all false, the first read sees the newest version."""
    chosen, _ = select_update_version(chain, txn_vc, [False] * SITES)
    assert chosen.vid == chain.latest.vid


@given(chains(), txn_vcs)
@settings(max_examples=200)
def test_read_only_first_contact_without_vas_is_latest(chain, txn_vc):
    chosen, _ = select_read_only_version(
        chain, txn_vc, [False] * SITES, txn_id=12345
    )
    assert chosen.vid == chain.latest.vid


@given(chains(), txn_vcs)
@settings(max_examples=200)
def test_walter_selection_within_snapshot(chain, txn_vc):
    chosen, _ = select_walter_version(chain, txn_vc)
    assert chosen.seq <= txn_vc[chosen.origin]
    for version in chain:
        if version.vid > chosen.vid:
            assert version.seq > txn_vc[version.origin], (
                "Walter must pick the freshest version inside the snapshot"
            )


@given(chains(), txn_vcs, has_reads, st.integers(0, 5))
@settings(max_examples=200)
def test_vas_exclusion_monotone(chain, txn_vc, has_read, reader):
    """Adding the reader to every VAS only pushes selection older."""
    before, _ = select_read_only_version(chain, txn_vc, has_read, txn_id=reader)
    for version in chain:
        version.access_set.add(reader)
    # The initial version must stay reachable for the property to hold;
    # clear it (a reader is never in the initial version's VAS unless it
    # read it, in which case the read cache would have served the value).
    first = next(iter(chain))
    first.access_set.discard(reader)
    after, _ = select_read_only_version(chain, txn_vc, has_read, txn_id=reader)
    assert after.vid <= before.vid

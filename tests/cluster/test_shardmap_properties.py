"""Hypothesis properties pinning ShardMap placement invariants.

The three ISSUE-8 properties: ownership is total and unique at every
epoch (each shard has exactly one owner, always a member), a single
migration moves exactly one shard (and bumps the epoch by exactly one),
and lookups never return a retired owner no matter how membership and
migrations interleave.  ``with_nodes`` -- the membership drivers'
precomputation -- must agree exactly with the incremental ops it
summarises.  One shard per node is plain modulo placement, and every
directory's memoised ``site`` answers as its uncached ``place``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.directory import (
    CallableDirectory, ConsistentHashDirectory, ExplicitDirectory, ShardMap,
    _stable_hash,
)

KEYS = [f"k{i}" for i in range(64)]
any_key = st.one_of(
    st.text(max_size=8), st.integers(), st.tuples(st.text(max_size=4), st.integers())
)


def assert_ownership_total_and_unique(shard_map):
    owners = shard_map.owners()
    assert len(owners) == shard_map.num_shards
    assert all(owner in shard_map.node_ids for owner in owners)
    assert not set(owners) & shard_map.retired
    for key in KEYS:
        assert shard_map.site(key) == owners[shard_map.shard_of(key)]
        assert shard_map.site(key) in shard_map.node_ids


#: A membership/migration script: each step either toggles a node id in
#: or out of the map, or migrates a shard to a script-chosen member.
steps = st.lists(
    st.tuples(st.sampled_from(["toggle", "assign"]), st.integers(0, 9)),
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(
        st.integers(0, 9), min_size=1, max_size=6, unique=True
    ),
    num_shards=st.integers(1, 48),
    script=steps,
)
def test_ownership_total_and_unique_at_every_epoch(
    initial, num_shards, script
):
    shard_map = ShardMap(initial, num_shards)
    assert_ownership_total_and_unique(shard_map)
    for op, arg in script:
        epoch = shard_map.epoch
        if op == "toggle":
            if arg in shard_map.node_ids:
                if len(shard_map.node_ids) == 1:
                    continue
                shard_map.remove_node(arg)
                assert arg in shard_map.retired
            else:
                shard_map.add_node(arg)
            assert shard_map.epoch == epoch + 1
        else:
            shard = arg % shard_map.num_shards
            dest = shard_map.node_ids[arg % len(shard_map.node_ids)]
            changed = shard_map.assign(shard, dest)
            assert shard_map.owner_of(shard) == dest
            assert shard_map.epoch == epoch + (1 if changed else 0)
        # The invariants hold at *every* epoch, not just the final one.
        assert_ownership_total_and_unique(shard_map)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.lists(st.integers(0, 9), min_size=2, max_size=6, unique=True),
    num_shards=st.integers(2, 48),
    shard=st.integers(0, 47),
    dest_index=st.integers(0, 5),
)
def test_single_migration_moves_exactly_one_shard(
    nodes, num_shards, shard, dest_index
):
    shard_map = ShardMap(nodes, num_shards)
    shard %= num_shards
    dest = nodes[dest_index % len(nodes)]
    before = shard_map.owners()
    epoch = shard_map.epoch
    changed = shard_map.assign(shard, dest)
    after = shard_map.owners()
    moved = [s for s in range(num_shards) if before[s] != after[s]]
    if before[shard] == dest:
        assert not changed and moved == [] and shard_map.epoch == epoch
    else:
        assert changed and moved == [shard]
        assert after[shard] == dest
        assert shard_map.epoch == epoch + 1


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(
        st.integers(0, 9), min_size=3, max_size=6, unique=True
    ),
    num_shards=st.integers(1, 48),
    removals=st.lists(st.integers(0, 5), min_size=1, max_size=4),
)
def test_lookups_never_return_a_retired_owner(initial, num_shards, removals):
    """Across an arbitrary retirement sequence, every epoch's lookups
    land on live members only -- ``remove_node`` reassigns every shard
    before the node leaves the table."""
    shard_map = ShardMap(initial, num_shards)
    for index in removals:
        if len(shard_map.node_ids) == 1:
            break
        victim = shard_map.node_ids[index % len(shard_map.node_ids)]
        shard_map.remove_node(victim)
        assert victim in shard_map.retired
        assert not shard_map.shards_of(victim)
        for key in KEYS:
            assert shard_map.site(key) not in shard_map.retired


@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(
        st.integers(0, 9), min_size=1, max_size=5, unique=True
    ),
    target=st.lists(
        st.integers(0, 9), min_size=1, max_size=5, unique=True
    ),
    num_shards=st.integers(1, 48),
)
def test_with_nodes_agrees_with_incremental_ops(initial, target, num_shards):
    """The drivers precompute ownership with ``with_nodes`` and later
    flip with ``add_node``/``remove_node``; both paths must place every
    shard identically or the handoff ships keys to the wrong owner."""
    shard_map = ShardMap(initial, num_shards)
    derived = shard_map.with_nodes(target)
    assert sorted(derived.node_ids) == sorted(target)
    incremental = ShardMap(initial, num_shards)
    to_remove = sorted(set(initial) - set(target))
    to_add = sorted(set(target) - set(initial))
    # Disjoint targets admit newcomers first (the map may never empty);
    # otherwise removals precede additions, matching with_nodes exactly.
    ops = (
        [("add", n) for n in to_add] + [("remove", n) for n in to_remove]
        if len(to_remove) == len(initial)
        else [("remove", n) for n in to_remove] + [("add", n) for n in to_add]
    )
    for op, node_id in ops:
        if op == "add":
            incremental.add_node(node_id)
        else:
            incremental.remove_node(node_id)
    assert derived.owners() == incremental.owners()
    # The original is untouched (the live map only flips at cutover).
    assert sorted(shard_map.node_ids) == sorted(initial)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(1, 12),
    keys=st.lists(any_key, max_size=16),
)
def test_one_shard_per_node_places_by_modulo(nodes, keys):
    """``ShardMap(range(n), n)`` strides shard ``s`` to node ``s``, so a
    key sits at its stable hash modulo ``n``."""
    shard_map = ShardMap(range(nodes), nodes)
    for key in keys:
        assert shard_map.site(key) == _stable_hash(f"key:{key!r}") % nodes


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(any_key, max_size=16),
    flips=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)), max_size=6),
)
def test_site_is_place_on_every_directory(keys, flips):
    """The memo ``site`` fills changes no answer: on the ring, on a shard
    map before and after its owners flip, and on the scripted
    directories, whose ``site`` is ``place``."""
    shard_map = ShardMap(range(4), 16)
    for directory in (
        ConsistentHashDirectory(range(4)), shard_map,
        ExplicitDirectory({key: _stable_hash(repr(key)) % 4 for key in keys}),
        CallableDirectory(lambda key: len(repr(key)) % 3),
    ):
        assert [directory.site(k) for k in keys] == [directory.place(k) for k in keys]
    for shard, owner in flips:
        shard_map.assign(shard, owner)
        assert [shard_map.site(k) for k in keys] == [shard_map.place(k) for k in keys]


def test_shardmap_validates_arguments():
    with pytest.raises(ValueError):
        ShardMap([])
    with pytest.raises(ValueError):
        ShardMap([0, 1], num_shards=0)
    with pytest.raises(ValueError):
        ShardMap([0, 0])
    shard_map = ShardMap([0, 1], num_shards=4)
    with pytest.raises(ValueError):
        shard_map.assign(4, 0)
    with pytest.raises(ValueError):
        shard_map.assign(0, 7)  # not a member
    with pytest.raises(ValueError):
        shard_map.add_node(1)
    with pytest.raises(ValueError):
        shard_map.remove_node(5)
    shard_map.remove_node(1)
    with pytest.raises(ValueError):
        shard_map.remove_node(0)  # cannot empty the map


def test_shardmap_initial_placement_is_strided_and_balanced():
    shard_map = ShardMap([3, 1, 2], num_shards=7)
    assert shard_map.owners() == (3, 1, 2, 3, 1, 2, 3)
    from collections import Counter

    counts = Counter(shard_map.owners())
    assert max(counts.values()) - min(counts.values()) <= 1

"""Hypothesis properties pinning ShardMap placement invariants.

Ownership is total and unique at every epoch (each shard has exactly one
owner, always a member), a single migration moves exactly one shard (and
bumps the epoch by exactly one), and lookups never return a retired
owner no matter how membership and migrations interleave.  Joins and
leaves are planned moves: the planners are pure, keep the table balanced
to within one shard, move shards only to the joiner or off the victim,
and reproduce the owner tables the map's own re-placement used to build
(pinned by digest).  One shard per node is plain modulo placement, and
every directory's memoised ``site`` answers as its uncached ``place``.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.directory import (
    CallableDirectory, ConsistentHashDirectory, ExplicitDirectory, ShardMap,
    _stable_hash,
)
from repro.cluster.rebalancer import plan_join, plan_leave

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


def join(shard_map, joiner):
    """What a join's cutover does with the planned moves."""
    moves = plan_join(shard_map.owners(), shard_map.node_ids, joiner)
    shard_map.add_node(joiner)
    for shard, _donor, dest in moves:
        shard_map.assign(shard, dest)
    return moves


def leave(shard_map, victim):
    """What a leave's cutover and retirement do with the planned moves."""
    moves = plan_leave(shard_map.owners(), shard_map.node_ids, victim)
    for shard, _donor, dest in moves:
        shard_map.assign(shard, dest)
    shard_map.remove_node(victim)
    return moves


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
                leave(shard_map, arg)
                assert arg in shard_map.retired
            else:
                join(shard_map, arg)
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
    land on live members only -- a leave hands off every shard before
    ``remove_node`` drops the node from the table."""
    shard_map = ShardMap(initial, num_shards)
    for index in removals:
        if len(shard_map.node_ids) == 1:
            break
        victim = shard_map.node_ids[index % len(shard_map.node_ids)]
        leave(shard_map, victim)
        assert victim in shard_map.retired
        assert not shard_map.shards_of(victim)
        for key in KEYS:
            assert shard_map.site(key) not in shard_map.retired


@settings(max_examples=60, deadline=None)
@given(
    initial=st.integers(1, 6),
    num_shards=st.integers(1, 48),
    script=st.lists(st.integers(0, 9), min_size=1, max_size=8),
)
def test_planners_are_pure_balanced_and_move_only_the_changed_member(
    initial, num_shards, script
):
    """Each step joins a fresh id or retires the member the script picks:
    the plan is a pure function of its inputs, and applying it keeps
    every member within one shard of every other, moves shards only to
    the joiner, and moves every shard of the victim and nothing else."""
    shard_map = ShardMap(range(initial), num_shards)
    for pick in script:
        owners, members = list(shard_map.owners()), list(shard_map.node_ids)
        inputs = (owners[:], members[:])
        if pick % 3 or len(members) == 1:
            joiner = max(members + sorted(shard_map.retired)) + 1
            moves = join(shard_map, joiner)
            assert plan_join(owners, members, joiner) == moves
            assert all(dest == joiner for _, _, dest in moves)
        else:
            victim = members[pick % len(members)]
            moves = leave(shard_map, victim)
            assert plan_leave(owners, members, victim) == moves
            assert [shard for shard, donor, _ in moves] == [
                shard for shard, owner in enumerate(owners) if owner == victim
            ]
        assert (owners, members) == inputs, "a planner mutated its inputs"
        assert all(owners[shard] == donor for shard, donor, _ in moves)
        after = list(shard_map.owners())
        assert {s for s in range(num_shards) if after[s] != owners[s]} == {
            shard for shard, _, _ in moves
        }
        counts = [after.count(n) for n in shard_map.node_ids]
        assert max(counts) - min(counts) <= 1
        assert_ownership_total_and_unique(shard_map)


#: The join/leave scripts of the pinned grid: ``+`` joins the next fresh
#: id, ``-i`` retires the ``i``-th member in id order (skipped when it is
#: the last one).
PINNED_SCRIPTS = ("+", "++", "-0", "+-0", "-1+", "+-1+", "++-0-1", "-0-0++")
#: sha256 over the final owner tables of every pinned script, one byte
#: per shard, as ``ShardMap.add_node``/``remove_node`` re-placed shards
#: before joins and leaves became planned moves.
OWNER_TABLE_DIGESTS = {
    (1, 1): "da49d2915281f6331c5f9d888ff8d9a4118157d3f386e2b405f6495231d0c075",
    (1, 7): "4fb992e6fea8b1994f6e4e8c834c5a03f59256e9bd71b1f8af113deaafbfd7d1",
    (1, 12): "55fdbc8543b1d216ef8e8ef611b52234c8ef50a7aacf0ae38af52e8246314944",
    (1, 64): "1f64ba00e28907e63b30a70d89b50ed6c757aef7654709ea897cbb0060f24557",
    (2, 1): "e68520d17ca2420fe805180d5d57039119414b21ad6577c1f46360dd9e3d2984",
    (2, 7): "abad6d122878f0741fec0ec5bc38e344a330e47b982ccc4eab3567f54ca849cb",
    (2, 12): "7380da97d56a670ef660ed8f680aa2a9497d0a3ad7a5be026af1380096f1bc56",
    (2, 64): "ad0fd1345b8eb9ec1599a273b057f483e6a4c9c0f0ca854687503827464cb0bb",
    (3, 1): "bf04617068abc491d16bfb0585358920ced9b6a420b3a6ed6844c54dbf54eeba",
    (3, 7): "e8520460e7bd5168ed318e98c734d8702e26a1efd03473d69edef5b5f1906c44",
    (3, 12): "d0bde8929aeb9ab84517b6609fde2dda0943371349122531172df42b1fc8e70a",
    (3, 64): "b02084592b9a64915cffc417eba4768ffad5dc333992bba274ef9ccfc0917768",
    (5, 1): "bf04617068abc491d16bfb0585358920ced9b6a420b3a6ed6844c54dbf54eeba",
    (5, 7): "398b2a93a799332f8e57343b3673eeade0b701d799bd4cabe76ea1c6fe315482",
    (5, 12): "7fa49532d98821d2c5feb7bc13fe8cb71c4bac0e5c4c0e5d172f882aed3c21a4",
    (5, 64): "956003a6470bae88c8449c6d0ee8044ce7c358582674576051d6a725e399b8cf",
}


@pytest.mark.parametrize("nodes, num_shards", sorted(OWNER_TABLE_DIGESTS))
def test_planned_joins_and_leaves_keep_the_pinned_owner_tables(nodes, num_shards):
    tables = b""
    for script in PINNED_SCRIPTS:
        shard_map = ShardMap(range(nodes), num_shards)
        for op in script.replace("-", " -").replace("+", " +").split():
            members = sorted(shard_map.node_ids)
            if op == "+":
                join(shard_map, max(members + sorted(shard_map.retired)) + 1)
            elif len(members) > 1:
                leave(shard_map, members[int(op[1:]) % len(members)])
        tables += bytes(shard_map.owners())
    digest = hashlib.sha256(tables).hexdigest()
    assert digest == OWNER_TABLE_DIGESTS[nodes, num_shards]


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
    with pytest.raises(ValueError):
        shard_map.remove_node(1)  # still owns shards: hand them off first
    leave(shard_map, 1)
    with pytest.raises(ValueError):
        shard_map.remove_node(0)  # owns every shard


def test_shardmap_initial_placement_is_strided_and_balanced():
    shard_map = ShardMap([3, 1, 2], num_shards=7)
    assert shard_map.owners() == (3, 1, 2, 3, 1, 2, 3)
    from collections import Counter

    counts = Counter(shard_map.owners())
    assert max(counts.values()) - min(counts.values()) <= 1

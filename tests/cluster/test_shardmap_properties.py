"""Hypothesis properties pinning ShardMap placement invariants.

Ownership is total and unique at every epoch (each shard has exactly one
owner, always one of the fixed members), however flips interleave, and
a single ``assign`` moves exactly one shard (and bumps the epoch by
exactly one).  One shard per node is plain modulo placement, every
directory's memoised ``site`` answers as its uncached ``place``, and the
placement over a grid of fixed member sets is pinned by digest.
"""

import hashlib

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
    for key in KEYS:
        assert shard_map.site(key) == owners[shard_map.shard_of(key)]
        assert shard_map.site(key) in shard_map.node_ids


#: A flip script: each step assigns a shard to a script-chosen
#: member.
steps = st.lists(st.integers(0, 9), max_size=24)


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
    for arg in script:
        epoch = shard_map.epoch
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


#: sha256 over each fixed member set's owner table (one byte per shard)
#: and the owners of ``u0`` .. ``u4095`` (one byte each).  The members
#: never change, so this is the placement every sharded run keeps until
#: a failover moves a shard.
PLACEMENT_DIGESTS = {
    (1, 1): "b587fa297299ce9c602e58292b51379402bf7b1074f6b18679c2fb871c917ca8",
    (1, 7): "c270b1902f5bfcdb74693d21cce084ec44b1e56fd5454984da1b00c03c05b399",
    (1, 12): "858a21cec2a3cf2b0f08988b89d523c66c0d69d33fbbb60b48eecb38bb12917d",
    (1, 64): "b7de02dad947996e55b72749abf9a096d96e824ad109f9cc0d77d801a175b4ba",
    (2, 1): "b587fa297299ce9c602e58292b51379402bf7b1074f6b18679c2fb871c917ca8",
    (2, 7): "04d562c16b4b91cdcc0eb14bc93c8cd5c36ecbeb8d94cd67b92d3ccb842717da",
    (2, 12): "3cc0b18a959c753dfa9966fc962ea87f7e778a03c8322dc5afb302dc3984e7d1",
    (2, 64): "6611a969fc8c6b8f741971c48efcfd04458a566f64586a366de7814caae9cce9",
    (3, 1): "b587fa297299ce9c602e58292b51379402bf7b1074f6b18679c2fb871c917ca8",
    (3, 7): "e54e14553176666cc8439d21957d96c5ee2297e56de9e9dedbeea4a20256e8b1",
    (3, 12): "bc8189c42384dd03926b063fbdfa525ffb577d2f6e3a6e83a3e9a6e2d64caffd",
    (3, 64): "07b5ed71a015da01c5ce8b31ff6adee0bbdda6bd7b423dfecd3c491239d1c047",
    (5, 1): "b587fa297299ce9c602e58292b51379402bf7b1074f6b18679c2fb871c917ca8",
    (5, 7): "d957f14f82a94a88f5444200a3d10cb2999648b24194935dbb048302ffe67d5b",
    (5, 12): "7ba10886f1a2daf2eb7aec56dcf70b2bc9c747235101e5d3f397d3e96c6f4334",
    (5, 64): "88c339bc167b6dc698d3470ff7c51d1a1e2bc916d63582454de0cd8167b5f8bb",
}


@pytest.mark.parametrize("nodes, num_shards", sorted(PLACEMENT_DIGESTS))
def test_shard_placement_is_pinned(nodes, num_shards):
    shard_map = ShardMap(range(nodes), num_shards)
    sites = bytes(shard_map.site(f"u{i}") for i in range(4096))
    digest = hashlib.sha256(bytes(shard_map.owners()) + sites).hexdigest()
    assert digest == PLACEMENT_DIGESTS[nodes, num_shards]
    assert sites == bytes(shard_map.place(f"u{i}") for i in range(4096))


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


def test_shardmap_initial_placement_is_strided_and_balanced():
    shard_map = ShardMap([3, 1, 2], num_shards=7)
    assert shard_map.owners() == (3, 1, 2, 3, 1, 2, 3)
    from collections import Counter

    counts = Counter(shard_map.owners())
    assert max(counts.values()) - min(counts.values()) <= 1

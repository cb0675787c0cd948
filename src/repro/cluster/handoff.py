"""The fenced handoff: fence, drain, ship, act under the fence, unfence.

Every change of who holds a set of shards -- a migration, a join, a
drain, an abandoned join's hand-back, a failover promotion, a backup
(re)bootstrap -- is this one handoff over ``(shard, donor, dest)`` moves.
Each donor **fences** its moving shards (new prepares touching a key of
them park before taking locks; reads continue) and **drains** their
write locks; the handoff then **ships** each destination the chains of
its shards, **acts** under the fence -- by default the :func:`cutover`
flips every move -- so no prepare slips between stream and flip, and
**unfences** what it fenced.  Parked prepares wake and re-check
ownership: after a flip they vote "moved" and re-prepare at the new
owner, after a failure they proceed locally.  Nothing aborts, and a
failed handoff can simply be retried.  A promotion's donor is its
successor itself: the replicated chains are already there.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.membership import ACK_TIMEOUT, HANDOFF_TIMEOUT

#: One shard's change of holder: ``(shard, donor, dest)``.
Move = Tuple[int, int, int]


def shard_keys(node, shards) -> list:
    """The keys ``node`` stores in ``shards``, in shipping order (a bulk
    scan: the placement memo is left alone)."""
    shard_of = node.directory.hash_shard
    return sorted(
        (key for key in node.store.keys() if shard_of(key) in shards), key=repr
    )


def cutover(shard_map, moves: Sequence[Move], admit: Optional[int] = None) -> bool:
    """The default act: flip every move, or none if some donor no longer
    owns its shard (a concurrent handoff flipped it first).  ``admit``
    joins the map first -- a joiner owns nothing until its cutover."""
    if any(shard_map.owner_of(shard) != donor for shard, donor, _ in moves):
        return False
    if admit is not None:
        shard_map.add_node(admit)
    for shard, _donor, dest in moves:
        shard_map.assign(shard, dest)
    return True


def _drain_write_locks(node, shards):
    """Generator: wait until no write lock on a key of ``shards`` is held
    at ``node``; False if the handoff deadline passes first."""
    sim = node.sim
    deadline = sim.now + HANDOFF_TIMEOUT
    locks, shard_of = node.locks, node.directory.hash_shard
    while any(
        locks.write_held(key) and shard_of(key) in shards
        for key in locks.locked_keys()
    ):
        if sim.now >= deadline:
            return False
        yield sim.timeout(ACK_TIMEOUT)
    return True


def fenced_handoff(
    cluster, moves: Sequence[Move], act: Optional[Callable[[], object]] = None
):
    """Generator: carry out ``moves`` under their donors' shard fences.

    Returns the number of keys shipped, or ``None`` if the handoff
    failed -- a donor crashed or wiped, a drain timed out, a shipment
    was refused, or ``act`` returned ``False``.  ``act`` (default:
    :func:`cutover`) runs once everything shipped, still under the
    fence; it may be a generator function.
    """
    nodes = cluster.nodes
    by_donor: Dict[int, Dict[int, List[int]]] = {}
    for shard, donor, dest in moves:
        by_donor.setdefault(donor, {}).setdefault(dest, []).append(shard)
    fenced = {
        donor: [shard for shards in dests.values() for shard in shards]
        for donor, dests in by_donor.items()
    }
    incarnations = {donor: nodes[donor]._incarnation for donor in fenced}
    for donor, shards in fenced.items():
        nodes[donor].fence.raise_shards(shards)
    try:
        for donor in sorted(fenced):
            drained = yield from _drain_write_locks(nodes[donor], set(fenced[donor]))
            if not drained or nodes[donor]._incarnation != incarnations[donor]:
                return None
        shipments = [
            (nodes[donor], nodes[dest], shard_keys(nodes[donor], set(shards)))
            for donor in sorted(by_donor)
            for dest, shards in sorted(by_donor[donor].items())
            if dest != donor
        ]
        for donor, dest, keys in shipments:
            if keys and not (
                yield from donor.healing.transfer.ship_shard(
                    dest.node_id, keys, incarnations[donor.node_id]
                )
            ):
                return None
        # The chains carry versions only: the donor's visible reads of
        # them (FW-KV's VAS, up to now) go with the cutover, or a key's
        # next writer at its new owner could miss a reader (read skew).
        for donor, dest, keys in shipments:
            for key in keys:
                dest.store.adopt_read_sets(key, donor.store)
        done = cutover(cluster.directory, moves) if act is None else act()
        if isinstance(done, GeneratorType):
            done = yield from done
        return None if done is False else sum(len(keys) for *_, keys in shipments)
    finally:
        for donor, shards in fenced.items():
            nodes[donor].fence.lower_shards(shards)

"""The fenced handoff: fence, drain, ship, act under the fence, unfence.

Every change of who holds a set of keys -- a shard migration, a joiner's
bootstrap, a decommission drain, a backup (re)bootstrap -- is the same
five steps at the donor: **fence** the keys (key-scoped level of the
node's :class:`~repro.core.repair.Fence`: new prepares touching them
park before taking locks, reads continue); **drain** their write locks
(prepares already holding locks finish through their Decide); **ship**
the chains (:meth:`~repro.healing.transfer.ChainTransfer.ship_shard`,
all-or-nothing at the receiver); **act** under the fence -- flip the
directory entry, restart a replication stream -- so no prepare can slip
between the stream and the cutover; **unfence**.  Parked prepares wake
and re-check ownership: after a flip they vote "moved" and their
coordinators re-prepare at the new owner, after a failure nothing
flipped and they proceed locally.  Either way nothing aborts, and a
failed handoff can simply be retried.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Mapping, Optional

from repro.cluster.membership import ACK_TIMEOUT, HANDOFF_TIMEOUT


def _drain_write_locks(node, keys):
    """Generator: wait until no listed key's write lock is held at
    ``node``; False if the handoff deadline passes first."""
    sim = node.sim
    deadline = sim.now + HANDOFF_TIMEOUT
    locks = node.locks
    while any(locks.write_held(key) for key in keys):
        if sim.now >= deadline:
            return False
        yield sim.timeout(ACK_TIMEOUT)
    return True


def fenced_handoff(
    donor,
    shipments: Mapping[int, List[Hashable]],
    act: Optional[Callable[[], object]] = None,
    hold: bool = False,
):
    """Generator: hand ``donor``'s keys to their recipients; True on success.

    ``shipments`` maps recipient id -> the keys it receives.  ``act`` runs
    once everything shipped, still under the fence; returning ``False``
    fails the handoff.  With ``hold`` a *successful* handoff leaves the
    fence up for the caller's view commit to lift -- a join's ownership
    flip waits for every donor, a drain's for the survivors' clocks.
    """
    keys = [key for dest in sorted(shipments) for key in shipments[dest]]
    incarnation = donor._incarnation
    fence = donor.fence
    fence.raise_keys(keys)
    done = False
    try:
        drained = yield from _drain_write_locks(donor, keys)
        if not drained or donor._incarnation != incarnation:
            return False
        for dest in sorted(shipments):
            if shipments[dest]:
                shipped = yield from donor.healing.transfer.ship_shard(
                    dest, shipments[dest], incarnation
                )
                if not shipped:
                    return False
        done = act is None or act() is not False
        return done
    finally:
        if not (done and hold):
            fence.lower_keys(keys)

"""The adaptive (AIMD) batching-window controller.

Shared by the per-destination Propagate windows of every MVCC node
(``MVCCNode._send_propagate`` / ``_flush_propagate``) and FW-KV's
per-destination Remove windows (``FWKVNode._flush_removes_site``).
"""

from typing import Dict

#: Adaptive batching: additive window growth per backlogged flush, and
#: the arrival gap under which back-to-back sends count as "hot".
ADAPTIVE_STEP = 50e-6

#: Adaptive batching: hard cap on any window (virtual seconds), bounding
#: snapshot staleness.
MAX_WINDOW = 1e-3

#: Adaptive batching: multiplicative window decay per single-item flush.
ADAPTIVE_DECAY = 0.5

#: Adaptive batching: consecutive same-destination sends spaced within
#: ``ADAPTIVE_STEP`` of each other before a closed (zero) window opens.
#: Three back-to-back hot arrivals distinguish sustained backlog from a
#: lone coincidence without delaying the first commits of a burst.
PRESSURE_OPEN = 3

#: Adaptive batching: flush depth above which a window grows.  Growth
#: only past this band (with decay at depth one and a hold in between)
#: makes the controller converge on windows a few inter-arrivals wide
#: instead of ratcheting to ``MAX_WINDOW`` -- any positive window batches
#: *something* under load, so a bare ``depth > 1`` rule always grows.
TARGET_DEPTH = 4


def adapt_window(
    windows: Dict[int, float], site: int, depth: int, unset: float
) -> None:
    """AIMD on the queue depth one flush to ``site`` observed.

    Depth beyond the target band means arrivals far outpace the window
    (additive growth, capped), a lone item means idle (multiplicative
    decay toward zero = immediate sends again), and depths inside the
    band hold the window -- the equilibrium is a window a few
    inter-arrivals wide, which coalesces messages without stalling the
    in-order Decide apply path behind a ``MAX_WINDOW`` of traffic.
    ``unset`` is the window of a destination never adapted before.
    """
    current = windows.get(site, unset)
    if depth > TARGET_DEPTH:
        windows[site] = min(current + ADAPTIVE_STEP, MAX_WINDOW)
    elif depth == 1 and current > 0.0:
        decayed = current * ADAPTIVE_DECAY
        windows[site] = 0.0 if decayed < 1e-9 else decayed

"""Accrual failure detection from message arrivals and RPC timeouts.

One :class:`FailureDetector` per node classifies every peer as ALIVE,
SUSPECT, or DEAD from two evidence streams, both driven by simulator
time and therefore fully deterministic:

* **passive** -- every delivered message from a peer is an arrival;
  every timed-out RPC attempt against it is a strike.  Consecutive
  strikes past ``SUSPECT_AFTER_TIMEOUTS`` / ``DEAD_AFTER_TIMEOUTS``
  raise the classification; any arrival clears it.  This stream costs
  nothing until ``RpcConfig.request_timeout`` is configured, so the
  paper's reliable-channel model never accrues evidence and the
  detector stays inert.
* **accrual** (phi, Hayashibara-style) -- when active heartbeats are
  configured the detector tracks each peer's mean inter-arrival time
  (EWMA) and scores the silence since the last arrival in units of that
  mean: ``phi = (now - last_arrival) / mean_interval``.  ``phi``
  crossing ``_PHI_SUSPECT`` / ``_PHI_DEAD`` raises the classification,
  which -- unlike a fixed timeout -- adapts to however slow the peer
  has actually been, so a consistently slow-but-alive peer is not
  falsely declared dead.  The mean is floored at ``heartbeat_interval``:
  every arrival feeds it, so a foreground burst (a coordinator's
  fan-out, microseconds apart) would otherwise collapse it and score
  the ordinary sub-heartbeat pause that follows as death -- one beacon
  per interval is all a live peer owes.

Consumers:

* :meth:`attempts_budget` caps the RPC retry ladder (1 attempt for a
  DEAD peer, ``SUSPECT_MAX_ATTEMPTS`` for a SUSPECT one);
* :meth:`is_dead` feeds the coordinator's commit fail-fast;
* suspicion transitions are emitted as ``suspect`` / ``trust`` events,
  which count them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import HealingConfig

#: Peer classifications, ordered by increasing suspicion.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}

#: EWMA weight of the newest inter-arrival sample.
_EWMA_ALPHA = 0.2

#: Accrual thresholds, in units of the observed mean inter-arrival time
#: (used only when heartbeats are active).
_PHI_SUSPECT = 3.0
_PHI_DEAD = 8.0

#: Passive thresholds: consecutive RPC timeouts against a peer before
#: it is classified suspect / dead.
SUSPECT_AFTER_TIMEOUTS = 2
DEAD_AFTER_TIMEOUTS = 5
#: Retry-budget cap fed into :meth:`repro.net.rpc.RpcEndpoint.call`:
#: calls to a DEAD peer get one attempt, calls to a SUSPECT peer at
#: most this many.
SUSPECT_MAX_ATTEMPTS = 2


class FailureDetector:
    """Per-node accrual failure detector over the cluster's peers."""

    def __init__(
        self,
        sim,
        node_id: int,
        num_nodes: int,
        config: HealingConfig,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.tracer = tracer
        self._state: List[str] = [ALIVE] * num_nodes
        self._strikes: List[int] = [0] * num_nodes
        self._last_arrival: List[Optional[float]] = [None] * num_nodes
        self._mean_interval: List[Optional[float]] = [None] * num_nodes
        #: Whether phi scoring is armed (heartbeats configured).
        self._accrual = config.heartbeat_interval is not None

    def on_arrival(self, peer: int) -> None:
        """Any message from ``peer`` was delivered here: it is alive."""
        if peer == self.node_id:
            return
        now = self.sim.now
        last = self._last_arrival[peer]
        if last is not None:
            sample = now - last
            mean = self._mean_interval[peer]
            if mean is None:
                self._mean_interval[peer] = sample
            else:
                self._mean_interval[peer] = (
                    mean + _EWMA_ALPHA * (sample - mean)
                )
        self._last_arrival[peer] = now
        self._strikes[peer] = 0
        if self._state[peer] != ALIVE:
            self._transition(peer, ALIVE)

    def on_rpc_timeout(self, peer: int) -> None:
        """One RPC attempt against ``peer`` hit its reply deadline."""
        if peer == self.node_id:
            return
        self._strikes[peer] += 1
        self._reclassify(peer)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def phi(self, peer: int) -> float:
        """Silence since the peer's last arrival, in mean intervals."""
        last = self._last_arrival[peer]
        mean = self._mean_interval[peer]
        if last is None or mean is None or mean <= 0.0:
            return 0.0
        return (self.sim.now - last) / max(mean, self.config.heartbeat_interval or 0.0)

    def state(self, peer: int) -> str:
        """The peer's current classification (re-scored on read).

        Accrual evidence is time-driven, so the score can cross a
        threshold between evidence events; re-scoring on read keeps the
        answer current without a polling process.
        """
        self._reclassify(peer)
        return self._state[peer]

    def is_dead(self, peer: int) -> bool:
        return self.state(peer) == DEAD

    def is_suspect(self, peer: int) -> bool:
        """SUSPECT or worse."""
        return _RANK[self.state(peer)] >= _RANK[SUSPECT]

    def attempts_budget(self, peer: int, configured: int) -> int:
        """Retry attempts :meth:`RpcEndpoint.call` should spend on ``peer``.

        A known-dead peer gets a single probe (enough to notice it came
        back); a suspect peer gets a shortened ladder.  A healthy peer
        keeps the configured budget.
        """
        state = self.state(peer)
        if state == DEAD:
            return 1
        if state == SUSPECT:
            return max(1, min(configured, SUSPECT_MAX_ATTEMPTS))
        return configured

    def _reclassify(self, peer: int) -> None:
        verdict = ALIVE
        strikes = self._strikes[peer]
        if strikes >= DEAD_AFTER_TIMEOUTS:
            verdict = DEAD
        elif strikes >= SUSPECT_AFTER_TIMEOUTS:
            verdict = SUSPECT
        if self._accrual and _RANK[verdict] < _RANK[DEAD]:
            phi = self.phi(peer)
            if phi >= _PHI_DEAD:
                verdict = DEAD
            elif phi >= _PHI_SUSPECT and verdict == ALIVE:
                verdict = SUSPECT
        if verdict != self._state[peer]:
            self._transition(peer, verdict)

    def _transition(self, peer: int, verdict: str) -> None:
        previous = self._state[peer]
        self._state[peer] = verdict
        if self.tracer is not None:
            self.tracer.emit(
                self.node_id,
                "suspect" if _RANK[verdict] > _RANK[previous] else "trust",
                peer=peer,
                state=verdict,
                was=previous,
            )

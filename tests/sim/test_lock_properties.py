"""Property-based (stateful) tests for the readers/writer lock."""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.sim import RWLock, Simulator

OWNERS = [f"o{i}" for i in range(4)]


class LockMachine(RuleBasedStateMachine):
    """Random acquire/release sequences preserve the lock invariants.

    Requests are issued through processes without timeouts; the model
    tracks, per owner, granted mode counts, and checks mutual exclusion
    after every step.
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.lock = RWLock(self.sim)
        self.granted = {}  # owner -> (mode, count)
        self.outstanding = set()  # owners with a pending request

    def _settle(self):
        self.sim.run()

    def _request(self, owner, mode):
        results = {}

        def proc():
            if mode == "r":
                ok = yield self.lock.acquire_read(owner)
            else:
                ok = yield self.lock.acquire_write(owner)
            results["ok"] = ok
            current = self.granted.get(owner, (mode, 0))
            self.granted[owner] = (mode, current[1] + 1)
            self.outstanding.discard(owner)

        self.outstanding.add(owner)
        self.sim.spawn(proc())

    @rule(owner=st.sampled_from(OWNERS))
    def acquire_read(self, owner):
        held = self.granted.get(owner)
        if owner in self.outstanding or (held and held[0] != "r"):
            return  # avoid upgrade errors and double-pending requests
        self._request(owner, "r")
        self._settle()

    @rule(owner=st.sampled_from(OWNERS))
    def acquire_write(self, owner):
        held = self.granted.get(owner)
        if owner in self.outstanding or (held and held[0] != "w"):
            return
        self._request(owner, "w")
        self._settle()

    @rule(owner=st.sampled_from(OWNERS))
    def release(self, owner):
        held = self.granted.get(owner)
        if not held or held[1] == 0:
            return
        self.lock.release(owner)
        mode, count = held
        if count == 1:
            del self.granted[owner]
        else:
            self.granted[owner] = (mode, count - 1)
        self._settle()

    @invariant()
    def writers_are_exclusive(self):
        holders = {
            owner: mode for owner, (mode, count) in self.granted.items()
            if count > 0
        }
        writers = [o for o, m in holders.items() if m == "w"]
        readers = [o for o, m in holders.items() if m == "r"]
        if writers:
            assert len(writers) == 1, f"two writers hold: {writers}"
            assert not readers, f"writer {writers} coexists with {readers}"

    @invariant()
    def model_matches_lock_state(self):
        for owner, (mode, count) in self.granted.items():
            if count > 0:
                assert self.lock.held_by(owner) == mode


TestLockProperties = LockMachine.TestCase
TestLockProperties.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)

#!/usr/bin/env python3
"""What a receiver-driven resend does to the composed-faults table.

    PYTHONPATH=src python3 scripts/resend_probe.py [--causal] [--seeds 1-20]

Runs the grid of ``tests/integration/test_composed_faults.py`` (every
protocol x {healing off, anti-entropy} x seeds; not its durable mode)
with one mechanism patched in from outside -- no ``src/`` edit -- and
prints each cell whose shape differs from the committed ``KNOWN`` table
(``crash`` when the run raised, ``hang`` when it was still busy at
``RUN_LIMIT``), then a count:

* **the gap**: ``Applier.turn`` waiting on a seq that is not next, and
  ``Applier.on_propagate``'s early branch (a Propagate past the next
  seq), note a gap below that seq at the receiver;
* **the re-ask**: a 1 ms timer per ``(receiver, origin)`` sends the
  origin the receiver's frontier, at most 20 times, until the gap
  closes (a one-way message on the links the nemesis cuts);
* **the answer**: the origin re-sends its full Decides above that
  frontier from ``in_doubt.log.by_seq`` (``core/repair.reannounce``,
  the anti-entropy push).

``--causal`` adds the clock wait of ROADMAP item 1b: a commit from
``origin`` applies only once ``siteVC`` covers its commit clock at every
other origin (the clock a Propagate would carry; the probe looks it up
where the coordinator recorded it), and a cause it lacks is a gap the
receiver re-asks its origin for.  Virtual numbers repeat exactly per
seed; the grid takes ~11 s in either mode.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import tests.integration.test_composed_faults as composed  # noqa: E402
from repro.core.apply import Applier  # noqa: E402
from repro.core.repair import DecisionLog, reannounce  # noqa: E402
from repro.sim import wait_until  # noqa: E402
from repro.sim.simulator import SimulationCrash  # noqa: E402

RESEND = "ResendProbe"
ASK_INTERVAL = 1e-3
MAX_ASKS = 20
#: Virtual seconds a cell may run before it counts as a ``hang`` (a wait
#: that never ends, with a lease or a client retrying behind it).
RUN_LIMIT = 1.0


class Hang(Exception):
    pass


class Probe:
    """The patches, and what they did in one cell."""

    def __init__(self, causal: bool) -> None:
        self.causal = causal
        self.gaps = {}  # (node id, origin) -> seq the receiver must reach
        self.chasing = set()
        self.clocks = {}  # (origin, seq) -> commit clock
        self.asks = self.answers = 0

    def note_gap(self, node, origin: int, want: int) -> None:
        key = (node.node_id, origin)
        self.gaps[key] = max(want, self.gaps.get(key, 0))
        if key not in self.chasing:
            self.chasing.add(key)
            node.sim.spawn(self.chase(node, origin, key), name="resend-ask")

    def chase(self, node, origin: int, key):
        for _ in range(MAX_ASKS):
            yield node.sim.timeout(ASK_INTERVAL)
            if node.site_vc[origin] >= self.gaps[key]:
                break
            self.asks += 1
            node.node.send(origin, RESEND, node.site_vc[origin])
        self.chasing.discard(key)

    def answer(self, node):
        def on_resend(envelope):
            self.answers += 1
            reannounce(
                node, node.node_id, node.in_doubt.log.by_seq,
                {envelope.src: envelope.payload}, node.site_vc[node.node_id],
            )
        return on_resend

    def causes(self, applier, origin: int, seq_no: int):
        """``--causal``: the ``(other origin, seq)`` entries of the commit
        clock of ``(origin, seq_no)`` that ``applier`` has not applied."""
        clock = self.causal and self.clocks.get((origin, seq_no))
        if not clock:
            return ()
        site_vc = applier.site_vc
        return tuple(
            (other, entry) for other, entry in enumerate(clock)
            if other != origin and site_vc[other] < entry
        )

    def install(self):
        """Patch the classes; returns the undo list."""
        probe = self
        turn, on_propagate, record = (
            Applier.turn, Applier.on_propagate, DecisionLog.record,
        )
        advance_code = Applier.advance.__code__

        def probed_turn(self, origin, seq_no):
            if self.site_vc[origin] < seq_no - 1:
                probe.note_gap(self.node, origin, seq_no - 1)
            # ``advance`` waiting out a held seq asks for the turn after
            # it: that wait is the holder's, not a commit's own.
            caller = sys._getframe(1)
            held = caller.f_code is advance_code and caller.f_locals.get("held")
            causes = not held and probe.causes(self, origin, seq_no)
            if not causes:
                return turn(self, origin, seq_no)
            for other, entry in causes:
                probe.note_gap(self.node, other, entry)
            site_vc = self.site_vc
            return wait_until(
                self.site_vc_changed,
                lambda: site_vc[origin] >= seq_no - 1
                and all(site_vc[o] >= entry for o, entry in causes),
            )

        def probed_on_propagate(self, envelope):
            body = envelope.payload
            origin, seq_no = body.origin, body.seq_no
            current = self.site_vc[origin]
            if current < seq_no - 1:
                probe.note_gap(self.node, origin, seq_no - 1)
            elif current == seq_no - 1 and probe.causes(self, origin, seq_no):
                # The next seq, but its causes are not all applied: wait
                # for them through ``advance`` instead of ticking inline.
                self.sim.spawn(self.advance(origin, (seq_no,)), name="Propagate")
                return None
            return on_propagate(self, envelope)

        def probed_record(self, decide, by_site):
            probe.clocks[(decide.origin, decide.seq_no)] = decide.commit_vc
            return record(self, decide, by_site)

        Applier.turn, Applier.on_propagate = probed_turn, probed_on_propagate
        DecisionLog.record = probed_record
        return [
            (Applier, "turn", turn), (Applier, "on_propagate", on_propagate),
            (DecisionLog, "record", record),
        ]


def run_cell(cell, causal: bool):
    """The cell's shape with the probe in, and the probe's counts."""
    probe = Probe(causal)
    build = composed.build

    def probed_build(*args, **kwargs):
        cluster, nemesis = build(*args, **kwargs)
        for node in cluster.nodes:
            if hasattr(node, "applier"):
                node.node.on(RESEND, probe.answer(node))
        run = cluster.run

        def bounded_run(until=None):
            now = run(until=RUN_LIMIT if until is None else until)
            if until is None and cluster.sim._peek_time() is not None:
                raise Hang
            return now

        cluster.run = bounded_run
        return cluster, nemesis

    undo = probe.install()
    composed.build = probed_build
    try:
        shape = composed.verdict(*cell)
    except SimulationCrash as crash:
        shape = f"crash ({crash.__cause__})"
    except Hang:
        shape = "hang"
    finally:
        composed.build = build
        for cls, name, original in undo:
            setattr(cls, name, original)
    return shape, probe


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--causal", action="store_true",
                        help="also wait on the commit clock (item 1b)")
    parser.add_argument("--seeds", type=seed_range, default=composed.SEEDS)
    args = parser.parse_args(argv)
    grid = [
        (mode, protocol, seed) for mode in composed.MODES if mode != "durable"
        for protocol in composed.PROTOCOLS for seed in args.seeds
    ]
    dropped = added = changed = asks = answers = 0
    for cell in grid:
        shape, probe = run_cell(cell, args.causal)
        asks, answers = asks + probe.asks, answers + probe.answers
        known = composed.KNOWN.get(cell, "clean")
        if shape == known:
            continue
        dropped += shape == "clean"
        added += known == "clean"
        changed += "clean" not in (shape, known)
        print(*cell, f"{known} -> {shape}", sep="\t")
    mode = "resend + causal wait" if args.causal else "resend"
    print(f"[{mode}] {len(grid)} cells: {dropped} known rows clean, "
          f"{added} clean cells failing, {changed} shapes changed; "
          f"{asks} re-asks, {answers} answered")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Composed faults: every protocol under a seeded random crash/partition
mix, with healing off and with anti-entropy on, and FW-KV and Walter
under durable crashes with the WAL on, reduced to one verdict per cell
and held to a committed table.

A cell is ``(mode, protocol, seed)``: the chaos cluster of
:mod:`tests.integration.test_chaos` under ``random_schedule(seed, ...)``,
its clients run to quiescence.  The ``durable`` mode runs with healing
off, the WAL on and ``durable_crashes=True``; the 2PC baseline has no
WAL recovery, so the mode leaves it out.
A cell's verdict is ``clean`` or the ``+``-joined shapes the run shows,
in this order: the ``check_psi`` violation kinds (sorted), ``fresh`` (a
``check_fresh`` violation, FW-KV only), ``lost`` (an acknowledged write
found in no store) and ``lock`` (a lock still held).

:data:`KNOWN` is the ratchet: the cells that fail today, with their
shapes.  A cell outside it that fails, or a listed cell whose shape
changes, fails the test; a listed cell that goes clean fails it too,
naming the row to drop -- so the table only shrinks.  The full grid
(``-m fuzz``) runs every cell; tier-1 runs the listed cells plus
:data:`CLEAN_SAMPLE`.

Print the grid with ``PYTHONPATH=src python -m tests.integration.test_composed_faults``.
"""

import pytest

from repro import DurabilityConfig, HealingConfig
from repro.faults import random_schedule
from repro.metrics import check_fresh, check_psi
from repro.system import resolve_write_vids

from tests.integration.test_chaos import (
    CLIENTS_PER_NODE,
    NUM_NODES,
    PROTOCOLS,
    build,
    chaos_client,
)

MODES = ("off", "anti_entropy", "durable")
SEEDS = range(1, 21)
#: Virtual time the anti-entropy mode runs its loops before winding them
#: down and running to quiescence.
HEALING_UNTIL = 0.2

#: ``(mode, protocol, seed) -> shape`` of every cell that fails today.
KNOWN = {
    ("off", "fwkv", 1): "lost+lock",
    ("off", "fwkv", 5): "lost+lock",
    ("off", "fwkv", 10): "cycle",
    ("off", "fwkv", 14): "fresh",
    ("off", "walter", 2): "read skew",
    ("off", "walter", 6): "lost+lock",
    ("off", "walter", 7): "lost+lock",
    ("off", "walter", 12): "cycle",
    ("off", "walter", 13): "lost+lock",
    ("off", "walter", 17): "cycle",
    ("off", "walter", 18): "lost+lock",
    ("anti_entropy", "fwkv", 1): "fresh",
    ("anti_entropy", "fwkv", 2): "cycle+fresh",
    ("anti_entropy", "fwkv", 3): "fresh",
    ("anti_entropy", "fwkv", 4): "site order",
    ("anti_entropy", "fwkv", 8): "site order+fresh",
    ("anti_entropy", "fwkv", 10): "cycle",
    ("anti_entropy", "fwkv", 12): "fresh",
    ("anti_entropy", "fwkv", 16): "fresh",
    ("anti_entropy", "fwkv", 20): "fresh",
    ("durable", "fwkv", 2): "cycle+fresh",
    ("durable", "fwkv", 10): "cycle",
    ("durable", "fwkv", 14): "fresh",
    ("durable", "fwkv", 17): "site order+fresh",
    ("durable", "fwkv", 20): "fresh",
    ("durable", "walter", 7): "lost+lock",
    ("durable", "walter", 20): "cycle",
}

#: Clean cells tier-1 runs beside the listed ones, one per protocol and
#: one durable -- the 2PC ones are the seed-17 cells that lost an
#: acknowledged write before a lease asked the coordinator first.
CLEAN_SAMPLE = (
    ("off", "2pc", 17),
    ("anti_entropy", "2pc", 17),
    ("anti_entropy", "walter", 1),
    ("durable", "fwkv", 1),
)

GRID = [
    (mode, protocol, seed) for mode in MODES for protocol in PROTOCOLS for seed in SEEDS
    if (mode, protocol) != ("durable", "2pc")
]


def verdict(mode, protocol, seed):
    """Run one cell to quiescence and name what its history shows."""
    durable = mode == "durable"
    healing = HealingConfig(anti_entropy_interval=1e-3 if mode == "anti_entropy" else None)
    config = {"durability": DurabilityConfig(wal_enabled=True)} if durable else {}
    cluster, nemesis = build(protocol, seed, healing=healing, **config)
    nemesis.start(random_schedule(
        seed, range(NUM_NODES), 2e-3, 14e-3, 3e-3, 2e-3, durable_crashes=durable
    ))
    for node_id in range(NUM_NODES):
        for client_id in range(CLIENTS_PER_NODE):
            cluster.spawn(chaos_client(cluster, node_id, client_id, seed))
    if mode == "anti_entropy":
        cluster.run(until=HEALING_UNTIL)
        cluster.stop_healing()
    cluster.run()
    catalog = cluster.version_catalog()
    history = resolve_write_vids(cluster.history, catalog)
    shapes = sorted({
        kind for violation in check_psi(history, catalog).violations
        for kind in violation.kinds
    })
    if protocol == "fwkv" and not check_fresh(history).ok:
        shapes.append("fresh")
    if history.lost_writes:
        shapes.append("lost")
    if cluster.any_locks_held():
        shapes.append("lock")
    return "+".join(shapes) or "clean"


def assert_cell(cell):
    shape, known = verdict(*cell), KNOWN.get(cell, "clean")
    assert shape != "clean" or known == "clean", (
        f"{cell} is clean now: drop its row from KNOWN"
    )
    assert shape == known, f"{cell}: {shape}, expected {known}"


@pytest.mark.chaos
@pytest.mark.parametrize(
    "cell", sorted(KNOWN) + list(CLEAN_SAMPLE), ids=lambda cell: "-".join(map(str, cell))
)
def test_a_listed_cell_keeps_its_shape(cell):
    assert_cell(cell)


@pytest.mark.fuzz
@pytest.mark.parametrize("cell", GRID, ids=lambda cell: "-".join(map(str, cell)))
def test_every_cell_matches_the_table(cell):
    assert_cell(cell)


if __name__ == "__main__":
    for cell in GRID:
        shape = verdict(*cell)
        if shape != "clean":
            print(*cell, shape, sep="\t")

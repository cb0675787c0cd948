"""Structural ratchets: the shape PR 14 left must not erode quietly.

Each bound is the value measured after that PR; lower them when a later
change shrinks the thing, never raise them to make room.
"""

import ast
import dataclasses
from pathlib import Path

import repro.config

SRC = Path(repro.config.__file__).parent

#: Longest file under ``src/repro`` (``core/mvcc_node.py``).
LONGEST_FILE = 1317
#: Fields over all config dataclasses in ``repro.config``.
CONFIG_FIELDS = 98


def test_no_source_file_outgrows_the_longest_one():
    lengths = {
        str(path.relative_to(SRC)): len(path.read_text().splitlines())
        for path in SRC.rglob("*.py")
    }
    too_long = {name: n for name, n in lengths.items() if n > LONGEST_FILE}
    assert not too_long, too_long


def test_protocol_node_imports_no_recovery_or_transfer_machinery():
    tree = ast.parse((SRC / "core" / "mvcc_node.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"replay", "restore_store", "CheckpointRecord"}
    assert not {name for name in imported if name.startswith("Snapshot")}


def test_config_surface_does_not_grow():
    total = sum(
        len(dataclasses.fields(cls))
        for cls in vars(repro.config).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    )
    assert total <= CONFIG_FIELDS, total

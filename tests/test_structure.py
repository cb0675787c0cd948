"""Structural ratchets: the shape PRs 14-20 left must not erode quietly.

Each bound is the value measured after those PRs; lower them when a
later change shrinks the thing, never raise them to make room.
"""

import ast
import dataclasses
from pathlib import Path

import repro.config
import repro.net.rpc
from repro.core.vector_clock import VectorClock
from repro.metrics.stats import COUNTERS, MetricsRecorder

SRC = Path(repro.config.__file__).parent
TESTS = Path(__file__).parent

#: Lines over every ``*.py`` under ``src/repro``.  Raised four times (thrice
#: for a protocol step bought, once +74 for the one oracle; ROADMAP has the
#: per-file breakdowns), then lowered by the figure registry.
TOTAL_SRC_LINES = 17253
#: Lines over every ``*.py`` under ``tests/``.
TOTAL_TEST_LINES = 17632
#: Longest file under ``src/repro`` (``core/mvcc_node.py``).
LONGEST_FILE = 1209
#: ``replication/shard.py`` (stream pump, ``NodeReplication``,
#: ``ClusterReplication``) once ``FailoverDriver`` left for ``failover.py``.
SHARD_FILE = 740
#: Fields over all config dataclasses in ``repro.config``.
CONFIG_FIELDS = 79
#: Config fields nothing reads.  ``group_commit_window`` stays accepted
#: only because the frozen ``benchmarks/ledger/registry.py`` passes it.
UNREAD_CONFIG_FIELDS = {"group_commit_window"}


def test_no_source_file_outgrows_the_longest_one():
    lengths = {
        str(path.relative_to(SRC)): len(path.read_text().splitlines())
        for path in SRC.rglob("*.py")
    }
    too_long = {name: n for name, n in lengths.items() if n > LONGEST_FILE}
    assert not too_long, too_long
    assert lengths["replication/shard.py"] <= SHARD_FILE
    assert sum(lengths.values()) <= TOTAL_SRC_LINES, sum(lengths.values())
    tests = sum(len(path.read_text().splitlines()) for path in TESTS.rglob("*.py"))
    assert tests <= TOTAL_TEST_LINES, tests


def test_vector_clocks_only_widen():
    """No clock comparison takes a ``dropped``-origin mask, because no
    clock can lose an entry: the width rule is "stay wide"."""
    masked = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(
            arg.arg == "dropped"
            for arg in node.args.args + node.args.kwonlyargs
        )
    ]
    assert not masked, masked
    assert not hasattr(VectorClock, "shrink")
    assert not hasattr(VectorClock, "shrunk")


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


def test_a_yes_vote_waits_for_no_sync():
    """C1 (DESIGN.md 5.10): the prepare handler appends its record and
    votes; the one force of a commit is the coordinator's decision."""
    tree = ast.parse((SRC / "core" / "mvcc_node.py").read_text())
    (node_class,) = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    forces = {
        method.name
        for method in node_class.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and node.attr == "ensure_durable"
    }
    assert forces == {"commit"}, forces


def test_a_yes_vote_waits_for_no_replication_ack():
    """S4 (DESIGN.md 5.10): the prepare handler enqueues its stream
    record and votes; the one replication wait of a commit is its
    decision's -- ``_await_acks`` is reached from ``replicate_decision``
    only, and ``_handle_prepare`` yields to nothing of the substrate."""
    tree = ast.parse((SRC / "replication" / "shard.py").read_text())
    waits = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "_await_acks"
    }
    assert waits == {"replicate_decision"}, waits
    tree = ast.parse((SRC / "core" / "mvcc_node.py").read_text())
    (prepare,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_handle_prepare"
    ]
    yielded = [
        ast.unparse(node.value)
        for node in ast.walk(prepare)
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None
    ]
    assert yielded and not [y for y in yielded if "replication" in y], yielded


def _dict_valued(node: ast.expr, annotation=None) -> bool:
    """A dict display, comprehension or ``dict(...)`` call, or anything
    annotated ``Dict[...]``."""
    if annotation is not None and "Dict" in ast.unparse(annotation):
        return True
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    )


def test_what_a_coordinator_committed_is_stored_once():
    """One decision log, one lease rule, one RPC deadline: the copies
    PR 20 deleted do not come back under another name."""
    tables = []
    for package in ("core", "healing"):
        for path in (SRC / package).rglob("*.py"):
            tree = ast.parse(path.read_text())
            inside_log = {
                id(node)
                for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "DecisionLog"
                for node in ast.walk(cls)
            }
            for node in ast.walk(tree):
                if id(node) in inside_log:
                    continue
                if isinstance(node, ast.Assign):
                    targets, annotation = node.targets, None
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, annotation = [node.target], node.annotation
                else:
                    continue
                for target in targets:
                    name = getattr(target, "attr", getattr(target, "id", ""))
                    if ("decisions" in name or name == "records") and (
                        _dict_valued(node.value, annotation)
                    ):
                        tables.append(
                            f"{path.relative_to(SRC)}:{node.lineno} {name}"
                        )
    assert not tables, tables

    mvcc = ast.parse((SRC / "core" / "mvcc_node.py").read_text())
    node_attrs = {
        node.attr
        for node in ast.walk(mvcc)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    assert not {
        attr for attr in node_attrs
        if attr.startswith("_decisions") or attr == "_track_decisions"
    }
    assert not hasattr(repro.net.rpc, "_Race")
    assert "termination_query" not in {
        field.name
        for cls in _config_classes()
        for field in dataclasses.fields(cls)
    }


def test_config_surface_does_not_grow():
    total = sum(len(dataclasses.fields(cls)) for cls in _config_classes())
    assert total <= CONFIG_FIELDS, total


def _config_classes():
    return [
        cls for cls in vars(repro.config).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    ]


def _outside_validation(node: ast.AST):
    """``ast.walk`` that skips ``__post_init__`` bodies: a range check is
    not a use."""
    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _outside_validation(child)


def test_every_config_field_is_read_by_the_code():
    """A knob nothing reads is a knob to delete, not to document.

    Reads inside ``config.py`` count (``RpcConfig.backoff`` is the only
    reader of ``backoff_base``/``backoff_cap``), validation does not."""
    read = {
        node.attr
        for path in SRC.rglob("*.py")
        for node in _outside_validation(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {
        field.name
        for cls in _config_classes()
        for field in dataclasses.fields(cls)
        if field.name not in read
    }
    assert unread == UNREAD_CONFIG_FIELDS, unread


def test_metrics_recorder_keeps_hooks_only_for_what_carries_logic():
    hooks = [name for name in vars(MetricsRecorder) if name.startswith("on_")]
    assert len(hooks) <= 8, hooks


def _is_metrics(node: ast.expr, or_self: bool = False) -> bool:
    """``metrics`` / ``<anything>.metrics`` (or the recorder's ``self``)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "metrics"
    return isinstance(node, ast.Name) and (
        node.id == "metrics" or (or_self and node.id == "self")
    )


def _literals(node: ast.expr) -> list:
    """The string(s) an argument can evaluate to; ``[None]`` if unknown."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _literals(node.body) + _literals(node.orelse)
    return [None]


def test_every_counted_name_is_declared_and_every_counter_is_counted():
    """Checks the cold counters (28 of 41 run on no benchmark path)
    without executing them: a mistyped name or a counter nothing bumps
    fails here, not in a run somebody has to think of making."""
    written = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"
                and _is_metrics(node.func.value, path.name == "stats.py")
            ):
                names = _literals(node.args[0])
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "counters"
                and _is_metrics(node.value.value)
            ):
                names = _literals(node.slice)
            else:
                continue
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            assert None not in names, f"{where}: counter name not a literal"
            assert set(names) <= set(COUNTERS), f"{where}: {names}"
            written.update(names)
    assert written == set(COUNTERS), set(COUNTERS) - written

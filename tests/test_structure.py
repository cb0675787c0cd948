"""Structural ratchets: the shape PRs 14-20 left must not erode quietly.

Each bound is the value measured after those PRs; lower them when a
later change shrinks the thing, never raise them to make room.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import repro.config
import repro.faults.schedules
import repro.net.rpc
from repro.cluster.handoff import Shipments, fenced_handoff
from repro.core.repair import Fence
from repro.core.vector_clock import VectorClock
from repro.core.wire import PropagateBody, ShardShipmentBody
from repro.healing import NodeHealing
from repro.metrics.events import COUNTERS, COUNTS, EVENTS, TRACED
from repro.metrics.stats import MetricsRecorder

SRC = Path(repro.config.__file__).parent
TESTS = Path(__file__).parent

#: Lines over every ``*.py`` under ``src/repro``.  Raised five times (thrice
#: for a protocol step bought, +74 for the one oracle, +26 for loaded keys
#: held as their values net of one loader per protocol; ROADMAP has the
#: per-file breakdowns), lowered by the figure registry, by deleting
#: the backup-read path (-242), by the fault schedules keeping only
#: their primitives (-121), by the one event table (-32), by the cost
#: model and tuning values becoming constants (-54), by one elastic
#: directory (-98), by a commit held once per site (-1: the merged
#: frozen-clock messages, the per-key clock copies and the ``key``
#: parameters paid for ``place``, the frozen clock and the tombstone
#: columns) and by one cutover for every ownership change (-9: the key
#: fences, ``with_nodes``, the re-placing membership ops, ``Mutex`` and
#: four key scans paid for the planners and the drivers' module).
#: Lowered -6 by one in-order applier: ``catch_up``, the Propagate
#: handlers, the clock-only tick, gossip ``pull`` and the hand-built
#: reserved sets and widenings paid for ``core/apply.py``.  Lowered
#: -191 by one Propagate per commit: the AIMD controller, the adaptive
#: Propagate and Remove windows and the batched Propagate wire form.
#: Lowered -246 by one truncation rule: bounded retention, the checkpoint
#: transfer that repaired it and its one-way ack and config.  Held by the
#: pipelined replication stream: the window, the one-way ack and the one
#: deadline per stream are paid for by the per-batch RPC pump they
#: replace and by ``replication/shard.py`` docstrings moved to the docs.
#: Lowered -173 by one message per shard transfer: the offer/chunk
#: stream, its receiver state machine and watchdog, net of the 2PC lease
#: that asks its coordinator first and the stream's gap resend.
TOTAL_SRC_LINES = 16106
#: Lines over every ``*.py`` under ``tests/``.  Raised +102 for the
#: loaded-key footprint pins, census and chain shape; lowered -17 by the
#: one read path (the backup-read tests out, owner-read tests in), -343
#: by the one battery scaffold, -39 by deleting test-only switches and -4
#: by shared scenario helpers, net of the tombstone-window, columnar-load
#: and shared-empty-set cases, and -2 by one elastic directory (the ring
#: mutation tests out, the pinned ring and static-refusal cases in).
#: Raised +148 for a commit held once per site: the frozen-clock census
#: over every install path, the ``site == place`` property, the
#: load-leaves-the-memo-empty case and the tombstone-column differential.
#: Raised +221 for one cutover for every ownership change: the four
#: acknowledged-write and read-set regressions across a cutover, the
#: join-and-leave-beside-the-rebalancer case, the planner properties
#: and pinned owner tables, and the tightened one-directory check, net of
#: the ``with_nodes`` property and the ``Mutex`` tests.  Raised for one
#: in-order applier: the gate's delivery-order property test, the
#: one-applier structure check and the pinned bounded-retention loss.
#: Lowered for one Propagate per commit: the AIMD-controller tests, the
#: window-pinning helpers and the batched-window input of the gate's
#: property test out; the one-shape check, the one-Propagate-per-commit
#: and Remove-timer checks and the gate's gap test in.  Lowered for one
#: truncation rule: the bounded-retention scenario and the checkpoint
#: transfer cases out; the lagging-peer, floor and shard-transfer cases in.
#: Raised for the pipelined replication stream: the stream-contract
#: property, the one-strike-per-deadline case, the one-way-stream
#: structure check, the wire-8 round trip and the no-overlap check of
#: ``random_schedule``.  Raised for one message per shard transfer: the
#: composed-faults grid and its committed table of failing cells, the
#: 2PC lease and doomed-round cases, the stream's gap and
#: closed-before-first-batch cases and the duplicate-shipment case, net
#: of the chunk fixtures and the busy and mid-chunk cases.
TOTAL_TEST_LINES = 18370
#: Longest file under ``src/repro`` (``core/mvcc_node.py``; 1063 before
#: its adaptive Propagate windows went).
LONGEST_FILE = 993
#: ``replication/shard.py`` (stream pump, ``NodeReplication``,
#: ``ClusterReplication``) once ``FailoverDriver`` left for ``failover.py``
#: and backups stopped serving reads; 601 before the pipelined stream.
SHARD_FILE = 580
#: Fields over all config dataclasses in ``repro.config``.
CONFIG_FIELDS = 51
#: Config fields nothing reads.  ``group_commit_window`` and
#: ``batching`` (``BatchingConfig.adaptive``) stay accepted only because
#: the frozen ``benchmarks/ledger/registry.py`` passes them.
UNREAD_CONFIG_FIELDS = {"group_commit_window", "adaptive", "batching"}


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


def test_only_the_store_reads_its_entries():
    """A loaded, untouched key's entry is its value (DESIGN.md 3.2), so
    chains move between stores through ``adopt``, never ``_chains``."""
    root = TESTS.parent
    naming = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in root.rglob("*.py")
        if path.relative_to(root).as_posix() != "src/repro/storage/store.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_chains"
    ]
    assert not naming, naming


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


def test_the_replication_stream_is_one_way_with_one_deadline():
    """REPLICATE and its ack are one-way messages: ``on_replicate`` never
    replies through the RPC endpoint, and a stream keeps one timer, not
    a request per batch on the wire."""
    from repro.replication.shard import ReplicationStream

    tree = ast.parse((SRC / "replication" / "shard.py").read_text())
    (handler,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "on_replicate"
    ]
    called = {
        node.func.attr for node in ast.walk(handler)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "send" in called and not called & {"reply", "request", "body_of"}
    assert "inflight" not in ReplicationStream.__slots__
    assert "timer" in ReplicationStream.__slots__


def test_reads_are_sent_from_read_only():
    """One read path: a read request leaves a coordinator's ``read`` and
    nothing else -- no multi-get RPC loop, no backup forwarding it."""
    senders = {
        f"{cls.name}.{method.name}"
        for path in SRC.rglob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        for call in ast.walk(method)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) != "on"  # handler registration
        and any(
            isinstance(arg, ast.Attribute) and arg.attr == "READ_REQUEST"
            for arg in call.args
        )
    }
    assert senders == {"MVCCNode.read", "TwoPCNode.read"}, senders


def test_only_the_shard_map_re_places_keys():
    """One elastic directory: the ring and the scripted directories are
    static look-ups, and joins, leaves and migrations flip a ShardMap
    through one cutover."""
    tree = ast.parse((SRC / "cluster" / "directory.py").read_text())
    methods = {
        cls.name: {
            method.name for method in cls.body
            if isinstance(method, ast.FunctionDef)
        }
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
    }
    assert methods.pop("Directory") == {"site", "place"}
    mutators = {"add_node", "remove_node", "with_nodes", "assign"}
    elastic = {name for name, defined in methods.items() if defined & mutators}
    assert elastic == {"ShardMap"}, elastic
    # One cutover: ``ShardMap.assign`` is the only writer of an owner
    # entry (joins and leaves are planned moves, not a second placement
    # algorithm), the fence has no every-key level for a view commit to
    # lift, and no handoff holds its fence past its own act.
    writers = {
        f"{cls.name}.{function.name}"
        for path in SRC.rglob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for function in cls.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Subscript)
        and getattr(target.value, "attr", None) == "_owners"
    }
    assert writers == {"ShardMap.assign"}, writers
    assert not hasattr(Fence, "every_key") and not hasattr(Fence, "keys")
    assert "hold" not in inspect.signature(fenced_handoff).parameters


def _methods(tree):
    """Module-level functions and class methods (nested ones belong to
    their enclosing function), as ``(name, node)``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield method.name, method


def test_one_in_order_applier_advances_site_vc():
    """Alg. 5 line 16 is written once (``core/apply.py``): ``siteVC`` is
    written by the clock-only tick, the Decide's data tick and the wipe
    and replay paths; widened on first sight only by ``Applier.see``;
    waited on only by the gate (the read handler's snapshot stall aside);
    and no caller hand-builds a set of sequence numbers to leave alone."""
    writers, waiters, wideners, gone = set(), set(), set(), set()
    for path in SRC.rglob("*.py"):
        for name, function in _methods(ast.parse(path.read_text())):
            where = f"{path.stem}.{name}"
            if name in ("catch_up", "_apply_propagate", "_advance_clock"):
                gone.add(where)
            for node in ast.walk(function):
                if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Subscript)
                    and ast.unparse(target.value).endswith("site_vc")
                    for target in node.targets
                ):
                    writers.add(where)
                elif isinstance(node, ast.Call):
                    called = ast.unparse(node.func)
                    if called == "wait_until" and "site_vc_changed" in ast.unparse(
                        node.args[0]
                    ):
                        waiters.add(where)
                    elif called.endswith("site_vc.widen"):
                        wideners.add(where)
                elif getattr(node, "id", getattr(node, "arg", None)) == "reserved":
                    gone.add(where)
    assert writers == {
        "apply.tick", "mvcc_node._apply_committed_decide",
        "recovery._wipe_volatile", "recovery._install_replayed", "wal.replay",
    }, writers
    assert wideners == {
        "apply.see", "membership.apply_commit", "membership.restore",
        "recovery._install_replayed", "wal.replay",
    }, wideners
    assert waiters == {"apply.turn", "mvcc_node.on_read_request"}, waiters
    assert not gone, gone


def test_background_traffic_has_one_shape():
    """One Propagate per uninvolved site per commit (Alg. 4 line 27) and
    Removes on one per-node timer: no coalescing window, no controller,
    no batched wire form, and nothing reads the inert ``batching``."""
    assert tuple(
        field.name for field in dataclasses.fields(PropagateBody)
    ) == ("origin", "seq_no")
    assert importlib.util.find_spec("repro.core.batching") is None
    names = (
        "adapt_window", "_propagate_buffer", "_adaptive_", "_remove_windows",
        "_flush_propagate", "_flush_removes_site",
    )
    found, reads = [], []
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        found += [f"{path.name}: {name}" for name in names if name in text]
        reads += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and node.attr == "batching"
        ]
    assert not found, found
    assert not reads, reads


def test_one_chain_transfer():
    """One truncation rule and one message per shipment: nothing prunes
    below a lagging peer's frontier, so no checkpoint is shipped to repair
    one; the fenced shard handoff is the only caller of ``ship``, and a
    shipment is one ``SHARD_SHIPMENT`` RPC -- no chunks, no offer, no
    receiver-side watchdog and no inbound-transfer state."""
    names = (
        "max_peer_lag", "pruned_floor", "latest_checkpoint", "_snapshot_gap",
        "snapshots_shipped", "_regresses", "SNAPSHOT_ACK", "on_ack",
        "SnapshotTransferConfig", "chunk_records", "self._latest = record",
        "CHUNK_RECORDS", "SnapshotOfferBody", "SnapshotChunkBody",
        "SnapshotAckBody", "SNAPSHOT_OFFER", "SNAPSHOT_CHUNK", "_Inbound",
        "def _watch(", "def _abandon(", ".inbound", "ChainTransfer",
    )
    found, callers = [], set()
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        found += [f"{path.name}: {name}" for name in names if name in text]
        callers |= {
            f"{path.relative_to(SRC)}:{node.func.attr}"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("ship", "ship_shard")
        }
    assert not found, found
    assert callers == {"cluster/handoff.py:ship"}
    assert importlib.util.find_spec("repro.healing.transfer") is None
    assert "shard" not in {f.name for f in dataclasses.fields(ShardShipmentBody)}
    assert "chains" in {f.name for f in dataclasses.fields(ShardShipmentBody)}
    assert "shard" not in inspect.signature(Shipments.ship).parameters
    assert "transfer" not in inspect.getsource(NodeHealing.__init__)
    kinds = {"snapshot_offer", "snapshot_shipped", "shard_offer", "snapshot_accept",
             "snapshot_abandon"}
    assert not kinds & set(EVENTS)
    assert not {"snapshots_shipped", "snapshot_offers", "snapshot_chunks",
                "snapshot_abandoned"} & set(COUNTERS)
    assert "shard" not in EVENTS["snapshot_install"].fields


def test_fault_schedules_keep_only_their_primitives():
    """A scenario composes primitives (the nemesis orders the events); a
    builder that renames one or fixes a composition is not another."""
    builders = {
        name for name, value in vars(repro.faults.schedules).items()
        if callable(value)
        and getattr(value, "__module__", None) == repro.faults.schedules.__name__
        and not isinstance(value, type)
    }
    assert builders == {
        "ordered", "crash_cycle", "durable_crash_cycle", "partition_cycle",
        "isolate_cycle", "random_schedule",
    }, builders


def test_fault_suites_build_and_drive_through_one_scaffold():
    """``tests/harness/battery.py`` is the only place a fault suite's
    cluster gets its nemesis, and its driving and fingerprint functions
    are not copied into a suite."""
    battery = TESTS / "harness" / "battery.py"
    shared = {
        node.name for node in ast.parse(battery.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } - {"build"}
    copies = []
    for path in TESTS.rglob("*.py"):
        if path == battery:
            continue
        tree = ast.parse(path.read_text())
        where = path.relative_to(TESTS)
        copies += [
            f"{where}:{node.lineno} {node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in shared
        ]
        if where.parts[0] == "integration":
            copies += [
                f"{where}:{node.lineno} Nemesis()"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "Nemesis"
            ]
    assert not copies, copies


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

    Reads inside ``config.py`` count, validation does not, and neither
    does a call: ``node.begin(...)`` is not a read of a ``begin`` field."""
    read = set()
    for path in SRC.rglob("*.py"):
        nodes = list(_outside_validation(ast.parse(path.read_text())))
        called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        read |= {
            node.attr
            for node in nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in called
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


def _emits():
    """``(where, kinds, fields)`` of every ``.emit`` under ``src/repro``; a
    ``**`` pass-through of a ``**`` parameter is what the callers pass."""
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for function in defs:
            for call in ast.walk(function):
                if getattr(getattr(call, "func", None), "attr", "") != "emit":
                    continue
                where = f"{path.relative_to(SRC)}:{call.lineno}"
                fields = {kw.arg for kw in call.keywords}
                if None in fields:
                    assert function.args.kwarg, where
                    fields |= {
                        kw.arg for caller in calls for kw in caller.keywords
                        if getattr(caller.func, "attr", "") == function.name
                    } - {arg.arg for arg in function.args.args}
                yield where, _literals(call.args[1]), fields - {None}


def test_every_emit_names_a_declared_kind_with_its_fields():
    """One event table: an emit names a declared kind as a literal and
    passes only its fields, a counted one always; every kind is emitted."""
    emitted = set()
    for where, kinds, fields in _emits():
        assert None not in kinds and set(kinds) <= TRACED, f"{where}: {kinds}"
        for kind in kinds:
            counted = {field for _, field in COUNTS.get(kind, ()) if field}
            assert counted <= fields <= EVENTS[kind].fields, f"{where}: {kind}"
        emitted.update(kinds)
    assert emitted == TRACED, TRACED - emitted


def test_every_counted_name_is_declared_and_every_counter_is_counted():
    """Checks the cold counters (28 of 41 run on no benchmark path)
    without executing them: a mistyped name or a counter nothing bumps
    fails here, not in a run somebody has to think of making -- nor a
    ``count()`` of a counter a trace kind adds to."""
    plain = {name for name, event in EVENTS.items() if event.fields is None}
    written = {counter for counts in COUNTS.values() for counter, _ in counts}
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
            assert set(names) <= plain, f"{where}: {names}"
            written.update(names)
    assert written == set(COUNTERS), set(COUNTERS) - written

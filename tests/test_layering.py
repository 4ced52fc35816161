"""Layering guard: the lifecycle and the fault injector drive a front
end only through its public surface (DESIGN.md §8), and the monitors
replicate out-buffers only through the shared handlers (DESIGN.md §3).

Every cluster transition has one implementation on ``DistMvee`` and
every fault target one ``Supervisor`` hook; these checks fail when
``repro.lifecycle`` or ``repro.faults`` reaches into another object's
underscore state again, or when the injector duck-types the front end
with ``getattr``/``hasattr`` instead of calling a hook.

``repro.core.handlers`` is the one module that encodes a call's
out-buffers, for GHUMVEE, IP-MON, the dist mirror and VARAN alike; the
last two checks fail when a monitor decodes epoll events, pollfds or
iovecs itself again, or probes a handler with
``getattr``/``hasattr``/``isinstance`` instead of calling its methods.

Every cross-node effect goes through ``DistMvee.deliver`` (DESIGN.md
§8, "Scheduled delivery"); the last three checks fail when code outside
it computes a delivery instant from ``RELEASE_SLACK_NS``, when a node
schedules an event itself, or when a mirror is written outside the
delivered effects.

A rejoiner adopts its mirror in one arrival order through the live
lanes (DESIGN.md §13); the last three checks fail when a second replay
plan or replay mode comes back, when ``dist/node.py`` tests for the
live frontier in more than one place, or when a mirror's order log is
written outside ``RBMirror`` and the rejoiner's boot.

The dist transport has one batch pipeline whether it runs loss-free or
reliable (DESIGN.md §8, "WAN-grade links"); the next check fails when a
second method of ``Transport`` puts batches on the network or parses
them.

A config carries only what its callers set: the last check fails when a
``DistConfig`` or ``LifecycleConfig`` field is set by no call in
``src/`` or ``perfbench/``, i.e. only by tests (a tuning value a test
varies belongs to the object that owns it, or to a module constant).
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _private_attributes(path: Path):
    """``obj._name`` reads and writes on anything but ``self``."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or _is_self(node.value):
            continue
        name = node.attr
        if name.startswith("_") and not (
            name.startswith("__") and name.endswith("__")
        ):
            yield "%s:%d %s" % (path.name, node.lineno, ast.unparse(node))


@pytest.mark.parametrize("package", ["lifecycle", "faults"])
def test_no_private_attributes_of_other_objects(package):
    found = [
        hit
        for path in sorted((SRC / package).glob("*.py"))
        for hit in _private_attributes(path)
    ]
    assert found == []


def test_injector_does_not_duck_type_its_targets():
    path = SRC / "faults" / "injector.py"
    tree = ast.parse(path.read_text(), str(path))
    found = [
        "%s:%d %s" % (path.name, node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
        and not (node.args and _is_self(node.args[0]))
    ]
    assert found == []


#: The out-buffer struct codecs, and the modules that may use them:
#: the handlers, and the comparator, which reads iovecs of *inputs*.
_CODECS = frozenset({
    "read_iovecs", "pack_epoll_event", "unpack_epoll_event",
    "pack_pollfd", "unpack_pollfd", "EPOLL_EVENT_SIZE", "POLLFD_SIZE",
})
_CODEC_USERS = {
    "core/handlers.py": _CODECS,
    "core/comparator.py": frozenset({"read_iovecs"}),
}


def _codec_uses(path: Path):
    """Codec names imported (``from ... import``) or reached as an
    attribute (``structs.read_iovecs``)."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _CODECS:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr in _CODECS:
            yield node.lineno, node.attr


@pytest.mark.parametrize("package", ["core", "dist", "baselines"])
def test_only_the_handlers_encode_out_buffers(package):
    found = []
    for path in sorted((SRC / package).rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        allowed = _CODEC_USERS.get(relative, frozenset())
        found += [
            "%s:%d %s" % (relative, lineno, name)
            for lineno, name in _codec_uses(path)
            if name not in allowed
        ]
    assert found == []


def _mentions_handler(node) -> bool:
    return "handler" in ast.unparse(node).lower()


def test_no_monitor_probes_a_handler():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr", "isinstance")
                and node.args
                and any(_mentions_handler(arg) for arg in node.args[:2])
            ):
                found.append("%s:%d %s" % (
                    path.relative_to(SRC).as_posix(), node.lineno, ast.unparse(node)
                ))
    assert found == []


def _scoped(path: Path):
    """Every AST node of ``path`` with the dotted ``Class.function``
    scope it sits in ("" at module level)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
            else:
                yield child, ".".join(scope)
                yield from visit(child, scope)

    return visit(ast.parse(path.read_text(), str(path)), ())


def test_only_deliver_reads_the_release_slack():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node, scope in _scoped(path):
            reads = (
                isinstance(node, ast.Name)
                and node.id == "RELEASE_SLACK_NS"
                and isinstance(node.ctx, ast.Load)
            ) or (
                isinstance(node, ast.Attribute)
                and node.attr == "RELEASE_SLACK_NS"
            ) or (
                isinstance(node, ast.alias) and node.name == "RELEASE_SLACK_NS"
            )
            if reads and scope != "DistMvee.deliver":
                found.append("%s %s" % (path.relative_to(SRC).as_posix(), scope))
    assert found == []


def test_nodes_schedule_nothing_themselves():
    path = SRC / "dist" / "node.py"
    found = [
        "node.py:%d %s" % (node.lineno, ast.unparse(node))
        for node, _scope in _scoped(path)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "call_at"
    ]
    assert found == []


#: The delivered effects that land mirror records and releases, plus
#: the leader's write of its own record when it publishes.
_MIRROR_WRITERS = frozenset({
    "DistMvee.land_records",
    "DistMonitor._release",
    "LifecycleManager._boot_replacement",
    "DistInterceptor._publish",
})


def test_mirrors_are_written_only_by_deliveries():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node, scope in _scoped(path):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("put", "release", "prefill")
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "mirror"
            ):
                continue
            receiver = ast.unparse(node.func.value)
            if scope not in _MIRROR_WRITERS or (
                scope == "DistInterceptor._publish"
                and receiver != "self.node.mirror"
            ):
                found.append("%s:%d %s" % (
                    path.relative_to(SRC).as_posix(), node.lineno,
                    ast.unparse(node),
                ))
    assert found == []


def test_one_replay_order():
    found = [
        "%s %s" % (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in ("replay_plan", "replay_cursor", ".replaying")
        if name in path.read_text()
    ]
    assert found == []


def test_one_frontier_test():
    path = SRC / "dist" / "node.py"
    calls = [
        "node.py:%d %s" % (node.lineno, ast.unparse(node))
        for node, _scope in _scoped(path)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "reach_frontier"
    ]
    assert len(calls) == 1, calls


_ORDER_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "pop",
    "popleft", "remove", "clear", "rotate",
})
_ORDER_WRITERS = ("RBMirror.", "LifecycleManager._boot_replacement")


def _order_writes(path: Path):
    """Writes to a mirror's ``order`` log: stores and deletes of the
    attribute or an item of it, calls of its mutating methods, and
    aliases that would let a later line mutate it unseen."""
    for node, scope in _scoped(path):
        log = None
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            log = node
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            log = node.value
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr in _ORDER_MUTATORS:
            log = node.func.value
        elif isinstance(node, ast.Assign):
            log = node.value
        if not (isinstance(log, ast.Attribute) and log.attr == "order"):
            continue
        receiver = ast.unparse(log.value)
        if not (receiver.endswith("mirror") or (
            receiver == "self" and scope.startswith("RBMirror.")
        )):
            continue
        if not scope.startswith(_ORDER_WRITERS):
            yield "%s:%d %s" % (
                path.relative_to(SRC).as_posix(), node.lineno, ast.unparse(node)
            )


def test_order_log_is_written_only_by_the_mirror_and_the_boot():
    found = [
        hit for path in sorted(SRC.rglob("*.py")) for hit in _order_writes(path)
    ]
    assert found == []


def test_one_batch_pipeline():
    path = SRC / "dist" / "transport.py"
    callers = {"transmit": set(), "parse_batch": set()}
    for node, scope in _scoped(path):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "transmit" and (
            ast.unparse(func.value) == "self.network"
        ):
            callers["transmit"].add(scope)
        elif isinstance(func, ast.Name) and func.id == "parse_batch":
            callers["parse_batch"].add(scope)
    assert callers == {
        "transmit": {"Transport._transmit"},
        "parse_batch": {"Transport._receive"},
    }


#: No non-test caller sets ``LifecycleConfig.autoscale``, but the
#: lifecycle golden (tests/diversity/golden_hetero_stats.json) pins the
#: zero counters of the actuators it arms.
_TEST_ONLY_FIELDS = {("LifecycleConfig", "autoscale")}


def _keywords_by_callee(names, paths):
    """The keyword names each call of a class in ``names`` passes."""
    found = {name: set() for name in names}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                callee = func.attr
            elif isinstance(func, ast.Name):
                callee = func.id
            else:
                continue
            if callee in found:
                found[callee].update(kw.arg for kw in node.keywords if kw.arg)
    return found


def test_config_fields_have_non_test_callers():
    from repro.dist import DistConfig
    from repro.lifecycle import LifecycleConfig

    configs = (DistConfig, LifecycleConfig)
    paths = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    set_by = _keywords_by_callee({cls.__name__ for cls in configs}, paths)
    unset = {
        (cls.__name__, field.name)
        for cls in configs
        for field in fields(cls)
        if field.name not in set_by[cls.__name__]
    }
    assert unset == _TEST_ONLY_FIELDS

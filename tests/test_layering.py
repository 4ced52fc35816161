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
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


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

"""Layering guard: the lifecycle and the fault injector drive a front
end only through its public surface (DESIGN.md §8).

Every cluster transition has one implementation on ``DistMvee`` and
every fault target one ``Supervisor`` hook; these checks fail when
``repro.lifecycle`` or ``repro.faults`` reaches into another object's
underscore state again, or when the injector duck-types the front end
with ``getattr``/``hasattr`` instead of calling a hook.
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

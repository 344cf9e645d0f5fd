"""Catalog dispatch lives on the space classes.

Every homogeneous catalog space carries (dim, k), its constructor admits only
the dimensions with a kernel, and kernel_for is the one gate to the kernel
catalog.  Outside model_spaces.py no module may branch on the concrete class
of a catalog space with isinstance.
"""

from __future__ import annotations

import ast
from pathlib import Path

import rdl

CATALOG = {"Euclidean", "Hyperbolic", "HalfPlane", "RotSymSurface"}

# (module, enclosing function, class): the only checks allowed outside
# model_spaces.py.  None: even the half-plane's k functional is read off the space.
ALLOWED = set()

SRC = Path(rdl.__file__).parent


def _class_names(node):
    """Names of the classes in an isinstance second argument (name, attribute or tuple)."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    for e in elts:
        if isinstance(e, ast.Name):
            yield e.id
        elif isinstance(e, ast.Attribute):
            yield e.attr


def catalog_isinstance_calls(path: Path):
    """(module, enclosing function, class, line) of each isinstance on a catalog class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            for name in _class_names(node.args[1]):
                if name in CATALOG:
                    found.append((path.name, func, name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_catalog_isinstance_outside_model_spaces():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "model_spaces.py")
    assert len(modules) >= 6
    calls = [c for p in modules for c in catalog_isinstance_calls(p)]
    stray = [c for c in calls if c[:3] not in ALLOWED]
    assert not stray, f"isinstance on a catalog class outside model_spaces.py: {stray}"
    assert {c[:3] for c in calls} == ALLOWED


def test_guard_sees_names_attributes_and_tuples(tmp_path):
    mod = tmp_path / "probe.py"
    mod.write_text(
        "def f(sp, ms):\n"
        "    a = isinstance(sp, (int, Hyperbolic))\n"
        "    b = isinstance(sp, ms.Euclidean)\n"
        "    return a or b or isinstance(sp, dict)\n"
    )
    assert [c[1:3] for c in catalog_isinstance_calls(mod)] == [("f", "Hyperbolic"), ("f", "Euclidean")]

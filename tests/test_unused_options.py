"""Every defaulted parameter of rdl's public functions is set by some caller.

A parameter that no caller ever sets is an option only its default exercises:
an untested configuration.  Such a setting belongs in a module constant.
This scan collects the defaulted parameters of the public module-level
functions and the methods of public classes in src/rdl, and looks for a
call that passes each one, by keyword or by position, anywhere in src/rdl,
tests/ or perfbench/.  Calls are matched by the called name alone, so a
pass-through from another function counts as a caller.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import rdl

SRC = Path(rdl.__file__).parent
ROOT = SRC.parent.parent
CALLER_DIRS = (SRC, ROOT / "tests", ROOT / "perfbench")


def _is_static(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def defaulted_parameters(path: Path):
    """(qualified name, called name, parameter, position) of each defaulted
    parameter; position is the index of the positional argument that reaches
    it (self and cls not counted), None for a keyword-only parameter."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def scan(fn, owner):
        if fn.name.startswith("_"):
            return
        qual = f"{path.stem}.{owner + '.' if owner else ''}{fn.name}"
        a = fn.args
        positional = a.posonlyargs + a.args
        skip = 1 if owner is not None and not _is_static(fn) else 0
        first_default = len(positional) - len(a.defaults)
        for i in range(first_default, len(positional)):
            found.append((qual, fn.name, positional[i].arg, i - skip))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                found.append((qual, fn.name, arg.arg, None))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan(node, None)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan(item, node.name)
    return found


def call_sites(paths):
    """Per called name: the keywords passed, the most positional arguments,
    and whether some call unpacks *args or **kwargs."""
    sites = defaultdict(
        lambda: {"keywords": set(), "positional": 0, "star": False, "starstar": False})
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            s = sites[name]
            s["positional"] = max(s["positional"], len(node.args))
            s["star"] |= any(isinstance(x, ast.Starred) for x in node.args)
            for kw in node.keywords:
                if kw.arg is None:
                    s["starstar"] = True
                else:
                    s["keywords"].add(kw.arg)
    return sites


def unset_parameters(src_dir: Path, caller_paths) -> list:
    sites = call_sites(caller_paths)
    unset = []
    for path in sorted(src_dir.glob("*.py")):
        for qual, name, param, pos in defaulted_parameters(path):
            s = sites.get(name)
            passed = s is not None and (
                param in s["keywords"] or s["starstar"]
                or (pos is not None and (s["positional"] > pos or s["star"]))
            )
            if not passed:
                unset.append(f"{qual}({param})")
    return unset


def test_every_public_option_is_set_by_some_caller():
    assert all(d.is_dir() for d in CALLER_DIRS), CALLER_DIRS
    callers = sorted(p for d in CALLER_DIRS for p in d.rglob("*.py"))
    assert len([p for p in callers if p.parent == SRC]) >= 6
    unset = unset_parameters(SRC, callers)
    assert not unset, f"defaulted parameters that no caller sets (make them constants): {unset}"


def test_guard_sees_keywords_positions_and_methods(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n"
        "    pass\n"
        "def _private(x=0):\n"
        "    pass\n"
        "class C:\n"
        "    def m(self, x=0, y=1):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(x, y=0):\n"
        "        pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("f(0, 5)\nf(0, d=4)\nC().m(9)\nC.s(1)\n")
    assert unset_parameters(src, [caller]) == ["mod.f(c)", "mod.C.m(y)", "mod.C.s(y)"]
    caller.write_text("f(*xs)\nC().m(**kw)\nC.s(1, 2)\n")
    assert unset_parameters(src, [caller]) == ["mod.f(d)"]

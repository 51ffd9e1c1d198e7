"""Static check, stdlib ``ast`` only: no package module imports a name it never uses.

``__init__`` is checked too: it loads its public names lazily, so it
imports only what it reads.
"""

import ast
from pathlib import Path

import pytest

import geoseq

PACKAGE = Path(geoseq.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _annotation_names(tree: ast.AST) -> set:
    """Names inside string annotations such as ``-> "GeoSequence"``."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            notes += [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    names = set()
    for note in notes:
        for sub in ast.walk(note) if note is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                parsed = ast.parse(sub.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    """Sorted names bound by an import in ``source`` and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - _annotation_names(tree))


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import sys\n"
        "from math import inf, nan as NaN\n"
        "from typing import Optional\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return sys.argv, inf\n"
    )
    assert unused_imports(source) == ["NaN", "os", "osp"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []

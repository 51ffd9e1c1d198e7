"""Static check, stdlib ``ast`` only: the public surface carries no uncalled helper.

Every function or class in a package module's ``__all__`` is imported by
another package module or a ``bench/*.py`` file, or called by bare name in
its own module.  The only exceptions are the paper's own objects, which
the README names.
"""

import ast
from pathlib import Path

import pytest

import geoseq

PACKAGE = Path(geoseq.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# the paper's objects that nothing in the package or the benchmark calls
PAPER_OBJECTS = [
    "gadd", "gsub", "gmul", "gscale", "gabs", "gsum", "to_log", "from_log",
    "luxemburg_norm", "difference_entry", "kernel_log_sequence", "vp_mean",
    "modular_window",
]


def _trees(paths) -> dict:
    return {p.stem: ast.parse(p.read_text("utf-8")) for p in paths}


def _imported(tree: ast.AST) -> set:
    """Names bound by a ``from ... import`` in ``tree``."""
    return {
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


def _called(tree: ast.AST) -> set:
    """Names called bare, as in ``name(...)``, in ``tree``."""
    return {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def _exported_definitions(tree: ast.AST) -> set:
    """The functions and classes defined at the top of ``tree`` that its
    literal ``__all__`` lists (none when ``__all__`` is not a literal)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                return set()
            listed = set(ast.literal_eval(node.value))
            defined = {
                n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            }
            return listed & defined
    return set()


def uncalled(modules: dict, bench: list) -> list:
    """Sorted (module, name) of exported definitions that no other module of
    ``modules`` and no tree of ``bench`` imports, and that their own module
    never calls by bare name."""
    found = []
    for stem, tree in modules.items():
        others = [t for s, t in modules.items() if s != stem] + bench
        reached = _called(tree).union(*map(_imported, others))
        found += [(stem, name) for name in _exported_definitions(tree) - reached]
    return sorted(found)


def test_checker_finds_uncalled_names():
    modules = {
        "a": ast.parse(
            "__all__ = ['used', 'called', 'lonely', 'Lonely', 'CONSTANT']\n"
            "CONSTANT = 1\n"
            "def used(): pass\n"
            "def called(): pass\n"
            "def lonely(): return called()\n"
            "class Lonely: pass\n"
        ),
        "b": ast.parse("from .a import used\n"),
    }
    assert uncalled(modules, []) == [("a", "Lonely"), ("a", "lonely")]
    assert uncalled(modules, [ast.parse("from geoseq.a import lonely")]) == [("a", "Lonely")]
    dynamic = ast.parse("__all__ = list(NAMES)\ndef hidden(): pass\n")
    assert uncalled({"c": dynamic}, []) == []


def test_every_exported_definition_is_reached_or_a_paper_object():
    modules = _trees(PACKAGE.glob("*.py"))
    bench = list(_trees((ROOT / "bench").glob("*.py")).values())
    stray = [(m, name) for m, name in uncalled(modules, bench) if name not in PAPER_OBJECTS]
    assert stray == []


@pytest.mark.parametrize("name", PAPER_OBJECTS)
def test_each_paper_object_is_exported_and_in_the_readme(name):
    assert name in geoseq.__all__
    assert f"`{name}`" in (ROOT / "README.md").read_text("utf-8")

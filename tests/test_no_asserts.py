"""Static check, stdlib ``ast`` only: no package module has an ``assert`` statement.

``python -O`` strips asserts, so an invariant written as one silently stops
being checked; invariants raise a typed error instead.
"""

import ast
from pathlib import Path

import pytest

import geoseq

PACKAGE = Path(geoseq.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def assert_lines(source: str) -> list:
    """Sorted line numbers of the ``assert`` statements in ``source``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_checker_finds_asserts():
    source = (
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    return x  # assert in a comment\n"
        "s = 'assert False'\n"
        "assert f(1)\n"
    )
    assert assert_lines(source) == [2, 5]


@pytest.mark.parametrize("module", MODULES)
def test_no_asserts(module):
    assert assert_lines((PACKAGE / module).read_text()) == []

"""Matrices are read through their sparse store outside `urnchains._linalg`.

`_linalg.Matrix` stores one {column: value} dict of nonzero entries per row;
its `rows` attribute is a dense view, built on request for tests and the
benchmark.  These tests read the package's source text and fail when another
module reads `.rows` or fills a dense row as `[ZERO] * width`, either of
which would put the cost of the zeros back on a hot path.  Docstrings and
comments do not count.
"""

import ast
import os

import pytest

from urnchains import _linalg

PACKAGE = os.path.dirname(os.path.abspath(_linalg.__file__))
MODULES = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "_linalg.py"
)


def _tree(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def _dense_view_reads(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]


def _zero_fills(tree):
    # [ZERO] * width or width * [ZERO], in a list or a tuple
    def zero_literal(node):
        return (
            isinstance(node, (ast.List, ast.Tuple))
            and len(node.elts) == 1
            and isinstance(node.elts[0], ast.Name)
            and node.elts[0].id == "ZERO"
        )

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and (zero_literal(node.left) or zero_literal(node.right))
    ]


@pytest.mark.parametrize("name", MODULES)
def test_only_linalg_reads_the_dense_view(name):
    tree = _tree(name)
    assert _dense_view_reads(tree) == [], f"{name}: read the sparse rows in .entries"
    assert _zero_fills(tree) == [], f"{name}: build sparse rows, not [ZERO] * width"


def test_the_guard_sees_what_it_forbids():
    bad = ast.parse(
        "def f(m, n):\n"
        '    """m.rows and [ZERO] * n in a docstring are prose."""\n'
        "    first = m.rows[0]\n"
        "    return [ZERO] * n, n * (ZERO,)\n"
    )
    assert _dense_view_reads(bad) == [3]
    assert _zero_fills(bad) == [4, 4]

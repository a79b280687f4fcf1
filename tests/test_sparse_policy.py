"""Matrices are built as sparse rows outside `urnchains._linalg`.

`_linalg.Matrix` stores one {column: value} dict of nonzero entries per row,
and that is the only form a matrix takes.  These tests read the package's
source text and fail when another module fills a dense row as
`[ZERO] * width`, which would put the cost of the zeros back on a hot path.
Docstrings and comments do not count.
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
    assert _zero_fills(_tree(name)) == [], f"{name}: build sparse rows, not [ZERO] * width"


def test_the_guard_sees_what_it_forbids():
    bad = ast.parse(
        "def f(m, n):\n"
        '    """[ZERO] * n in a docstring is prose."""\n'
        "    return [ZERO] * n, n * (ZERO,)\n"
    )
    assert _zero_fills(bad) == [3, 3]

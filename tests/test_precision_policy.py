"""The exact-versus-float policy is decided in `urnchains._linalg` alone.

`_linalg.is_exact` tells exact values (ints and Fractions) from floats, and
`_linalg.arithmetic` gives each side its conversion, zero and tolerance
(`_linalg.FLOAT_TOL` for floats).  These tests read the package's source
text and fail when another module decides exactness or the float tolerance
for itself.  Docstrings and comments do not count.
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


def _exactness_tests(tree):
    # isinstance(x, (int, Fraction)), in either order and among other types
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
        ):
            types = {t.id for t in node.args[1].elts if isinstance(t, ast.Name)}
            if {"int", "Fraction"} <= types:
                found.append(node.lineno)
    return found


def _float_tolerances(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and node.value == _linalg.FLOAT_TOL
    ]


def _num_definitions(tree):
    # the per-module (conversion, zero, tolerance) helper _linalg.arithmetic replaced
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_num"
    ]


@pytest.mark.parametrize("name", MODULES)
def test_only_linalg_decides_exactness_and_the_float_tolerance(name):
    tree = _tree(name)
    assert _exactness_tests(tree) == [], f"{name}: use _linalg.is_exact"
    assert _float_tolerances(tree) == [], f"{name}: use _linalg.FLOAT_TOL or _linalg.arithmetic"
    assert _num_definitions(tree) == [], f"{name}: use _linalg.arithmetic"


def test_the_guard_sees_what_it_forbids():
    # the source forms the guard is meant to refuse are found by it
    bad = ast.parse(
        "TOL = 1e-9\n"
        "def _num(mode):\n"
        "    return isinstance(mode, (Fraction, int))\n"
        '"""1e-9 in a docstring is prose."""\n'
    )
    assert _float_tolerances(bad) == [1]
    assert _num_definitions(bad) == [2]
    assert _exactness_tests(bad) == [3]
    linalg = _tree("_linalg.py")
    assert _exactness_tests(linalg) and _float_tolerances(linalg)
    assert {"moments.py", "optim.py", "pcoh.py", "stoch.py"} <= set(MODULES)

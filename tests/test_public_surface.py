"""Every function, class and method of the package has a caller in the program.

A top-level function or class of `src/urnchains`, public or private, must be
referred to, as an `ast` Name or Attribute, by some package module or some
`perfbench/` file; a method or property of a package class must be read as
an attribute `.name` there.  Dunders, which Python calls, are exempt.  A
mention in a docstring or comment does not count.  A name that only the
tests use is allowed only when a test checks a law of the paper through it,
and `TEST_ONLY` names that law.
"""

import ast
import os

from urnchains import _linalg

PACKAGE = os.path.dirname(os.path.abspath(_linalg.__file__))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(REPO, "perfbench")

# kept name -> the paper law a test checks through it, and that test
TEST_ONLY = {
    "pcoh.promotion":
        "promotion is multiplicative (test_pcoh::test_promotion_multiplicative)",
    "chains.bang_cone":
        "the depth-N tables are exactly the coherent families on the free-copointed"
        " chain (test_chains::test_every_depth_table_is_a_coherent_family)",
    "chains.bang_from_cone":
        "the same law, read back from the family"
        " (test_chains::test_every_depth_table_is_a_coherent_family)",
    "moments.cone_from_total_element":
        "a total element is a cone over the De Finetti chain"
        " (test_moments::test_cone_legs_of_a_dirac_are_products)",
}


def _sources(directory):
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory) if name.endswith(".py")
    )


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """({qualified name: name} of the top-level functions and classes, the
    same of the methods and properties of every class), dunders left out."""
    definitions, methods = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
            definitions[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    methods[f"{module}.{node.name}.{item.name}"] = item.name
    return definitions, methods


def _references(tree):
    """(the names read, the attributes read) in the tree."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def _uncalled(package_trees, other_trees):
    definitions, methods = {}, {}
    names, attributes = set(), set()
    for module, tree in package_trees.items():
        defined, defined_methods = _definitions(module, tree)
        definitions.update(defined)
        methods.update(defined_methods)
    for tree in [*package_trees.values(), *other_trees]:
        read, read_attributes = _references(tree)
        names |= read
        attributes |= read_attributes
    uncalled = [q for q, name in definitions.items() if name not in names | attributes]
    uncalled += [q for q, name in methods.items() if name not in attributes]
    return sorted(uncalled)


def test_every_public_name_has_a_caller_in_the_program():
    package = {os.path.basename(p)[:-3]: _parse(p) for p in _sources(PACKAGE)}
    perfbench = [_parse(p) for p in _sources(PERFBENCH)]
    assert _uncalled(package, perfbench) == sorted(TEST_ONLY)


def test_the_guard_sees_what_it_forbids():
    mod = ast.parse(
        "def used(): pass\n"
        "def unused():\n"
        '    """Mentions used() and unused() in prose."""\n'
        "class Kept:\n"
        "    def read(self): pass\n"
        "    def unread(self): pass\n"
        "    def _private(self): pass\n"
        "    def _helper(self): pass\n"
        "    def __len__(self): pass\n"
        "def _private(): pass\n"
        "def _helper(): pass\n"
    )
    # a method counts as called only when read as an attribute, not as a name;
    # a private name is held to the same rule, a dunder is exempt
    caller = ast.parse("from m import used\nused()\nm.Kept().read()\nunread = 1\n_helper(m.Kept()._helper)\n")
    assert _uncalled({"m": mod}, [caller]) == ["m.Kept._private", "m.Kept.unread", "m._private", "m.unused"]
    assert os.path.isfile(os.path.join(PERFBENCH, "run.py"))

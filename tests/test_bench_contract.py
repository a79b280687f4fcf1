"""The names the benchmark harness in perfbench/ reads from the package.

The harness traces the functions in `EXPECTED_SPANS` (perfbench/run.py) and
wraps the methods in `METHODS` (perfbench/spans.py); a traced run whose
expected span never fires, or whose method is gone, reports `correct: false`.
Both tables are read from the source text, without importing or editing the
harness, so deleting a name it reads fails here first.
"""

import ast
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _literal(filename, name):
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in perfbench/{filename}")


def _missing(dotted):
    # "stoch.FinKernel.init" is FinKernel.__init__, as perfbench/spans.py names it
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"urnchains.{module}")
    for attr in attrs:
        attr = "__init__" if attr == "init" else attr
        if not hasattr(obj, attr):
            return True
        obj = getattr(obj, attr)
    return False


def test_every_expected_span_names_a_package_function():
    spans = {span for names in _literal("run.py", "EXPECTED_SPANS").values() for span in names}
    assert spans and sorted(s for s in spans if _missing(s)) == []


def test_every_wrapped_method_is_defined_on_its_class():
    # the harness wraps vars(cls)[method], so an inherited method counts as gone
    methods = _literal("spans.py", "METHODS")
    gone = [
        f"{module}.{cls}.{method}"
        for module, cls, method, _ in methods
        if _missing(f"{module}.{cls}")
        or method not in vars(getattr(importlib.import_module(f"urnchains.{module}"), cls))
    ]
    assert methods and gone == []


def test_names_the_harness_reads_directly_exist():
    assert not _missing("multiset.multiset_count")
    assert not _missing("stoch.EqualiseReport.equalises")

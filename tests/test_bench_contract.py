"""The names the benchmark harness in perfbench/ reads from the package.

The harness traces the functions in `EXPECTED_SPANS` (perfbench/run.py) and
wraps the methods in `METHODS` (perfbench/spans.py); a traced run whose
expected span never fires, or whose method is gone, reports `correct: false`.
Both tables are read from the source text, without importing or editing the
harness, so deleting a name it reads, or a change that stops a workload from
calling it, fails here first.  The last test runs each workload's commands
under the harness's own tracer, executed from the text of perfbench/spans.py,
so a change in the shape of an argument one of its hooks reads fails here too.
"""

import ast
import cProfile
import importlib
import json
import os
import types

import pytest

from urnchains import cli
from urnchains.cli import main

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


def _resolve(dotted):
    # "stoch.FinKernel.init" is FinKernel.__init__, as perfbench/spans.py names it
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"urnchains.{module}")
    for attr in attrs:
        obj = getattr(obj, "__init__" if attr == "init" else attr, None)
    return obj


def _missing(dotted):
    return _resolve(dotted) is None


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


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _commands(workload, tmp_path):
    """A small set of the CLI commands a workload runs, as (argv, exit code)."""
    mixing = _write(
        tmp_path / "mixing.json",
        {
            "alphabet": {"symbols": ["a", "b"]},
            "atoms": [{"point": ["1/3", "2/3"], "weight": "1/2"}, {"point": [1, 0], "weight": "1/2"}],
        },
    )
    bang = str(tmp_path / "bang.json")
    return {
        "verify": [
            (
                [
                    "verify-all", "--alphabet", _write(tmp_path / "ab.json", {"symbols": ["a", "b"]}),
                    "--depth", "2", "--eq-depth", "2", "--cone-samples", "1",
                    "--tensor-samples", "1", "--grid", "4", "--out", str(tmp_path / "report.json"),
                ],
                0,
            )
        ],
        "embed": [
            (["bang", "iota", "--mixing", mixing, "--depth", "3", "--out", bang], 0),
            (["bang", "totality", "--bang", bang], 0),
        ],
        "simulate": [
            (
                [
                    "definetti", "simulate", "--mixing", mixing, "--trials", "20",
                    "--prefix-len", "10", "--out", str(tmp_path / "hist.csv"),
                ],
                0,
            )
        ],
    }[workload]


@pytest.mark.parametrize("workload", sorted(_literal("run.py", "EXPECTED_SPANS")))
def test_every_expected_span_fires_in_its_workload(tmp_path, workload):
    profile = cProfile.Profile()
    for argv, code in _commands(workload, tmp_path):
        assert profile.runcall(main, argv) == code
    called = {entry.code for entry in profile.getstats()}
    spans = _literal("run.py", "EXPECTED_SPANS")[workload]
    assert sorted(s for s in spans if getattr(_resolve(s), "__code__", None) not in called) == []


def _bench_spans():
    """perfbench/spans.py as a fresh module, run from its text so that no
    bytecode is written beside it."""
    path = os.path.join(PERFBENCH, "spans.py")
    module = types.ModuleType("bench_spans")
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), vars(module))
    return module


@pytest.mark.parametrize("workload", sorted(_literal("run.py", "EXPECTED_SPANS")))
def test_every_workload_runs_under_the_bench_tracer(tmp_path, workload):
    spans = _bench_spans()
    installation = spans.install(spans.Tracer())
    try:
        for argv, code in _commands(workload, tmp_path):
            # through the module attribute, which install has wrapped
            assert cli.main(argv) == code
        assert installation.missing == []
        assert spans.missing_bindings() == []
    finally:
        installation.uninstall()

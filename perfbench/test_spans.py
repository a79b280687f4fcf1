"""Checks of the benchmark's span arithmetic and of the wrapper installation.

    python3 -m pytest -q perfbench/test_spans.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import spans  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_on_synthetic_spans():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6], and c's
    # counter scan is a bench.trace span [5.5, 5.75]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 5.5, 5.75, 6, 8, 10]))
    tracer.enter("cli.main")
    tracer.enter("optim.solve")
    tracer.exit()
    tracer.enter("moments.recover_measure")
    tracer.enter("_linalg.matmul")
    tracer.enter(spans.TRACE_SPAN)
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.exit() == 10
    assert tracer.self_s["optim.solve"] == 2
    assert tracer.self_s["_linalg.matmul"] == 0.75
    assert tracer.self_s[spans.TRACE_SPAN] == 0.25
    assert tracer.self_s["moments.recover_measure"] == 3
    assert tracer.total_s["moments.recover_measure"] == 4
    assert tracer.self_s["cli.main"] == 4
    # self times partition the root span
    assert sum(tracer.self_s.values()) == 10
    by_module = tracer.module_self_s()
    assert by_module["_linalg"] == 0.75 and by_module["cli"] == 4 and by_module["bench"] == 0.25


def test_repeated_calls_accumulate():
    tracer = spans.Tracer(clock=FakeClock([0, 2, 5, 6]))
    for _ in range(2):
        tracer.enter("spaces.tuple_space")
        tracer.exit()
    assert tracer.calls["spaces.tuple_space"] == 2
    assert tracer.self_s["spaces.tuple_space"] == 3


def test_install_rebinds_every_import_and_keeps_results():
    from urnchains import chains, stoch, verify
    from urnchains.multiset import Alphabet

    alphabet = Alphabet.of("t", "f")
    untraced = stoch.eq_kernel(alphabet, 3)
    original = stoch.eq_kernel
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        assert spans.missing_bindings() == []
        assert verify.eq_kernel is stoch.eq_kernel is not original
        assert verify.matmul is chains.matmul
        traced = verify.eq_kernel(alphabet, 3)
        report = verify.verify_equalises(traced, 3)
    finally:
        installation.uninstall()
    assert stoch.eq_kernel is original and verify.eq_kernel is original
    assert traced == untraced and report.equalises
    assert tracer.calls["stoch.eq_kernel"] == 1
    assert tracer.calls["stoch.verify_equalises"] == 1
    assert tracer.calls["stoch.permute_tuple_columns"] == 6
    assert tracer.calls["_linalg.max_abs_diff"] == 6
    metrics = spans.layer_metrics(tracer)
    assert metrics["stoch.eq_kernel.distinct_ratio"] == 1.0
    assert 0 < metrics["linalg.max_abs_diff.nonzero_ratio"] < 1
    assert set(metrics) <= set(spans.layer_units())


def test_pivots_are_counted_per_mode():
    from urnchains import optim

    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        exact = optim.solve(optim.LinearProgram((1, 1), ((1, 2), (3, 1)), (4, 6), mode="exact"))
        approx = optim.solve(
            optim.LinearProgram((1.0, 1.0), ((1.0, 2.0), (3.0, 1.0)), (4.0, 6.0), mode="float")
        )
    finally:
        installation.uninstall()
    assert exact.optimal and approx.optimal
    metrics = spans.layer_metrics(tracer)
    assert metrics["optim.pivots.exact"] == metrics["optim.pivots.float"] > 0
    assert metrics["optim.lp_cells_max"] == 2 * 2
    assert metrics["optim.pivot_s.exact"] > 0


def _traced_round():
    from urnchains import stoch, verify
    from urnchains.multiset import Alphabet

    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        kernel = verify.eq_kernel(Alphabet.of("t", "f"), 3)
        verify.verify_equalises(kernel, 3)
        stoch.eq_kernel(Alphabet.of("t", "f"), 3)
    finally:
        installation.uninstall()
    return tracer


def test_two_traced_rounds_give_the_per_round_figures_of_one():
    units = spans.layer_units()
    first, second = _traced_round(), _traced_round()
    one = spans.round_metrics([first])
    two = spans.round_metrics([first, second])
    assert one["stoch.permute_tuple_columns.calls"] == 6
    assert one["stoch.eq_kernel.distinct_ratio"] == 0.5
    for name, value in one.items():
        if units[name] != "s":
            assert two[name] == value, name


def test_units_match_benchmark_json():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert listed == spans.layer_units()
    assert listed["optim.pivot_s.exact"] == listed["optim.pivot_s.float"] == "s"

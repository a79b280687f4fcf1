"""Span tracing for the benchmark, installed from outside the program.

`install(tracer)` wraps the public functions of every urnchains module, a few
methods named in `METHODS`, and the private simplex pivot, so that each call
records a span.  Spans nest on a stack (the benchmark is single-threaded), and
a span's self time is its duration minus the time covered by its children.
Every binding of a wrapped function is replaced, including names imported
with `from .x import f` into other urnchains modules, so no call escapes the
wrapper.  `uninstall()` restores the original objects.

Counters that need a scan of arguments or results (nonzero ratios and the
like) run inside a child span named `bench.trace`, so the scan's cost is
kept out of the layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from math import factorial

MODULES = (
    "multiset",
    "spaces",
    "_linalg",
    "stoch",
    "pcoh",
    "chains",
    "moments",
    "optim",
    "verify",
    "jsonio",
    "cli",
)

# Per-element helpers: each call costs less than the wrapper itself, so their
# time is left in the caller's self time.
SKIP = {
    "_linalg": {"frac"},
    "multiset": {"multinomial", "multiset_of", "multiset_count", "difference", "canonical_enumeration"},
    "stoch": {"apply_perm", "all_perms", "mixing_moment"},
    "pcoh": {"pairing"},
}

# (module, class, method, span name)
METHODS = (
    ("stoch", "FinKernel", "__init__", "FinKernel.init"),
    ("pcoh", "PcsMatrix", "__init__", "PcsMatrix.init"),
    ("chains", "DDChain", "validate", "DDChain.validate"),
    ("optim", "_Tableau", "_pivot", "_Tableau._pivot"),
)

# The functions whose calls and self time are reported one by one.
LISTED = {
    "multiset": ("enumerations", "enumerate_multisets"),
    "spaces": ("tuple_space", "multiset_space"),
    "_linalg": ("matmul", "max_abs_diff", "solve_right", "kron"),
    "stoch": (
        "FinKernel.init",
        "eq_kernel",
        "coeq_kernel",
        "verify_equalises",
        "permute_tuple_columns",
        "symmetrization_average",
        "empirical_law",
    ),
    "pcoh": (
        "PcsMatrix.init",
        "eq_delta",
        "canonical_section",
        "multinomial_embedding",
        "biorthogonal_membership",
    ),
    "chains": (
        "build_dd_chain",
        "DDChain.validate",
        "lift_copointed_morphism",
        "factor_delete_cone",
        "expand_dd_cone",
        "verify_tensor_parametrized",
    ),
    "moments": ("embed_mixing_measure", "check_totality", "verify_embedding_squares", "recover_measure"),
    "optim": ("solve", "feasibility_minmax"),
    "verify": (
        "multiset_checks",
        "equaliser_checks",
        "chain_checks",
        "morphism_checks",
        "cone_checks",
        "moment_checks",
        "membership_checks",
    ),
    "jsonio": ("load_json", "dump_json", "bang_from_json", "histogram_csv", "moment_comparison_csv"),
}

TRACE_SPAN = "bench.trace"


def metric_module(module: str) -> str:
    """Metric names start with a letter, so `_linalg` is reported as `linalg`."""
    return module.lstrip("_")


class Tracer:
    """Aggregates nested spans: calls, inclusive and self time per name, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: defaultdict = defaultdict(float)
        self.distinct: defaultdict = defaultdict(set)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters[name], value)

    def module_self_s(self) -> dict:
        out = defaultdict(float)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out


# -- counter hooks: hook(tracer, args, result) runs inside a bench.trace span ---

def _nonzero_products(a, b):
    # products matmul examines (every b-row cell for each nonzero a-cell) and
    # the ones with both factors nonzero
    nnz_b = [sum(1 for w in row if w) for row in b]
    width = len(b[0]) if b else 0
    visited = useful = 0
    for arow in a:
        for t, v in enumerate(arow):
            if v:
                visited += width
                useful += nnz_b[t]
    return useful, visited


def _hook_matmul(tracer, args, result):
    useful, visited = _nonzero_products(args[0], args[1])
    tracer.count("_linalg.matmul.useful", useful)
    tracer.count("_linalg.matmul.visited", visited)


def _hook_max_abs_diff(tracer, args, result):
    a, b = args[0], args[1]
    visited = useful = 0
    for ra, rb in zip(a, b):
        visited += len(ra)
        useful += sum(1 for x, y in zip(ra, rb) if x or y)
    tracer.count("_linalg.max_abs_diff.useful", useful)
    tracer.count("_linalg.max_abs_diff.visited", visited)


def _hook_enumerations(tracer, args, result):
    mu = args[0]
    tracer.count("multiset.enumerations.useful", len(result))
    tracer.count("multiset.enumerations.visited", factorial(sum(mu.counts)))


def _hook_multiset_space(tracer, args, result):
    tracer.distinct["spaces.multiset_space"].add((args[0].symbols, args[1]))


def _hook_eq_kernel(tracer, args, result):
    tracer.distinct["stoch.eq_kernel"].add((args[0].symbols, args[1]))


def _hook_solve(tracer, args, result):
    lp = args[0]
    cells = (len(lp.a_ub) + len(lp.a_eq)) * len(lp.objective)
    tracer.maximum("optim.lp_cells_max", cells)


def _hook_recover(tracer, args, result):
    b, resolution = args[0], args[1]
    from urnchains.multiset import multiset_count

    columns = multiset_count(len(b.alphabet), resolution)
    tracer.count("moments.recover_measure.columns", columns)
    tracer.count("moments.recover_measure.kept", len(result.measure.atoms))


def _hook_empirical_law(tracer, args, result):
    tracer.count("stoch.empirical_law.trials", args[2])


HOOKS = {
    "_linalg.matmul": _hook_matmul,
    "_linalg.max_abs_diff": _hook_max_abs_diff,
    "multiset.enumerations": _hook_enumerations,
    "spaces.multiset_space": _hook_multiset_space,
    "stoch.eq_kernel": _hook_eq_kernel,
    "optim.solve": _hook_solve,
    "moments.recover_measure": _hook_recover,
    "stoch.empirical_law": _hook_empirical_law,
}


def _wrap(tracer: Tracer, span: str, fn):
    hook = HOOKS.get(span)
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(span)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                enter(TRACE_SPAN)
                try:
                    hook(tracer, args, result)
                finally:
                    exit_()
            return result
        finally:
            exit_()

    wrapper.__wrapped_by_bench__ = fn
    return wrapper


def _wrap_pivot(tracer: Tracer, fn):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        mode = "float" if isinstance(self.zero, float) else "exact"
        enter("optim._Tableau._pivot")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.count(f"optim.pivot_time.{mode}", exit_())
            tracer.count(f"optim.pivots.{mode}")

    wrapper.__wrapped_by_bench__ = fn
    return wrapper


class Installation:
    """The bindings replaced by `install`, so they can be put back."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # METHODS spans whose class or method is gone

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def _urnchains_modules():
    return [m for name, m in list(sys.modules.items()) if name == "urnchains" or name.startswith("urnchains.")]


def install(tracer: Tracer) -> Installation:
    """Wrap every public function of each module in MODULES, and METHODS."""
    inst = Installation()
    wrappers = {}  # id(original) -> wrapper
    for short in MODULES:
        module = importlib.import_module(f"urnchains.{short}")
        for attr, value in vars(module).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or value.__module__ != module.__name__
                or attr in SKIP.get(short, ())
            ):
                continue
            wrappers[id(value)] = (value, _wrap(tracer, f"{short}.{attr}", value))
    for module in _urnchains_modules():
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                inst.replaced.append((module, attr, value))
                setattr(module, attr, entry[1])
    for short, cls_name, method, span in METHODS:
        cls = getattr(importlib.import_module(f"urnchains.{short}"), cls_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if original is None:
            inst.missing.append(f"{short}.{span}")
            continue
        if span == "_Tableau._pivot":
            wrapper = _wrap_pivot(tracer, original)
        else:
            wrapper = _wrap(tracer, f"{short}.{span}", original)
        inst.replaced.append((cls, method, original))
        setattr(cls, method, wrapper)
    return inst


def missing_bindings() -> list[str]:
    """Names in urnchains modules still bound to an unwrapped original."""
    originals = {}
    for module in _urnchains_modules():
        for attr, value in vars(module).items():
            inner = getattr(value, "__wrapped_by_bench__", None)
            if inner is not None:
                originals[id(inner)] = inner
    missing = []
    for module in _urnchains_modules():
        for attr, value in vars(module).items():
            if id(value) in originals and originals[id(value)] is value:
                missing.append(f"{module.__name__}.{attr}")
    return missing


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, missing=()) -> dict:
    """The per-layer metrics, keyed by metric name (units in `layer_units`).

    Metrics that depend on a hook listed in `missing` read None, never 0.
    """
    out = {}
    for module, names in LISTED.items():
        for name in names:
            span = f"{module}.{name}"
            key = f"{metric_module(module)}.{name}"
            out[f"{key}.calls"] = None if span in missing else tracer.calls.get(span, 0)
            out[f"{key}.self_s"] = None if span in missing else tracer.self_s.get(span, 0.0)
    by_module = tracer.module_self_s()
    for module in MODULES:
        out[f"{metric_module(module)}.self_s"] = by_module.get(module, 0.0)
    out["bench.trace.self_s"] = tracer.self_s.get(TRACE_SPAN, 0.0)
    c = tracer.counters
    for mode in ("exact", "float"):
        pivots = c.get(f"optim.pivots.{mode}", 0)
        hooked = "optim._Tableau._pivot" not in missing
        out[f"optim.pivots.{mode}"] = int(pivots) if hooked else None
        out[f"optim.pivot_s.{mode}"] = _ratio(c.get(f"optim.pivot_time.{mode}", 0.0), pivots) if hooked else None
    out["optim.lp_cells_max"] = int(c.get("optim.lp_cells_max", 0))
    columns = c.get("moments.recover_measure.columns", 0)
    out["moments.recover_measure.columns"] = int(columns)
    out["moments.recover_measure.kept_ratio"] = _ratio(c.get("moments.recover_measure.kept", 0), columns)
    out["multiset.enumerations.useful_ratio"] = _ratio(
        c.get("multiset.enumerations.useful", 0), c.get("multiset.enumerations.visited", 0)
    )
    for fn in ("max_abs_diff", "matmul"):
        out[f"linalg.{fn}.nonzero_ratio"] = _ratio(
            c.get(f"_linalg.{fn}.useful", 0), c.get(f"_linalg.{fn}.visited", 0)
        )
    trials = c.get("stoch.empirical_law.trials", 0)
    out["stoch.empirical_law.trials"] = int(trials)
    out["stoch.empirical_law.trial_s"] = _ratio(tracer.total_s.get("stoch.empirical_law", 0.0), trials)
    for span in ("spaces.multiset_space", "stoch.eq_kernel"):
        out[f"{span}.distinct_ratio"] = _ratio(len(tracer.distinct[span]), tracer.calls.get(span, 0))
    return out


def round_metrics(tracers, missing=()) -> dict:
    """Per-layer metrics of one round: the median over `tracers`, one Tracer
    per traced round, of each metric (None if any round reads None).  So the
    figures do not depend on how many rounds fit into a run."""
    per_round = [layer_metrics(tracer, missing) for tracer in tracers]
    out = {}
    for name in per_round[0]:
        values = [metrics[name] for metrics in per_round]
        out[name] = None if None in values else statistics.median(values)
    return out


def layer_units() -> dict:
    units = {}
    for name in layer_metrics(Tracer()):
        if any(part.endswith("_s") for part in name.split(".")):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units

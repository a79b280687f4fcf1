"""Workload definitions: seeded input generation, CLI tasks and output checks.

A task is what a user runs to get one result.  It is a list of steps, each a
`urnchains` command line with the exit code it must end with.  A round is the
workload's fixed list of tasks; the runner repeats rounds on the same inputs.
Checks read the files and streams a task left behind and raise `CheckFailed`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# Checks whose deviation is a float compared against a tolerance, or is
# nonzero by design (damping breaks totality by exactly 1 - p).
NON_EXACT_CHECKS = {"grid-recovery", "lp-mode-agreement", "damped-defect"}


class CheckFailed(Exception):
    pass


@dataclass
class Step:
    argv: list
    exit_code: int = 0


@dataclass
class Task:
    name: str
    steps: list
    check: object = None  # callable(task, outputs) raising CheckFailed
    info: dict = field(default_factory=dict)


# -- input generation -----------------------------------------------------------

SYMBOLS = ("a", "b", "c", "d")


def simplex_point(rng: random.Random, k: int, den: int) -> list:
    cuts = sorted(rng.randint(0, den) for _ in range(k - 1))
    parts, prev = [], 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(den - prev)
    return [Fraction(p, den) for p in parts]


def random_mixing(rng: random.Random, k: int, natoms: int, point_of) -> dict:
    raw = [rng.randint(1, 6) for _ in range(natoms)]
    return {
        "alphabet": {"symbols": list(SYMBOLS[:k])},
        "atoms": [
            {"point": [str(v) for v in point_of()], "weight": str(Fraction(r, sum(raw)))}
            for r in raw
        ],
    }


def write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    return path


# -- verify ------------------------------------------------------------------------

def _check_verify_pass(task: Task, outputs: dict) -> None:
    with open(task.info["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    if not report["passed"]:
        raise CheckFailed("report does not pass")
    for check in report["checks"]:
        if check["check"] not in NON_EXACT_CHECKS and check["deviation"] != "0":
            raise CheckFailed(f"exact check {check['check']} at deviation {check['deviation']}")


def _check_verify_fault(task: Task, outputs: dict) -> None:
    if "defining-square" not in outputs["stderr"][-1]:
        raise CheckFailed("fault run does not name the defining square")


def verify_tasks(rng: random.Random, seed: int, work: str) -> list:
    abc = write_json(os.path.join(work, "abc.json"), {"symbols": ["a", "b", "c"]})
    specs = [
        ("verify-2sym", ["--depth", "5", "--eq-depth", "6"], 0, _check_verify_pass),
        ("verify-3sym", ["--alphabet", abc, "--depth", "3", "--eq-depth", "4", "--grid", "8"], 0, _check_verify_pass),
        ("verify-fault", ["--inject-fault"], 1, _check_verify_fault),
    ]
    tasks = []
    for name, flags, code, check in specs:
        report = os.path.join(work, f"{name}.json")
        argv = ["verify-all", *flags, "--seed", str(seed), "--out", report]
        tasks.append(Task(name, [Step(argv, code)], check, {"report": report}))
    return tasks


# -- embed -------------------------------------------------------------------------

# (symbols, depth, tasks per round); see README.md for why these sizes.
EMBED_SIZES = ((2, 16, 60), (3, 8, 60), (4, 5, 60))


def _check_embed(task: Task, outputs: dict) -> None:
    """Every coefficient equals sum_j w_j prod_a r_j(a)^mu(a), computed here directly."""
    if not outputs["stdout"][-1].startswith("total"):
        raise CheckFailed("totality did not report a total element")
    with open(task.info["mixing"], encoding="utf-8") as fh:
        mixing = json.load(fh)
    with open(task.info["bang"], encoding="utf-8") as fh:
        bang = json.load(fh)
    atoms = [([Fraction(v) for v in a["point"]], Fraction(a["weight"])) for a in mixing["atoms"]]
    table = {tuple(e["multiset"]): Fraction(e["value"]) for e in bang["coeffs"]}
    k, depth = len(mixing["alphabet"]["symbols"]), task.info["depth"]
    if bang["depth"] != depth or table.get((0,) * k) != 1:
        raise CheckFailed("wrong depth or empty-multiset coefficient")
    for counts in itertools.product(range(depth + 1), repeat=k):
        if sum(counts) <= depth:
            expected = sum(w * math.prod(r**c for r, c in zip(point, counts)) for point, w in atoms)
            if table.get(counts, 0) != expected:
                raise CheckFailed(f"coefficient at {counts} is {table.get(counts, 0)}, expected {expected}")


def embed_tasks(rng: random.Random, seed: int, work: str) -> list:
    tasks = []
    for k, depth, count in EMBED_SIZES:
        # atom counts 1, 2, 3 and denominators 3..20 in equal shares: they set
        # most of a task's cost, so the seed only draws the numerators
        denominators = itertools.cycle(range(3, 21))
        for i in range(count):
            mixing = random_mixing(rng, k, 1 + i % 3, lambda: simplex_point(rng, k, next(denominators)))
            name = f"embed-{k}sym-{i}"
            mixing_path = write_json(os.path.join(work, f"{name}-mixing.json"), mixing)
            bang = os.path.join(work, f"{name}-bang.json")
            steps = [
                Step(["bang", "iota", "--mixing", mixing_path, "--depth", str(depth), "--out", bang]),
                Step(["bang", "totality", "--bang", bang]),
            ]
            info = {"mixing": mixing_path, "bang": bang, "depth": depth}
            tasks.append(Task(name, steps, _check_embed, info))
    return tasks


# -- simulate ----------------------------------------------------------------------

SIMULATE_TRIALS = 10_000
# (symbols, prefix length), two mixing measures each
SIMULATE_SHAPES = tuple((k, n) for n in (1_000, 100_000) for k in (2, 3, 4) for _ in range(2))


def histogram_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def recorded_digests(seed: int) -> dict:
    """Histogram digests recorded for this seed by record_digests.py, if any."""
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    if data["numpy"] != numpy.__version__ or data["trials"] != SIMULATE_TRIALS:
        return {}
    return data["seeds"].get(str(seed), {})


def _check_simulate(task: Task, outputs: dict) -> None:
    path = task.info["hist"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
    if total != SIMULATE_TRIALS:
        raise CheckFailed(f"histogram counts sum to {total}, not {SIMULATE_TRIALS}")
    expected = task.info.get("digest")
    if expected is not None and histogram_digest(path) != expected:
        raise CheckFailed(f"histogram digest differs from the one recorded for this seed ({expected[:12]})")


def simulate_tasks(rng: random.Random, seed: int, work: str) -> list:
    recorded = recorded_digests(seed)
    tasks = []
    for i, (k, n) in enumerate(SIMULATE_SHAPES):
        natoms = rng.randint(2, 5)
        mixing = random_mixing(rng, k, natoms, lambda: simplex_point(rng, k, rng.randint(4, 20)))
        name = f"simulate-{k}sym-{n}-{i}"
        mixing_path = write_json(os.path.join(work, f"{name}-mixing.json"), mixing)
        hist = os.path.join(work, f"{name}.csv")
        argv = [
            "definetti", "simulate", "--mixing", mixing_path,
            "--prefix-len", str(n), "--trials", str(SIMULATE_TRIALS),
            "--seed", str(rng.randrange(2**32)), "--out", hist,
        ]
        info = {"hist": hist}
        if name in recorded:
            info["digest"] = recorded[name]
        tasks.append(Task(name, [Step(argv)], _check_simulate, info))
    return tasks


WORKLOADS = {
    "verify": verify_tasks,
    "embed": embed_tasks,
    "simulate": simulate_tasks,
}


def make_tasks(workload: str, seed: int, work: str) -> list:
    """The workload's round of tasks for this seed; inputs are written to `work`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), seed, work)

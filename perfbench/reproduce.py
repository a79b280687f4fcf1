"""Known failures of float-mode recovery, kept out of the timed workloads.

    python3 perfbench/reproduce.py                 # the fixed reproducer only
    python3 perfbench/reproduce.py --family 20     # plus 20 seeded instances
                                                   # per family

The fixed reproducer is the mixture (1/4,1/4,1/2) with weight 1/3 plus
(1/2,3/8,1/8) with weight 2/3, embedded at depth 4 and recovered on grid 16 in
float mode; phase 1 of the simplex does not end optimal and `recover` raises
a bare AssertionError.  The families run `bang iota`, `bang totality` and
`definetti recover` (float mode) on seeded mixtures whose atoms lie on the
grid or off it, and count the outcomes; no instance is ever dropped.  Each line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import signal
import sys
import tempfile
import time
import traceback
from collections import Counter

import run  # pins thread variables before numpy loads, puts src/ on sys.path
import urnchains.cli as cli
from workloads import SYMBOLS, Step, Task, random_mixing, simplex_point, write_json

FIXED = {
    "alphabet": {"symbols": ["a", "b", "c"]},
    "atoms": [
        {"point": ["1/4", "1/4", "1/2"], "weight": "1/3"},
        {"point": ["1/2", "3/8", "1/8"], "weight": "2/3"},
    ],
}
# (grid placement, symbols, depth, grid)
FAMILIES = (
    ("on-grid", 2, 8, 128),
    ("on-grid", 3, 4, 16),
    ("off-grid", 2, 6, 64),
    ("off-grid", 3, 3, 8),
)
INSTANCE_TIMEOUT_S = 20.0


def pipeline(work: str, name: str, mixing: dict, depth: int, grid: int) -> Task:
    mixing_path = write_json(os.path.join(work, f"{name}-mixing.json"), mixing)
    bang = os.path.join(work, f"{name}-bang.json")
    steps = [
        Step(["bang", "iota", "--mixing", mixing_path, "--depth", str(depth), "--out", bang]),
        Step(["bang", "totality", "--bang", bang]),
        Step(["definetti", "recover", "--bang", bang, "--grid", str(grid), "--out", os.path.join(work, f"{name}-m.json")]),
    ]
    return Task(name, steps)


def fixed_reproducer(work: str) -> dict:
    task = pipeline(work, "fixed", FIXED, 4, 16)
    for step in task.steps:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(step.argv)
        except AssertionError:
            frame = traceback.extract_tb(sys.exc_info()[2])[-1]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
            return {"reproducer": "fixed", "outcome": "AssertionError", "where": where, "argv": step.argv[:2]}
        if code != step.exit_code:
            return {"reproducer": "fixed", "outcome": f"exit_code:{code}", "argv": step.argv[:2]}
    return {"reproducer": "fixed", "outcome": "ok (the known failure no longer reproduces)"}


def family(work: str, count: int, seed: int) -> list:
    rows = []
    for placement, k, depth, grid in FAMILIES:
        rng = random.Random(f"reproduce:{seed}:{placement}:{k}")
        dens = [grid] if placement == "on-grid" else [d for d in (3, 5, 7, 9, 11, 13) if grid % d]
        outcomes = Counter()
        for i in range(count):
            mixing = random_mixing(rng, k, rng.randint(1, 3), lambda: simplex_point(rng, k, rng.choice(dens)))
            task = pipeline(work, f"family-{k}-{i}", mixing, depth, grid)
            result = run.run_task(cli, task, deadline=time.perf_counter() + INSTANCE_TIMEOUT_S)
            outcomes[result["failure"] or "ok"] += 1
        failed = count - outcomes["ok"]
        rows.append({
            "family": f"{placement}, {k} symbols ({','.join(SYMBOLS[:k])}), depth {depth}, grid {grid}",
            "instances": count,
            "fail_ratio": failed / count,
            "outcomes": dict(outcomes),
        })
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--family", type=int, default=0, help="instances per family (default 0)")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, run._on_alarm)
    signal.signal(signal.SIGTERM, run._on_term)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reproduce-", dir=run.WORK_ROOT)
    try:
        print(json.dumps(fixed_reproducer(work)), flush=True)
        if args.family > 0:
            for row in family(work, args.family, args.seed):
                print(json.dumps(row), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK_ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())

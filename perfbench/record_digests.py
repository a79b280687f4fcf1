"""Record the simulate workload's histogram digests for a range of seeds.

    python3 perfbench/record_digests.py 0 32     # seeds 0..31

Writes perfbench/digests.json.  The simulate check compares each histogram
with the digest recorded for its seed (when numpy's version matches the one
recorded), because `definetti simulate` promises bit-identical output per
seed.  Re-record after changing the simulate workload's inputs.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import sys
import tempfile

import run  # pins thread variables before numpy loads, puts src/ on sys.path
import numpy

import urnchains.cli as cli
import workloads


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    first, stop = int(argv[0]), int(argv[1])
    signal.signal(signal.SIGALRM, run._on_alarm)
    signal.signal(signal.SIGTERM, run._on_term)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=run.WORK_ROOT)
    seeds = {}
    try:
        for seed in range(first, stop):
            digests = {}
            for task in workloads.make_tasks("simulate", seed, work):
                result = run.run_task(cli, task, deadline=float("inf"))
                if result["failure"]:
                    raise SystemExit(f"seed {seed} task {task.name}: {result['failure']}")
                digests[task.name] = workloads.histogram_digest(task.info["hist"])
            seeds[str(seed)] = digests
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK_ROOT)
    data = {"numpy": numpy.__version__, "trials": workloads.SIMULATE_TRIALS, "seeds": seeds}
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

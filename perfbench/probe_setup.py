"""One set-up sample: import the CLI, write a workload's inputs, print "ready".

    python3 perfbench/probe_setup.py <workload> <seed> <work-root>

run.py starts this several times in fresh processes and times each from
process start until the "ready" line.
"""

import os
import shutil
import sys
import tempfile

import urnchains.cli  # noqa: F401  (the import is part of what is timed)
import workloads


def main() -> int:
    workload, seed, work_root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="setup-", dir=work_root)
    try:
        workloads.make_tasks(workload, seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

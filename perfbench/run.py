"""Benchmark for the urnchains command line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs one workload's tasks through `urnchains.cli.main(argv)` in this process,
one task at a time (a closed loop with one client), repeating rounds of the
same seeded inputs until `--seconds` is used up.  Every task's outputs are
checked.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics from a traced run with `--trace 1`.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in the set-up
# probes; the benchmark is single-threaded by design.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
sys.path[:0] = [SRC]  # the program is imported from its sources

import spans  # noqa: E402
import workloads  # noqa: E402

# set-up samples before the first round and after every round, so that they
# spread over the run like the rounds do
SETUP_SAMPLES_FIRST = 5
SETUP_SAMPLES_AFTER_ROUND = 2
TASK_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # the whole run, set-up included, stays below this

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "peak_rss_mb": "MiB"}

# Listed spans each workload must fire at least once when traced (see README.md).
EXPECTED_SPANS = {
    "verify": (
        "multiset.enumerations", "multiset.enumerate_multisets", "spaces.tuple_space",
        "spaces.multiset_space", "_linalg.matmul", "_linalg.max_abs_diff",
        "_linalg.solve_right", "_linalg.kron", "stoch.FinKernel.init", "stoch.eq_kernel",
        "stoch.coeq_kernel", "stoch.verify_equalises", "stoch.permute_tuple_columns",
        "stoch.symmetrization_average", "pcoh.PcsMatrix.init", "pcoh.eq_delta",
        "pcoh.canonical_section", "pcoh.multinomial_embedding",
        "pcoh.biorthogonal_membership", "chains.build_dd_chain", "chains.DDChain.validate",
        "chains.lift_copointed_morphism", "chains.factor_delete_cone",
        "chains.expand_dd_cone", "chains.verify_tensor_parametrized",
        "moments.embed_mixing_measure", "moments.check_totality",
        "moments.verify_embedding_squares", "moments.recover_measure", "optim.solve",
        "optim.feasibility_minmax", "verify.multiset_checks", "verify.equaliser_checks",
        "verify.chain_checks", "verify.morphism_checks", "verify.cone_checks",
        "verify.moment_checks", "verify.membership_checks", "jsonio.load_json",
        "jsonio.dump_json", "cli.main", "optim._Tableau._pivot",
    ),
    "embed": (
        "moments.embed_mixing_measure", "moments.check_totality",
        "multiset.enumerate_multisets", "jsonio.load_json", "jsonio.dump_json",
        "jsonio.bang_from_json", "cli.main",
    ),
    "simulate": (
        "stoch.empirical_law", "jsonio.load_json", "jsonio.histogram_csv",
        "jsonio.moment_comparison_csv", "cli.main",
    ),
}


class TaskTimeout(BaseException):
    """Raised by the alarm; a BaseException so `except Exception` in the program cannot hide it."""


def _on_alarm(signum, frame):
    raise TaskTimeout()


def _on_term(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")  # runs the clean-up in `finally`


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(EXPECTED_SPANS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up ------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(workload: str, seed: int, count: int) -> list:
    """Seconds from process start until the tasks are ready, in `count` fresh processes."""
    probe = os.path.join(HERE, "probe_setup.py")
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, str(seed), WORK_ROOT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        samples.append(elapsed)
    return samples


# -- running tasks -------------------------------------------------------------------

def _file_bytes(paths) -> bytes:
    out = b""
    for path in paths:
        with open(path, "rb") as fh:
            out += fh.read()
    return out


def run_task(cli, task, deadline: float) -> dict:
    """Run one task's steps; returns latency, fingerprint and failure (if any)."""
    outputs = {"stdout": [], "stderr": [], "codes": []}
    failure = None
    latency = 0.0
    for step in task.steps:
        out, err = io.StringIO(), io.StringIO()
        remaining = min(TASK_TIMEOUT_S, deadline - time.perf_counter())
        if remaining <= 0:
            return {"latency": None, "failure": "timeout", "fingerprint": None}
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(step.argv)
        except TaskTimeout:
            failure = "timeout"
        except Exception as exc:  # any program error is a failed task, never a crash
            failure = f"exception:{type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency += time.perf_counter() - start
        if failure:
            break
        outputs["stdout"].append(out.getvalue())
        outputs["stderr"].append(err.getvalue())
        outputs["codes"].append(code)
        if code != step.exit_code:
            failure = f"exit_code:{code}"
            break
    if failure:
        return {"latency": latency, "failure": failure, "fingerprint": None, "outputs": outputs}
    files = sorted(v for k, v in task.info.items() if k in ("report", "bang", "hist"))
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode() + _file_bytes(files)).hexdigest()
    return {"latency": latency, "failure": None, "fingerprint": digest, "outputs": outputs}


class Runner:
    """Runs rounds of a workload's tasks and keeps every sample and failure."""

    def __init__(self, cli, tasks, deadline: float):
        self.cli = cli
        self.tasks = tasks
        self.deadline = deadline
        self.latencies = []
        self.failures = []
        self.attempted = 0
        self.verdicts = {}  # task name -> (first round's fingerprint, check verdict)

    def round(self) -> float:
        """One round of every task; returns its wall time (output checks excluded)."""
        results = []
        start = time.perf_counter()
        for task in self.tasks:
            results.append((task, run_task(self.cli, task, self.deadline)))
        wall = time.perf_counter() - start
        for task, result in results:
            self.attempted += 1
            failure = result["failure"]
            if failure is None:
                failure = self._check(task, result)
            if failure is None:
                self.latencies.append(result["latency"])
            else:
                self.failures.append({"task": task.name, "type": failure})
        return wall

    def _check(self, task, result):
        # later rounds must reproduce the first round's outputs byte for byte,
        # so the task's own check runs once and its verdict is reused
        if task.name in self.verdicts:
            fingerprint, verdict = self.verdicts[task.name]
            return verdict if fingerprint == result["fingerprint"] else "check:outputs differ between rounds"
        verdict = None
        try:
            task.check(task, result["outputs"])
        except workloads.CheckFailed as exc:
            verdict = f"check:{exc}"
        except (OSError, ValueError, KeyError) as exc:
            verdict = f"check:{type(exc).__name__}: {exc}"
        self.verdicts[task.name] = (result["fingerprint"], verdict)
        return verdict

    def timed_out(self) -> bool:
        return any(f["type"] == "timeout" for f in self.failures)


def run_rounds(runner: Runner, seconds: float, after_round, modes=(contextlib.nullcontext,)) -> list:
    """Rounds cycling through `modes` (context managers), each followed by a
    call of `after_round()`, until the next round would overrun `seconds`; at
    least one round in each mode.  Returns the round wall times per mode."""
    walls = [[] for _ in modes]
    steps = []  # a round with its checks and `after_round()`
    start = time.perf_counter()
    for i in itertools.count():
        step_start = time.perf_counter()
        with modes[i % len(modes)]():
            walls[i % len(modes)].append(runner.round())
        after_round()
        steps.append(time.perf_counter() - step_start)
        elapsed = time.perf_counter() - start
        done = i + 1 >= len(modes)
        if runner.timed_out() or (done and elapsed + statistics.median(steps) > seconds):
            return walls


# -- provenance ----------------------------------------------------------------------

def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": workloads.numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "client": "closed loop, 1 client, 1 process, 1 thread",
    }


# -- main ------------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "urnchains", "cli.py")):
        print(f"urnchains sources not found under {SRC}", file=sys.stderr)
        return 2
    setup_samples = measure_setup(args.workload, args.seed, SETUP_SAMPLES_FIRST)

    def sample_setup():
        setup_samples.extend(measure_setup(args.workload, args.seed, SETUP_SAMPLES_AFTER_ROUND))

    import urnchains.cli as cli

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        tasks = workloads.make_tasks(args.workload, args.seed, work)
        deadline = t_start + HARD_LIMIT_S
        runner = Runner(cli, tasks, deadline)
        harness_errors = []
        if args.trace:
            tracers = []  # one per traced round, so the figures are per round
            missing_hooks = set()

            @contextlib.contextmanager
            def traced():
                tracers.append(spans.Tracer())
                installation = spans.install(tracers[-1])
                missing_hooks.update(installation.missing)
                try:
                    unwrapped = spans.missing_bindings()
                    if unwrapped:
                        harness_errors.append(f"unwrapped bindings: {unwrapped}")
                    yield
                finally:
                    installation.uninstall()

            untraced_walls, traced_walls = run_rounds(runner, args.seconds, sample_setup, (contextlib.nullcontext, traced))
            walls = untraced_walls + traced_walls
            layer = spans.round_metrics(tracers, missing_hooks)
            overhead_ratio = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
            silent = [s for s in EXPECTED_SPANS[args.workload] if not any(t.calls.get(s) for t in tracers)]
            if silent:
                harness_errors.append(f"spans that never fired: {silent}")
            if missing_hooks:
                harness_errors.append(f"hooks missing from the program: {sorted(missing_hooks)}")
            units = spans.layer_units()
            metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
        else:
            (walls,) = run_rounds(runner, args.seconds, sample_setup)
            overhead_ratio = None
            values = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": statistics.median(walls),
                "task_p50_s": statistics.median(runner.latencies) if runner.latencies else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    failed = len(runner.failures)
    summary = {
        "provenance": provenance(args),
        "rounds": len(walls),
        "round_wall_s": walls,
        "task_samples": len(runner.latencies),
        "fail_ratio": failed / runner.attempted,
        "failures": runner.failures,
        "harness_errors": harness_errors,
        "setup_samples_s": setup_samples,
        "trace_overhead_ratio": overhead_ratio,
    }
    print(json.dumps(summary, sort_keys=True))
    shown = "" if args.trace else " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items())
    print(
        f"workload={args.workload} seed={args.seed} {shown} fail_ratio={summary['fail_ratio']:.6g}"
        f" (failed {failed} of {runner.attempted} tasks, {len(runner.latencies)} latency samples,"
        f" {len(walls)} rounds)"
    )
    result = {
        "correct": failed == 0 and not harness_errors,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

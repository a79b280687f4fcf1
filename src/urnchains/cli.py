"""Command-line front end.

Subcommands:
  verify-all            run the whole property suite, emit a JSON report
  definetti simulate    Monte Carlo law of prefix frequencies, CSV output
  definetti recover     inverse moment problem for a bang-element file
  bang iota             embed a mixing measure into the truncated exponential
  bang totality         check the totality recurrence of a bang element

Exit codes: 0 success, 1 verification or totality failure, 2 input error.
All commands are deterministic given their flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import jsonio, spaces
from ._linalg import FLOAT_TOL
from .jsonio import FormatError
from .moments import (
    RECOVERY_TOL,
    MomentProblemError,
    check_totality,
    embed_mixing_measure,
    recover_measure,
    refuse_oversized_recovery,
)
from .multiset import Alphabet
from .optim import LpError
from .pcoh import refuse_oversized_bang
from .stoch import empirical_law, mixing_moment
from .verify import Config, run_all_checks


def _load_alphabet(path: str | None) -> Alphabet:
    if path is None:
        return Config.alphabet
    return jsonio.alphabet_from_json(jsonio.load_json(path))


def cmd_verify_all(args) -> int:
    config = Config(
        alphabet=_load_alphabet(args.alphabet),
        depth=args.depth,
        eq_depth=args.eq_depth,
        cone_samples=args.cone_samples,
        tensor_samples=args.tensor_samples,
        grid=args.grid,
        recovery_tol=args.tol,
        seed=args.seed,
        inject_fault=args.inject_fault,
    )
    report = run_all_checks(config)
    payload = report.to_json()
    payload["config"] = {
        "alphabet": list(config.alphabet.symbols),
        "depth": config.depth,
        "eq_depth": config.eq_depth,
        "seed": config.seed,
        "grid": config.grid,
    }
    jsonio.dump_json(payload, args.out)
    for check in report.failures():
        print(f"FAIL {check.name} {check.params}: deviation {check.deviation}", file=sys.stderr)
    print(
        f"{'PASS' if report.passed else 'FAIL'}: {len(report.checks)} checks,"
        f" {len(report.failures())} failures"
    )
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    mixing = jsonio.measure_from_json(jsonio.load_json(args.mixing))
    law = empirical_law(mixing, args.prefix_len, args.trials, args.seed)
    hist_csv = jsonio.histogram_csv(law)
    rows = []
    for symbol in mixing.alphabet.symbols:
        for order in (1, 2, 3):
            exact = float(mixing_moment(mixing, symbol, order))
            emp = law.moment(symbol, order)
            rows.append((symbol, order, exact, emp, abs(exact - emp)))
    moments_csv = jsonio.moment_comparison_csv(rows)
    moments_path = args.moments_out or (args.out and _derive(args.out, "-moments.csv"))
    jsonio.write_texts(((hist_csv, args.out), (moments_csv, moments_path)))
    for path, what in ((args.out, "histogram"), (moments_path, "moment comparison")):
        if path:
            print(f"{what} -> {path}")
    worst = max(r[4] for r in rows)
    print(f"worst moment error: {worst!r}")
    return 0


def _derive(path: str, suffix: str) -> str:
    stem = path[:-4] if path.endswith(".csv") else path
    return stem + suffix


def cmd_recover(args) -> int:
    b = jsonio.bang_from_json(jsonio.load_json(args.bang))
    refuse_oversized_recovery(len(b.alphabet), b.depth, args.grid, "rebuild the element with a lower bang iota --depth")
    try:
        recovery = recover_measure(b, args.grid, tol=args.tol, mode=args.mode, totality_tol=args.totality_tol)
    except (MomentProblemError, LpError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    payload = jsonio.measure_to_json(
        recovery.measure,
        mode=args.mode,
        extra={
            "residual": jsonio._value_out(recovery.residual, args.mode),
            "grid_resolution": recovery.grid_resolution,
        },
    )
    if recovery.diagnostic:
        payload["diagnostic"] = recovery.diagnostic
        print(recovery.diagnostic, file=sys.stderr)
    jsonio.dump_json(payload, args.out)
    if args.out:
        print(f"measure -> {args.out}")
    print(
        f"atoms: {len(recovery.measure.atoms)}, residual: {recovery.residual},"
        f" grid: {recovery.grid_resolution}"
    )
    return 0


def cmd_iota(args) -> int:
    mixing = jsonio.measure_from_json(jsonio.load_json(args.mixing))
    refuse_oversized_bang(len(mixing.alphabet), args.depth, "lower --depth")
    b = embed_mixing_measure(mixing, args.depth)
    jsonio.dump_json(b, args.out, mode=args.mode)
    if args.out:
        print(f"bang element -> {args.out}")
    if not mixing.is_probability:
        print("note: substochastic mixing; the image will not be total")
    return 0


def cmd_totality(args) -> int:
    b = jsonio.bang_from_json(jsonio.load_json(args.bang))
    report = check_totality(b, tol=args.tol)
    if report.total:
        print(f"total (worst defect {report.defect})")
        return 0
    empty = (0,) * len(b.alphabet)
    if b.at(empty) < 1:
        print(f"substochastic (mass {b.at(empty)} at the empty multiset) - not total")
    print(str(report))
    return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnchains",
        description="Draw-and-delete chains, coherence-space equalisers, and the inverse moment problem at finite truncation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    va = sub.add_parser("verify-all", help="run the full property suite")
    va.add_argument("--alphabet", help="alphabet JSON file (default: t,f)")
    va.add_argument("--depth", type=int, default=Config.depth)
    va.add_argument("--eq-depth", type=int, default=Config.eq_depth, dest="eq_depth")
    va.add_argument("--cone-samples", type=int, default=Config.cone_samples, dest="cone_samples")
    va.add_argument("--tensor-samples", type=int, default=Config.tensor_samples, dest="tensor_samples")
    va.add_argument("--grid", type=int, default=Config.grid)
    va.add_argument("--tol", type=float, default=Config.recovery_tol)
    va.add_argument("--seed", type=int, default=Config.seed)
    va.add_argument("--out", help="report JSON path (default: stdout)")
    va.add_argument(
        "--inject-fault",
        action="store_true",
        help="test hook: flip one chain-step entry and expect a failure",
    )
    va.set_defaults(func=cmd_verify_all)

    df = sub.add_parser("definetti", help="exchangeable-sequence commands")
    dfsub = df.add_subparsers(dest="subcommand", required=True)

    sim = dfsub.add_parser("simulate", help="Monte Carlo law of prefix frequencies")
    sim.add_argument("--mixing", required=True, help="mixing-measure JSON file")
    sim.add_argument("--prefix-len", type=int, default=1000, dest="prefix_len")
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", help="histogram CSV path (default: stdout)")
    sim.add_argument("--moments-out", dest="moments_out", help="moment table CSV path")
    sim.set_defaults(func=cmd_simulate)

    rec = dfsub.add_parser("recover", help="recover a mixing measure from a bang element")
    rec.add_argument("--bang", required=True, help="bang-element JSON file")
    rec.add_argument("--grid", type=int, default=64)
    rec.add_argument("--tol", type=float, default=RECOVERY_TOL)
    rec.add_argument("--totality-tol", type=float, default=FLOAT_TOL, dest="totality_tol")
    rec.add_argument("--mode", choices=("exact", "float"), default="float")
    rec.add_argument("--out", help="measure JSON path (default: stdout)")
    rec.set_defaults(func=cmd_recover)

    bang = sub.add_parser("bang", help="truncated-exponential commands")
    bangsub = bang.add_subparsers(dest="subcommand", required=True)

    iota = bangsub.add_parser(
        "iota", aliases=["embed"], help="embed a mixing measure as a mixture of promotions"
    )
    iota.add_argument("--mixing", required=True, help="mixing-measure JSON file")
    iota.add_argument("--depth", type=int, default=6)
    iota.add_argument("--mode", choices=("exact", "float"), default="exact")
    iota.add_argument("--out", help="bang-element JSON path (default: stdout)")
    iota.set_defaults(func=cmd_iota)

    tot = bangsub.add_parser("totality", help="check the totality recurrence")
    tot.add_argument("--bang", required=True, help="bang-element JSON file")
    tot.add_argument(
        "--tol",
        type=float,
        help=f"defect tolerance (default: 0 on exact tables, {FLOAT_TOL:g} on float ones)",
    )
    tot.set_defaults(func=cmd_totality)

    return parser


def _validate(args) -> None:
    if getattr(args, "depth", 0) < 0:
        raise FormatError("--depth must be nonnegative")
    if getattr(args, "trials", 1) < 1:
        raise FormatError("--trials must be at least 1")
    # a larger trial number would span two words of the trial's spawn key
    if getattr(args, "trials", 1) > 2**32:
        raise FormatError(f"--trials must be at most 2**32, not {args.trials}")
    if args.func is cmd_simulate and args.seed < 0:
        raise FormatError("--seed must be nonnegative")
    # the moment table would overwrite the histogram
    both = args.func is cmd_simulate and args.out and args.moments_out
    if both and os.path.realpath(args.out) == os.path.realpath(args.moments_out):
        raise FormatError(f"--out and --moments-out name the same file {args.out}")
    # numpy's multinomial draw takes counts up to the largest int64
    if not 1 <= getattr(args, "prefix_len", 1) < 2**63:
        raise FormatError(f"--prefix-len must be at least 1 and below 2**63, not {args.prefix_len}")
    if getattr(args, "grid", 2) < 2:
        raise FormatError("--grid must be at least 2")
    for name in ("tol", "totality_tol"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < math.inf:
            raise FormatError(f"--{name.replace('_', '-')} must be a finite positive number, not {value}")


def main(argv=None) -> int:
    spaces.BUILT.clear()  # each command builds its own index sets, also in a process that ran others
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except (FormatError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

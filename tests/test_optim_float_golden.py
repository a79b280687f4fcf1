"""Float-mode simplex answers pinned bit for bit.

The digests below were recorded from the list-of-rows Bland tableau that
preceded the numpy one.  The float tableau must do the same IEEE operations
in the same order, so every answer (status, x, duals, value, down to the
sign of a zero) must hash the same.  To print the digests of the current
code, run `PYTHONPATH=src python tests/test_optim_float_golden.py`.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from urnchains import optim
from urnchains.moments import embed_mixing_measure, recover_measure
from urnchains.multiset import Alphabet
from urnchains.optim import LinearProgram, LpError, solve
from urnchains.stoch import AtomicMeasure, ProbVector
from urnchains.verify import Config, moment_checks

FAMILY_SIZE = 500
FAMILY_DIGEST = "7385268c6a034db371428bde99955008c771e69c15d9c5fd90f5fcf5ee6732d0"
FAMILY_STATUSES = {"optimal": 281, "infeasible": 138, "unbounded": 81}
# the float grid-recovery LPs of the three verify-all runs of the bench
EPIGRAPH_DIGESTS = {
    "2sym-depth5-grid16": "f956eafbff129569c380169d35238d53b484e080418b01e1f8ff0a1ed4b71709",
    "3sym-depth3-grid8": "14f6bdcb13030cc35198f1843d278ce9a11b0d07393b83c7776c067def2ddad1",
    "2sym-depth4-grid16": "1e3abf6f892c1be22e4086ada01ce3cafccab36057b5972aee144500b5af11b1",
}
EPIGRAPH_CONFIGS = {
    "2sym-depth5-grid16": Config(depth=5, eq_depth=2, grid=16),
    "3sym-depth3-grid8": Config(alphabet=Alphabet.of("a", "b", "c"), depth=3, eq_depth=2, grid=8),
    "2sym-depth4-grid16": Config(depth=4, eq_depth=2, grid=16),
}
REPRODUCER_MESSAGE = "simplex phase 1 ended unbounded (numerical breakdown)"


def _answer(sol) -> str:
    return repr((sol.status, sol.x, sol.dual_ub, sol.dual_eq, sol.value))


def _entry(rng: random.Random, kind: str):
    if kind == "real":
        return rng.uniform(-3, 3) if rng.random() < 0.7 else 0.0
    if rng.random() < 0.4:
        return 0.0
    return rng.randint(-6, 6) / rng.choice((1, 2, 3, 7))


def random_float_lp(rng: random.Random) -> LinearProgram:
    """One seeded float LP; the kinds cover degenerate, infeasible, unbounded,
    equality-constrained and negative-rhs programs."""
    kind = rng.choice(("degenerate", "real", "equality", "negative", "free"))
    n = rng.randint(1, 9)
    m_ub = rng.randint(0, 6)
    m_eq = rng.randint(1, 3) if kind == "equality" else rng.randint(0, 1)
    c = [_entry(rng, kind) for _ in range(n)]
    a_ub = [[_entry(rng, kind) for _ in range(n)] for _ in range(m_ub)]
    if kind == "degenerate":
        b_ub = [float(rng.choice((0, 0, 0, 1, 2))) for _ in range(m_ub)]
    elif kind == "negative":
        b_ub = [rng.randint(-4, 4) / 2 for _ in range(m_ub)]
    else:
        b_ub = [abs(_entry(rng, kind)) for _ in range(m_ub)]
    if kind != "free" and rng.random() < 0.7:
        # a box row keeps most programs bounded; "free" ones may be unbounded
        a_ub.append([1.0] * n)
        b_ub.append(float(rng.randint(1, 5)))
    a_eq = [[_entry(rng, kind) for _ in range(n)] for _ in range(m_eq)]
    b_eq = [_entry(rng, kind) for _ in range(m_eq)]
    return LinearProgram(
        objective=tuple(c),
        a_ub=tuple(map(tuple, a_ub)),
        b_ub=tuple(b_ub),
        a_eq=tuple(map(tuple, a_eq)),
        b_eq=tuple(b_eq),
        mode="float",
    )


def family_answers() -> tuple[str, dict]:
    rng = random.Random(20261018)
    lines, statuses = [], {}
    for _ in range(FAMILY_SIZE):
        try:
            sol = solve(random_float_lp(rng))
        except LpError as exc:
            lines.append(repr(("LpError", str(exc))))
            statuses["LpError"] = statuses.get("LpError", 0) + 1
            continue
        lines.append(_answer(sol))
        statuses[sol.status] = statuses.get(sol.status, 0) + 1
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), statuses


def epigraph_digest(config: Config) -> str:
    """Digest of the float LP answers solved by the config's moment checks."""
    answers = []
    inner = optim.solve

    def recording(lp):
        sol = inner(lp)
        if lp.mode == "float":
            answers.append(_answer(sol))
        return sol

    optim.solve = recording
    try:
        moment_checks(config)
    finally:
        optim.solve = inner
    assert answers, "no float LP was solved"
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()


def reproducer_message() -> str:
    abc = Alphabet.of("a", "b", "c")
    mixing = AtomicMeasure.of(
        (ProbVector(abc, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))), Fraction(1, 3)),
        (ProbVector(abc, (Fraction(1, 2), Fraction(3, 8), Fraction(1, 8))), Fraction(2, 3)),
    )
    b = embed_mixing_measure(mixing, 4)
    try:
        recover_measure(b, 16, mode="float")
    except LpError as exc:
        return str(exc)
    return "no LpError"


def test_random_float_family_is_bit_identical():
    digest, statuses = family_answers()
    assert statuses == FAMILY_STATUSES
    assert digest == FAMILY_DIGEST


def test_verify_epigraph_lps_are_bit_identical():
    for name, config in EPIGRAPH_CONFIGS.items():
        assert epigraph_digest(config) == EPIGRAPH_DIGESTS[name], name


def test_fixed_float_reproducer_message_is_unchanged():
    assert reproducer_message() == REPRODUCER_MESSAGE


if __name__ == "__main__":
    print(family_answers())
    for name, config in EPIGRAPH_CONFIGS.items():
        print(name, epigraph_digest(config))
    print(repr(reproducer_message()))

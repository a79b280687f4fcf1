"""Float-mode simplex answers cross-checked against HiGHS.

A seeded family of 500 small float LPs and the float grid-recovery LPs of
the three `verify-all` runs of the bench are solved both by `optim.solve`
and by `scipy.optimize.linprog(method="highs")`, an independent solver.
The two must agree on the status and, when optimal, on the value to 1e-7;
`solve` asserts its own dual certificate on every optimal answer.
"""

from __future__ import annotations

import random

from scipy.optimize import linprog

from urnchains import optim
from urnchains.multiset import Alphabet
from urnchains.optim import LinearProgram, solve
from urnchains.verify import Config, moment_checks

FAMILY_SIZE = 500
VALUE_TOL = 1e-7
# the three verify-all runs of the bench
EPIGRAPH_CONFIGS = {
    "2sym-depth5-grid16": Config(depth=5, eq_depth=2, grid=16),
    "3sym-depth3-grid8": Config(alphabet=Alphabet.of("a", "b", "c"), depth=3, eq_depth=2, grid=8),
    "2sym-depth4-grid16": Config(depth=4, eq_depth=2, grid=16),
}
_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


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


def assert_agrees_with_highs(lp: LinearProgram) -> str:
    """Solve `lp` both ways, assert the answers agree, return the status."""
    ref = linprog(
        [-float(v) for v in lp.objective],
        A_ub=lp.a_ub or None,
        b_ub=lp.b_ub or None,
        A_eq=lp.a_eq or None,
        b_eq=lp.b_eq or None,
        bounds=(0, None),
        method="highs",
    )
    sol = solve(lp)
    assert sol.status == _HIGHS_STATUS[ref.status], ref.message
    if sol.optimal:
        assert abs(sol.value + ref.fun) <= VALUE_TOL, (sol.value, -ref.fun)
    return sol.status


def epigraph_lps(config: Config) -> list:
    """The float LPs solved by the config's moment checks."""
    lps = []
    inner = optim.solve

    def recording(lp):
        if lp.mode == "float":
            lps.append(lp)
        return inner(lp)

    optim.solve = recording
    try:
        moment_checks(config)
    finally:
        optim.solve = inner
    return lps


def test_random_float_family_matches_highs():
    rng = random.Random(20261018)
    statuses = {}
    for _ in range(FAMILY_SIZE):
        status = assert_agrees_with_highs(random_float_lp(rng))
        statuses[status] = statuses.get(status, 0) + 1
    assert statuses == {"optimal": 281, "infeasible": 138, "unbounded": 81}


def test_verify_epigraph_lps_match_highs():
    for name, config in EPIGRAPH_CONFIGS.items():
        lps = epigraph_lps(config)
        assert lps, name
        for lp in lps:
            assert assert_agrees_with_highs(lp) == "optimal", name

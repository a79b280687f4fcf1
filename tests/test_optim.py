import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from helpers import dense_solve_right
from urnchains import optim
from urnchains._linalg import LinearSolveError
from urnchains.optim import (
    LinearProgram,
    LpError,
    _Tableau,
    feasibility_minmax,
    solve,
)

F = Fraction


def test_single_variable_box():
    s = solve(LinearProgram(objective=(1,), a_ub=((1,),), b_ub=(1,)))
    assert s.optimal and s.value == 1 and s.x == (F(1),)
    assert s.duality_gap == 0


def test_degenerate_face_deterministic_tie_break():
    s = solve(LinearProgram(objective=(1, 1), a_ub=((1, 1),), b_ub=(1,)))
    assert s.value == 1
    # a tie in the reduced costs enters the lowest-index variable
    assert s.x == (F(1), F(0))


def test_unbounded():
    s = solve(LinearProgram(objective=(1, 0), a_ub=((0, 1),), b_ub=(1,)))
    assert s.status == "unbounded"


def test_infeasible_and_negative_rhs():
    s = solve(LinearProgram(objective=(1,), a_ub=((1,), (-1,)), b_ub=(1, -2)))
    assert s.status == "infeasible"
    # negative rhs alone is fine: x <= 3, -x <= -2 means 2 <= x <= 3
    s = solve(LinearProgram(objective=(-1,), a_ub=((1,), (-1,)), b_ub=(3, -2)))
    assert s.optimal and s.x == (F(2),)


def test_equality_duals():
    s = solve(LinearProgram(objective=(0, 1), a_eq=((1, 1),), b_eq=(1,)))
    assert s.optimal and s.value == 1
    assert s.dual_eq == (F(1),)


def _beale(conv):
    # Beale's example: from the slack basis, largest-coefficient pricing with
    # a lowest-index tie-break in the ratio test cycles through six bases
    return LinearProgram(
        objective=tuple(map(conv, (F(3, 4), -20, F(1, 2), -6))),
        a_ub=tuple(
            tuple(map(conv, row))
            for row in ((F(1, 4), -8, -1, 9), (F(1, 2), -12, F(-1, 2), 3), (0, 0, 1, 0))
        ),
        b_ub=tuple(map(conv, (0, 0, 1))),
        mode="exact" if conv is F else "float",
    )


def _phase2_from_slack_basis(lp):
    t = _Tableau(lp)
    for i in range(t.m):
        t._pivot(i, t.slack0 + i)
    return t._phase2()


def _bound_pivots(monkeypatch, limit):
    # a tableau that pivots `limit` times raises instead of looping on
    pivot = _Tableau._pivot

    def bounded(self, r, c):
        if self.pivots >= limit:
            raise RuntimeError("cycling")
        pivot(self, r, c)

    monkeypatch.setattr(_Tableau, "_pivot", bounded)


@pytest.mark.parametrize("conv", [F, float], ids=["exact", "float"])
def test_beale_cycling_example_terminates_at_its_optimum(conv, monkeypatch):
    _bound_pivots(monkeypatch, 10_000)
    status, x, _ = _phase2_from_slack_basis(_beale(conv))
    sol = solve(_beale(conv))
    assert status == "optimal" and sol.optimal
    if conv is F:
        assert x == [1, 0, 1, 0] and sol.value == F(5, 4)
    else:
        assert x == pytest.approx([1, 0, 1, 0]) and sol.value == pytest.approx(1.25)


def test_beale_example_cycles_without_the_stall_fallback(monkeypatch):
    # the fallback to Bland's rule is what ends the cycle: 3 rows and 7
    # columns make at most 35 bases, so 100 pivots must repeat one
    monkeypatch.setattr(optim, "_STALL", 10**9)
    _bound_pivots(monkeypatch, 100)
    with pytest.raises(RuntimeError, match="cycling"):
        _phase2_from_slack_basis(_beale(F))


@st.composite
def _degenerate_programs(draw):
    """Small integer LPs with mostly zero right-hand sides and tied costs."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 6))
    c = draw(st.lists(st.sampled_from((-1, 0, 1, 1, 2, 2)), min_size=n, max_size=n))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    a_ub = draw(st.lists(row, min_size=m, max_size=m))
    b_ub = draw(st.lists(st.sampled_from((0, 0, 0, 1)), min_size=m, max_size=m))
    a_eq = draw(st.lists(row, max_size=1))
    return LinearProgram(
        objective=tuple(c),
        a_ub=tuple(map(tuple, a_ub)),
        b_ub=tuple(b_ub),
        a_eq=tuple(map(tuple, a_eq)),
        b_eq=(0,) * len(a_eq),
    )


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_degenerate_programs())
@pytest.mark.parametrize("stall", [optim._STALL, 1], ids=["default-stall", "stall-1"])
def test_degenerate_programs_terminate_with_the_cold_exact_status(monkeypatch, stall, lp):
    # with a stall bound of 1, Bland's rule prices every degenerate run
    monkeypatch.setattr(optim, "_STALL", stall)
    _bound_pivots(monkeypatch, 10_000)
    status = _Tableau(lp).solve()[0]
    assert solve(lp).status == status
    assert solve(_as_float(lp)).status == status


def test_beale_cycling_instance_terminates():
    # classic degenerate instance that cycles under the naive pivot rule
    lp = LinearProgram(
        objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
        a_ub=(
            (F(1, 4), F(-60), F(-1, 25), F(9)),
            (F(1, 2), F(-90), F(-1, 50), F(3)),
            (F(0), F(0), F(1), F(0)),
        ),
        b_ub=(0, 0, 1),
    )
    s = solve(lp)
    assert s.optimal and s.value == F(1, 20)


def test_minmax_target_in_hull_is_exact():
    r = feasibility_minmax(
        columns=((F(1), F(0)), (F(0), F(1))),
        b_target=(F(1, 2), F(1, 2)),
    )
    assert r.status == "optimal" and r.residual == 0
    assert r.weights == (F(1, 2), F(1, 2))


def test_minmax_orthogonal_offset():
    # hull is the segment {(w2, 0)}; the target sits eps off it orthogonally
    eps = F(1, 100)
    r = feasibility_minmax(
        columns=((F(0), F(0)), (F(1), F(0))),
        b_target=(F(1, 2), eps),
    )
    assert r.status == "optimal" and r.residual == eps


def test_minmax_empty_grid_infeasible():
    r = feasibility_minmax(columns=(), b_target=(F(1),))
    assert r.status == "infeasible"


def test_dimension_mismatch_rejected():
    with pytest.raises(LpError):
        LinearProgram(objective=(1, 2), a_ub=((1,),), b_ub=(1,))
    with pytest.raises(LpError):
        LinearProgram(objective=(1,), a_ub=((1,),), b_ub=(1, 2))


def test_size_caps():
    with pytest.raises(LpError):
        LinearProgram(objective=(0,) * 5001)


def _random_bounded_instance(rng, mode):
    n = rng.randint(2, 20)
    m = rng.randint(1, 8)
    conv = (lambda v: v) if mode == "exact" else float
    c = [F(rng.randint(-4, 8), 4) for _ in range(n)]
    rows = [[F(rng.randint(0, 6), 3) for _ in range(n)] for _ in range(m)]
    rows.append([F(1)] * n)  # box row keeps the problem bounded
    b = [F(rng.randint(1, 9), 3) for _ in range(m)] + [F(rng.randint(1, 6))]
    return LinearProgram(
        objective=tuple(conv(v) for v in c),
        a_ub=tuple(tuple(conv(v) for v in row) for row in rows),
        b_ub=tuple(conv(v) for v in b),
        mode=mode,
    )


def test_exact_and_float_agree_on_random_instances():
    rng = random.Random(20240811)
    for _ in range(50):
        state = rng.getstate()
        exact = solve(_random_bounded_instance(rng, "exact"))
        rng.setstate(state)
        approx = solve(_random_bounded_instance(rng, "float"))
        assert exact.optimal and approx.optimal
        assert abs(float(exact.value) - approx.value) <= 1e-7
        assert exact.duality_gap == 0
        assert abs(approx.duality_gap) <= 1e-8


def test_weak_duality_on_minmax_solves():
    rng = random.Random(7)
    for _ in range(10):
        cols = tuple(
            tuple(F(rng.randint(0, 8), 8) for _ in range(4)) for _ in range(5)
        )
        target = tuple(F(rng.randint(0, 8), 8) for _ in range(4))
        r = feasibility_minmax(cols, target)
        assert r.status == "optimal"
        assert r.solution.duality_gap == 0


@st.composite
def _boxed_programs(draw):
    """Small LPs with a box on every variable; rows may make them infeasible."""
    n = draw(st.integers(1, 5))
    coeff = st.integers(-4, 4)
    c = draw(st.lists(coeff, min_size=n, max_size=n))
    a_ub = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), max_size=4))
    b_ub = draw(st.lists(st.integers(-3, 8), min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), max_size=2))
    b_eq = draw(st.lists(st.integers(-3, 6), min_size=len(a_eq), max_size=len(a_eq)))
    box = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    a_ub += [[int(i == j) for j in range(n)] for i in range(n)]
    b_ub += box
    return c, a_ub, b_ub, a_eq, b_eq


@settings(max_examples=80, deadline=None)
@given(_boxed_programs())
def test_exact_and_float_agree_with_highs(program):
    c, a_ub, b_ub, a_eq, b_eq = program
    ref = linprog(
        [-v for v in c],
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=(0, None),
        method="highs",
    )
    assert ref.status in (0, 2)  # boxed, so optimal or infeasible
    for mode, conv in (("exact", F), ("float", float)):
        lp = LinearProgram(
            objective=tuple(map(conv, c)),
            a_ub=tuple(tuple(map(conv, row)) for row in a_ub),
            b_ub=tuple(map(conv, b_ub)),
            a_eq=tuple(tuple(map(conv, row)) for row in a_eq),
            b_eq=tuple(map(conv, b_eq)),
            mode=mode,
        )
        sol = solve(lp)
        if ref.status == 2:
            assert sol.status == "infeasible"
        else:
            assert sol.optimal
            assert abs(float(sol.value) + ref.fun) <= 1e-7


# -- exact mode: the float basis confirmed in rationals --------------------------


@st.composite
def _programs(draw):
    """Small exact LPs; without the optional box they may be unbounded."""
    n = draw(st.integers(1, 5))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    c = draw(st.lists(coeff, min_size=n, max_size=n))
    a_ub = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), max_size=4))
    b_ub = draw(st.lists(coeff, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), max_size=2))
    b_eq = draw(st.lists(coeff, min_size=len(a_eq), max_size=len(a_eq)))
    if draw(st.booleans()):
        a_ub.append([F(1)] * n)
        b_ub.append(draw(st.integers(0, 5)))
    return LinearProgram(
        objective=tuple(c),
        a_ub=tuple(map(tuple, a_ub)),
        b_ub=tuple(b_ub),
        a_eq=tuple(map(tuple, a_eq)),
        b_eq=tuple(b_eq),
    )


# Programs whose float basis certifies, each solved on the program's columns
# in their own signs while the tableau negates the rows with a negative
# right-hand side: a binding <= row and a binding = row of that kind, a basic
# slack of such a row, and a redundant equality row whose artificial stays
# basic at zero.
_SIGNED = (
    LinearProgram(objective=(-1, 1), a_ub=((-1, 0), (0, 1)), b_ub=(-2, 3)),
    LinearProgram(objective=(0, 1), a_ub=((1, 0),), b_ub=(3,), a_eq=((-1, 1),), b_eq=(-1,)),
    LinearProgram(objective=(1,), a_ub=((1,), (-1,)), b_ub=(1, F(-1, 2))),
    LinearProgram(objective=(1, 2), a_ub=((1, 0),), b_ub=(5,), a_eq=((-1, -1), (-2, -2)), b_eq=(-1, -2)),
)


@settings(max_examples=200, deadline=None)
@given(_programs())
@example(_SIGNED[0])
@example(_SIGNED[1])
@example(_SIGNED[2])
@example(_SIGNED[3])
def test_exact_solve_matches_the_cold_exact_solve(lp):
    sol = solve(lp)
    cold = _Tableau(lp)
    status, x, y = cold.solve()
    assert sol.status == status
    if status != "optimal":
        return
    assert sol.value == sum((c * v for c, v in zip(cold.c, x)), start=F(0))
    # A degenerate program has several optimal bases, and the float path may
    # break an exact ratio tie the other way; x and the duals are then still
    # optimal (the certificate is checked at tolerance zero) but need not be
    # the cold ones.  They are equal wherever the optimum is unique.
    basic = set(cold.basis.tolist())
    reduced = cold.t[cold.m, : cold.art0]
    if all(reduced[j] < 0 for j in range(cold.art0) if j not in basic):
        assert sol.x == tuple(x)  # dual nondegenerate: x is the unique optimum
    values = cold.t[: cold.m, cold.ncols]
    if all(values > 0) and all(b < cold.art0 for b in basic):
        assert sol.dual_ub + sol.dual_eq == tuple(y)  # primal nondegenerate: unique duals


def test_degenerate_program_may_end_at_another_optimal_basis():
    # the float solve may break a zero-ratio tie the other way, so the
    # confirmed basis may not be the cold one: x and the value are unique
    # here, and any optimal duals are feasible and close the gap exactly
    lp = LinearProgram(
        objective=(-2, F(-1, 3), 0, F(2, 3), -3),
        a_ub=((1, 0, -2, F(3, 2), 0), (0, -1, 1, 1, -3)),
        b_ub=(F(5, 3), 0),
        a_eq=((-1, 3, 3, 0, 2),),
        b_eq=(0,),
    )
    sol = solve(lp)
    status, x, _ = _Tableau(lp).solve()
    assert sol.status == status == "optimal"
    assert sol.value == 0 and sol.x == tuple(x) == (F(0),) * 5
    y = sol.dual_ub + sol.dual_eq
    assert all(v >= 0 for v in sol.dual_ub)
    rows = lp.a_ub + lp.a_eq
    for j, c in enumerate(lp.objective):
        assert sum(row[j] * v for row, v in zip(rows, y)) >= c
    assert sum(b * v for b, v in zip(lp.b_ub + lp.b_eq, y)) == sol.value
    assert sol.duality_gap == 0


def test_float_basis_that_is_exactly_optimal_needs_no_exact_phase_2_pivot():
    lp = LinearProgram(objective=(1, 2), a_ub=((1, 1), (1, 3)), b_ub=(4, 6))
    sol = solve(lp)
    assert sol.from_float_basis
    assert sol.x == (F(3), F(1)) and sol.value == 5


def test_objective_tie_below_float_resolution_is_pivoted_exactly():
    # in floats both objective coefficients are 1.0, the tie enters x1 and
    # the float solve stops there;
    # exactly, x2 is better by 1e-20, so the float basis fails its
    # certificate and the cold exact solve answers
    lp = LinearProgram(objective=(1, 1 + F(1, 10**20)), a_ub=((1, 1),), b_ub=(1,))
    sol = solve(lp)
    assert not sol.from_float_basis
    assert sol.x == (0, 1) and sol.value == 1 + F(1, 10**20)


def _tableau_modes(monkeypatch):
    """The mode of each `_Tableau` built from now on, in order."""
    modes = []
    build = _Tableau.__init__

    def counting(self, lp):
        modes.append(lp.mode)
        build(self, lp)

    monkeypatch.setattr(_Tableau, "__init__", counting)
    return modes


@pytest.mark.parametrize("lp", _SIGNED)
def test_a_certified_exact_solve_builds_no_fraction_tableau(monkeypatch, lp):
    modes = _tableau_modes(monkeypatch)
    assert solve(lp).from_float_basis
    assert modes == ["float"]


def test_a_refused_certificate_builds_one_fraction_tableau(monkeypatch):
    # the objective tie below float resolution: the float basis fails its
    # certificate, and the cold exact solve builds the one Fraction tableau
    modes = _tableau_modes(monkeypatch)
    lp = LinearProgram(objective=(1, 1 + F(1, 10**20)), a_ub=((1, 1),), b_ub=(1,))
    assert not solve(lp).from_float_basis
    assert modes == ["float", "exact"]


def _full_basis_solution(lp, basis):
    """(x, y) of a basis from the whole m x m basis matrix B, solved by the
    dense oracle (slack and artificial i the unit column of row i), or None
    when B is singular."""
    n, m_ub = len(lp.objective), len(lp.a_ub)
    rows = tuple(lp.a_ub) + tuple(lp.a_eq)
    unit = lambda i: tuple(F(int(r == i)) for r in range(len(rows)))
    columns = tuple(
        tuple(F(row[b]) for row in rows) if b < n else unit(b - n if b < n + m_ub else b - n - m_ub)
        for b in basis
    )
    bounds = tuple(F(v) for v in tuple(lp.b_ub) + tuple(lp.b_eq))
    costs = tuple(F(lp.objective[b]) if b < n else F(0) for b in basis)
    x_b, y = dense_solve_right(columns, (bounds,)), dense_solve_right(tuple(zip(*columns)), (costs,))
    if isinstance(x_b, str) or isinstance(y, str):
        return None
    values = dict(zip(basis, x_b[0]))
    return [values.get(j, F(0)) for j in range(n)], list(y[0]) if rows else []


@settings(max_examples=200, deadline=None)
@given(_programs(), st.randoms(use_true_random=False))
@example(_SIGNED[0], random.Random(0))
@example(_SIGNED[1], random.Random(0))
@example(_SIGNED[2], random.Random(0))
@example(_SIGNED[3], random.Random(0))
@example(_beale(F), random.Random(0))
def test_structural_block_solve_matches_the_full_basis(lp, rng):
    # the float solve's final basis and random bases, singular ones among them
    m = len(lp.a_ub) + len(lp.a_eq)
    columns = len(lp.objective) + len(lp.a_ub) + m
    bases = [rng.sample(range(columns), m) for _ in range(8)]
    approx = _Tableau(replace(lp, mode="float"))
    if approx.solve()[0] == "optimal":
        bases.append(approx.basis.tolist())
    for basis in bases:
        expected = _full_basis_solution(lp, basis)
        if expected is None:
            with pytest.raises(LinearSolveError):
                optim._basic_solution(lp, np.array(basis, dtype=int))
        else:
            assert list(optim._basic_solution(lp, np.array(basis, dtype=int))) == list(expected)


# max x0 + x1 on x0 + x1 <= 1, 2 x0 + 2 x1 <= 2, with two singular bases: the
# slack and the artificial of row 0 together, and the columns of x0 and x1,
# whose structural block is the singular matrix of both rows
_TWO_ROWS = LinearProgram(objective=(1, 1), a_ub=((1, 1), (2, 2)), b_ub=(1, 2))


@pytest.mark.parametrize("basis", [[2, 4], [0, 1]], ids=["slack-and-artificial", "singular-block"])
def test_a_singular_float_basis_falls_back_to_the_cold_exact_solve(monkeypatch, basis):
    with pytest.raises(LinearSolveError):
        optim._basic_solution(_TWO_ROWS, np.array(basis))
    assert _full_basis_solution(_TWO_ROWS, basis) is None
    solve_tableau = _Tableau.solve

    def ending_at_the_basis(self):
        result = solve_tableau(self)
        if self.tol:  # the float solve
            self.basis[:] = basis
        return result

    monkeypatch.setattr(_Tableau, "solve", ending_at_the_basis)
    modes = _tableau_modes(monkeypatch)
    sol = solve(_TWO_ROWS)
    cold = _Tableau(_TWO_ROWS).solve()
    assert sol.status == cold[0] == "optimal" and sol.value == 1
    assert not sol.from_float_basis and modes == ["float", "exact", "exact"]


NAN = float("nan")


@pytest.mark.parametrize(
    "lp, refusal",
    [
        (LinearProgram(objective=(NAN, 1.0), a_ub=((1.0, 1.0),), b_ub=(1.0,), mode="float"), "duality gap nan"),
        (LinearProgram(objective=(0.0, 1.0), a_ub=((NAN, 1.0),), b_ub=(1.0,), mode="float"), "violates column 0"),
    ],
    ids=["objective", "row"],
)
def test_certificate_refuses_a_nan(lp, refusal):
    # a test written `bad > tol` is False for a NaN, so these were "optimal"
    with pytest.raises(LpError, match=refusal):
        solve(lp)


def test_an_exact_program_holding_a_nan_is_refused():
    # the certificate reads neither the NaN's row (dual 0) nor its column
    # (x 0), so the cold solve's conversion refuses it
    lp = LinearProgram(objective=(0, 1), a_ub=((1, 1), (NAN, 0)), b_ub=(1, 1))
    with pytest.raises(ValueError, match="nan"):
        solve(lp)


@pytest.mark.parametrize("conv", [F, float], ids=["exact", "float"])
def test_certificate_refuses_a_negative_primal_entry(conv):
    # x = (2, -1) meets the row, y = 2 is dual feasible and both values are
    # 2, so only x >= 0 fails
    lp = LinearProgram(
        objective=(conv(1), conv(0)),
        a_eq=((conv(1), conv(1)),),
        b_eq=(conv(1),),
        mode="exact" if conv is F else "float",
    )
    with pytest.raises(LpError, match="negative at column 1"):
        optim._assert_certificate(lp, [conv(2), conv(-1)], [conv(2)], _Tableau(lp), False)


def test_certificate_names_the_violated_dual_column():
    # x = (1, 0) and y = 1 close the gap, but y does not cover column 1's cost
    lp = LinearProgram(objective=(1, 2), a_ub=((1, 1),), b_ub=(1,))
    with pytest.raises(LpError, match="violates column 1"):
        optim._assert_certificate(lp, [F(1), F(0)], [F(1)], _Tableau(lp), False)


def test_float_overflow_falls_back_to_the_cold_exact_solve():
    lp = LinearProgram(objective=(1, 1), a_ub=((10**400, 1),), b_ub=(10**400,))
    sol = solve(lp)
    assert not sol.from_float_basis
    assert sol.x == (0, 10**400) and sol.duality_gap == 0


def test_float_breakdown_falls_back_to_the_cold_exact_solve():
    # each entry of the only column is below the float pivot tolerance but
    # their sum is not, so float phase 1 ends "unbounded" and raises
    tiny = F(9, 10**10)
    lp = LinearProgram(objective=(1,), a_eq=((tiny,), (tiny,)), b_eq=(1, 1))
    with pytest.raises(LpError, match="phase 1"):
        solve(_as_float(lp))
    sol = solve(lp)
    assert not sol.from_float_basis
    assert sol.x == (1 / tiny,) and sol.value == 1 / tiny and sol.duality_gap == 0


def _as_float(lp):
    return LinearProgram(
        objective=tuple(map(float, lp.objective)),
        a_ub=tuple(tuple(map(float, row)) for row in lp.a_ub),
        b_ub=tuple(map(float, lp.b_ub)),
        a_eq=tuple(tuple(map(float, row)) for row in lp.a_eq),
        b_eq=tuple(map(float, lp.b_eq)),
        mode="float",
    )


@pytest.mark.parametrize(
    "lp, status, float_status, from_float_basis",
    [
        # infeasible in floats too: the status comes from the cold exact solve
        (LinearProgram(objective=(1,), a_ub=((1,), (-1,)), b_ub=(1, -2)), "infeasible", "infeasible", False),
        # feasible in floats (x = 1), infeasible exactly: the float basis is
        # not exactly feasible, so the cold exact solve decides
        (
            LinearProgram(objective=(1,), a_ub=((1,), (-1,)), b_ub=(1, -(1 + F(1, 10**20)))),
            "infeasible",
            "optimal",
            False,
        ),
        # unbounded in floats too
        (LinearProgram(objective=(1, 0), a_ub=((0, 1),), b_ub=(1,)), "unbounded", "unbounded", False),
        # bounded in floats (the objective is below the pivot tolerance),
        # unbounded exactly: the float basis fails its certificate and the
        # cold exact solve finds the ray
        (LinearProgram(objective=(0, F(1, 10**20)), a_ub=((1, 0),), b_ub=(1,)), "unbounded", "optimal", False),
    ],
    ids=["infeasible", "infeasible-below-float", "unbounded", "unbounded-below-float"],
)
def test_exact_status_never_comes_from_floats(lp, status, float_status, from_float_basis):
    assert solve(_as_float(lp)).status == float_status
    sol = solve(lp)
    assert sol.status == status == _Tableau(lp).solve()[0]
    assert sol.from_float_basis == from_float_basis


def test_pivot_counts_per_phase():
    # phase 1 pivots x1 into the equality row; phase 2 then trades it for x2
    lp = LinearProgram(objective=(1, 2), a_eq=((1, 1),), b_eq=(1,), mode="float")
    sol = solve(lp)
    assert sol.pivots == (1, 1) and sol.x == (0.0, 1.0)

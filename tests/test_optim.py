import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from urnchains.optim import (
    LinearProgram,
    LpError,
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
    # Bland's rule enters the lowest-index variable first
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

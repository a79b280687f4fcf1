"""Small linear-programming oracle.

Two-phase primal simplex with Dantzig pricing: the entering column is the
one with the largest positive reduced cost, a tie going to the lowest
index.  The leaving row has the least ratio, a tie going to the lowest basic
column.  Dantzig's rule alone can cycle on a degenerate program (Beale's
example does), so after `_STALL` degenerate pivots in a row (least ratio
zero, to the pivot tolerance) the entering column becomes the lowest-index
one, Bland's rule, until the next non-degenerate pivot.  Bland's rule cannot
cycle (Bland, "New finite pivoting rules for the simplex method", Math.
Oper. Res. 2, 1977), so every run of degenerate pivots ends; every other
pivot strictly raises the objective, so no basis comes back and an exact
solve terminates; a float solve follows the same rule.

The tableau is one dense numpy array: float64 in float mode, dtype=object
holding Fractions in exact mode; its pivot tolerance is the one of
`_linalg.arithmetic` (zero in exact mode, `_linalg.FLOAT_TOL` in float).  A
pivot updates only the block of rows with a nonzero in the pivot column by
columns where the pivot row is nonzero, so its cost follows the fill.

Exact mode solves the program on a float tableau built from its entries and
certifies the final basis B in rational arithmetic, after Applegate, Cook,
Dash and Espinoza, "Exact solutions to linear programming problems", Oper.
Res. Lett. 35 (2007), and Dhiflaoui et al., "Certifying and repairing
solutions to large LPs", SODA 2003: B x_B = b and y^T B = c_B are solved
exactly on the program's columns, and that answer stands when B is
nonsingular and it passes the certificate at tolerance zero.  Otherwise (the
float solve fails, overflows or ends non-optimal, or its basis does not
certify) the exact two-phase solve runs from scratch, the one use of the
dtype=object tableau, so every status is decided in exact arithmetic.  A
basic slack or artificial is the unit column of its row, so that row's dual
is 0 and its equation sets only that variable: both systems are solved on
the structural block alone, the rows with no basic unit column by the basic
structural columns (in the recovery LPs of `verify-all`, 3 or 4 columns of
a basis of 41 or 43 rows), and B is singular exactly when that block is or
a row holds two basic unit columns.  The certificate is the one check of every optimal
answer, float or exact, and reads the program: x is primal feasible (rows
and x >= 0), y is dual feasible (y_ub >= 0, A^T y >= c) and their values
meet (within float tolerances in float mode), each test failing on a NaN.

Problems are: maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.
Sizes are capped (5000 variables, 2000 constraints); this is a desk-scale
solver, not a production one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import ZERO, LinearSolveError, arithmetic, frac, solve_right

MAX_VARIABLES = 5000
MAX_CONSTRAINTS = 2000

# certificate tolerances of a float solve (an exact one checks at zero)
_FLOAT_FEAS_TOL = 1e-7
_FLOAT_GAP_TOL = 1e-8
# degenerate pivots in a row after which Bland's rule replaces Dantzig's.
# Phase 1 drives the artificials at zero out about one degenerate pivot per
# row (329 in a row on a 331-row recovery LP), and Bland's long runs lose
# float accuracy there, so only a run longer than the row cap counts as a stall.
_STALL = MAX_CONSTRAINTS


class LpError(Exception):
    pass


@dataclass
class LinearProgram:
    objective: tuple
    a_ub: tuple = ()
    b_ub: tuple = ()
    a_eq: tuple = ()
    b_eq: tuple = ()
    mode: str = "exact"

    def __post_init__(self):
        n = len(self.objective)
        if self.mode not in ("exact", "float"):
            raise LpError(f"unknown mode {self.mode!r}")
        if len(self.a_ub) != len(self.b_ub) or len(self.a_eq) != len(self.b_eq):
            raise LpError("constraint matrix and bound vector lengths differ")
        for row in tuple(self.a_ub) + tuple(self.a_eq):
            if len(row) != n:
                raise LpError("constraint row width differs from objective length")
        if n > MAX_VARIABLES:
            raise LpError(f"too many variables ({n} > {MAX_VARIABLES})")
        m = len(self.a_ub) + len(self.a_eq)
        if m > MAX_CONSTRAINTS:
            raise LpError(f"too many constraints ({m} > {MAX_CONSTRAINTS})")


@dataclass
class LpSolution:
    status: str  # optimal | unbounded | infeasible
    value: object = None
    x: tuple = ()
    dual_ub: tuple = ()
    dual_eq: tuple = ()
    duality_gap: object = None
    # pivots of the tableau that gave the answer: (phase 1, phase 2); for
    # an exact answer from the certified float basis, the float solve's
    pivots: tuple = (0, 0)
    # whether an exact answer is the float solve's basis, solved and
    # certified exactly on the program (otherwise the cold exact solve, on
    # the Fraction tableau, gave it)
    from_float_basis: bool = False

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Simplex tableau; columns = structural | slack | artificial | rhs.

    `t` holds the m constraint rows and, as its last row, the reduced-cost
    row of the current phase.
    """

    def __init__(self, lp: LinearProgram):
        conv, zero, tol = arithmetic(lp.mode == "exact")
        self.conv, self.zero, self.tol = conv, zero, tol
        self.n = len(lp.objective)
        self.m_ub = len(lp.a_ub)
        self.m_eq = len(lp.a_eq)
        self.m = self.m_ub + self.m_eq
        self.c = [conv(v) for v in lp.objective]
        # slack columns for (possibly negated) ub rows, then one artificial per row
        self.slack0 = self.n
        self.art0 = self.n + self.m_ub
        self.ncols = self.art0 + self.m
        dtype = object if lp.mode == "exact" else float
        self.t = t = np.full((self.m + 1, self.ncols + 1), zero, dtype=dtype)
        self.negated = []
        constraints = list(zip(lp.a_ub, lp.b_ub)) + list(zip(lp.a_eq, lp.b_eq))
        for i, (a_row, b) in enumerate(constraints):
            row = [conv(v) for v in a_row]
            b = conv(b)
            neg = b < zero
            if neg:
                row = [-v for v in row]
                b = -b
            self.negated.append(neg)
            t[i, : self.n] = row
            t[i, self.ncols] = b
            if i < self.m_ub:
                t[i, self.slack0 + i] = conv(-1) if neg else conv(1)
            t[i, self.art0 + i] = conv(1)
        self.basis = np.arange(self.art0, self.ncols)
        self.pivots = 0
        self.phase1_pivots = 0

    def _set_cost(self, c_full):
        # reduced-cost row for maximization, basic columns eliminated
        cost = self.t[self.m]
        cost[: self.ncols] = c_full
        cost[self.ncols] = self.zero
        for i, b in enumerate(self.basis):
            coeff = cost[b]
            if coeff:
                cost -= coeff * self.t[i]

    def _pivot(self, r, c):
        self.pivots += 1
        t = self.t
        pv = t[r, c]
        if pv != 1:
            t[r] *= 1 / pv
        prow = t[r]
        # Eliminate only at the pivot row's nonzero columns: every skipped
        # term is f * 0, an exact zero, and x - f * 0.0 == x in floats.
        cols = np.flatnonzero(prow)
        rows = np.flatnonzero(t[:, c])
        rows = rows[rows != r]
        if rows.size:
            t[np.ix_(rows, cols)] -= np.multiply.outer(t[rows, c], prow[cols])
        self.basis[r] = c

    def _iterate(self, allowed) -> str:
        t, m, tol = self.t, self.m, self.tol
        stalled = 0  # degenerate pivots in a row
        while True:
            entering = np.flatnonzero(allowed & (t[m, : self.ncols] > tol))
            if not entering.size:
                return "optimal"
            if stalled < _STALL:
                # Dantzig: the largest reduced cost (argmax keeps the first of a tie)
                enter = entering[np.argmax(t[m, entering])]
            else:
                enter = entering[0]  # Bland: the lowest index
            col = t[:m, enter]
            rows = np.flatnonzero(col > tol)
            if not rows.size:
                return "unbounded"
            ratios = t[rows, self.ncols] / col[rows]
            # least ratio; among ties, the row whose basic column is lowest
            least = ratios.min()
            ties = rows[ratios == least]
            if not ties.size:
                raise LpError("simplex ratio test met a non-finite entry (numerical breakdown)")
            stalled = stalled + 1 if least <= tol else 0
            self._pivot(ties[np.argmin(self.basis[ties])], enter)

    def _drive_out_artificials(self, feas_tol):
        # basic artificials at zero leave where possible; redundant rows stay put
        t = self.t
        for i in range(self.m):
            if self.basis[i] >= self.art0 and abs(t[i, self.ncols]) <= feas_tol:
                nonzero = np.flatnonzero(abs(t[i, : self.art0]) > self.tol)
                if nonzero.size:
                    self._pivot(i, nonzero[0])
        self.phase1_pivots = self.pivots

    def solve(self):
        conv, zero = self.conv, self.zero
        # phase 1: maximize -(sum of artificials)
        self._set_cost([zero] * self.art0 + [conv(-1)] * self.m)
        allowed = np.ones(self.ncols, dtype=bool)
        status = self._iterate(allowed)
        if status != "optimal":
            # phase 1 is bounded above by 0, so only float round-off gets here
            raise LpError(f"simplex phase 1 ended {status} (numerical breakdown)")
        phase1 = -self.t[self.m, self.ncols]
        feas_tol = self.zero if self.tol == 0 else _FLOAT_FEAS_TOL
        if phase1 < -feas_tol:
            self.phase1_pivots = self.pivots
            return "infeasible", None, None
        self._drive_out_artificials(feas_tol)
        return self._phase2()

    def _phase2(self):
        zero = self.zero
        allowed = np.arange(self.ncols) < self.art0
        self._set_cost(self.c + [zero] * (self.ncols - self.n))
        status = self._iterate(allowed)
        if status == "unbounded":
            return "unbounded", None, None
        x = [zero] * self.ncols
        for b, v in zip(self.basis, self.t[: self.m, self.ncols].tolist()):
            x[b] = v
        # duals from the artificial columns' reduced costs: art i has unit
        # coefficient in (sign-normalized) row i and zero objective, so its
        # reduced cost is -y_i for the normalized system
        y = [-v for v in self.t[self.m, self.art0 : self.ncols].tolist()]
        y = [-v if self.negated[i] else v for i, v in enumerate(y)]
        return "optimal", x[: self.n], y


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP; an optimal answer is returned only with its certificate."""
    # float overflow gives inf and nan as it does in Python floats, silently
    with np.errstate(all="ignore"):
        if lp.mode == "exact":
            try:
                # float(Fraction) rounds correctly; beyond float range it raises
                # OverflowError.  A NaN or infinite float is left to the cold
                # solve, which refuses it.
                approx = _Tableau(replace(lp, mode="float"))
                if np.isfinite(approx.t).all() and approx.solve()[0] == "optimal":
                    return _assert_certificate(lp, *_basic_solution(lp, approx.basis), approx, True)
            except (LpError, LinearSolveError, OverflowError):
                pass
        t = _Tableau(lp)
        status, x, y = t.solve()
    if status != "optimal":
        return LpSolution(status=status, pivots=(t.phase1_pivots, t.pivots - t.phase1_pivots))
    return _assert_certificate(lp, x, y, t, False)


def _basic_solution(lp, basis):
    """(x, y) of a tableau basis B solved exactly on the program's columns:
    B x_B = b and y^T B = c_B.  Slack and artificial i are the unit column
    of row i at cost 0 (an artificial's sign does not matter), so a row
    holding one has dual 0, and its equation only sets that basic variable,
    which x does not report.  What is left is M x_S = b_R and y_R^T M = c_S
    on the block M = A[R, S] of the rows R holding no basic unit column and
    the basic structural columns S.  Raises LinearSolveError when B is
    singular: a row holds two basic unit columns, or M is singular."""
    n, art0 = len(lp.objective), len(lp.objective) + len(lp.a_ub)
    basis = basis.tolist()
    constraints = tuple(lp.a_ub) + tuple(lp.a_eq)
    structural = [b for b in basis if b < n]
    covered = {b - n if b < art0 else b - art0 for b in basis if b >= n}
    if len(covered) + len(structural) < len(basis):
        raise LinearSolveError("a row holds two basic unit columns")
    free = [i for i in range(len(constraints)) if i not in covered]
    block = [[frac(constraints[i][b]) for b in structural] for i in free]
    rows = tuple({k: v for k, v in enumerate(row) if v} for row in block)
    columns = tuple({r: v for r, v in enumerate(column) if v} for column in zip(*block))
    bounds = tuple(lp.b_ub) + tuple(lp.b_eq)
    rhs = {r: v for r, i in enumerate(free) if (v := frac(bounds[i]))}
    cost = {k: v for k, b in enumerate(structural) if (v := frac(lp.objective[b]))}
    (x_s,), (y_r,) = solve_right(columns, (rhs,)), solve_right(rows, (cost,))
    values = {structural[k]: v for k, v in x_s.items()}
    duals = {free[r]: v for r, v in y_r.items()}
    return [values.get(j, ZERO) for j in range(n)], [duals.get(i, ZERO) for i in range(len(constraints))]


def _assert_certificate(lp, x, y, answered, from_float_basis) -> LpSolution:
    """The optimal answer (x, y) of the tableau `answered`, once its
    certificate holds on the program: x primal feasible, y dual feasible and
    no duality gap, at tolerance zero in exact mode.  Each test is written so
    that a NaN fails it.  Raises LpError at the first violation."""
    conv, zero, tol = arithmetic(lp.mode == "exact")
    gap_tol, dual_tol = (zero, zero) if tol == 0 else (_FLOAT_GAP_TOL, _FLOAT_FEAS_TOL)
    ptol = tol * 100
    m_ub = len(lp.a_ub)
    dual_ub, dual_eq = tuple(y[:m_ub]), tuple(y[m_ub:])
    rows = tuple(lp.a_ub) + tuple(lp.a_eq)
    bounds = [conv(b) for b in tuple(lp.b_ub) + tuple(lp.b_eq)]
    c = [conv(v) for v in lp.objective]
    value = sum((cj * v for cj, v in zip(c, x)), start=zero)
    gap = sum((b * v for b, v in zip(bounds, y)), start=zero) - value
    if not abs(gap) <= gap_tol:
        raise LpError(f"duality gap {gap} beyond tolerance")
    if not all(v >= -gap_tol for v in dual_ub):
        raise LpError("negative dual on an inequality row")
    # dual feasibility, A_ub^T y_ub + A_eq^T y_eq >= c, in one pass over the
    # nonzero entries of the rows whose dual is nonzero
    lhs = [zero] * len(c)
    for row, v in zip(rows, y):
        if v:
            for j, a in enumerate(row):
                if a:
                    lhs[j] += conv(a) * v
    for j, (a, cj) in enumerate(zip(lhs, c)):
        if not a >= cj - dual_tol:
            raise LpError(f"dual certificate violates column {j}")
    # primal feasibility of the returned point
    for j, v in enumerate(x):
        if not v >= -ptol:
            raise LpError(f"primal point is negative at column {j}")
    support = [(j, v) for j, v in enumerate(x) if v]
    for i, (row, b) in enumerate(zip(rows, bounds)):
        excess = sum((conv(row[j]) * v for j, v in support), start=zero) - b
        if i < m_ub and not excess <= ptol:
            raise LpError("primal point violates an inequality")
        if i >= m_ub and not abs(excess) <= ptol:
            raise LpError("primal point violates an equality")
    return LpSolution(
        status="optimal",
        value=value,
        x=tuple(x),
        dual_ub=dual_ub,
        dual_eq=dual_eq,
        duality_gap=gap,
        pivots=(answered.phase1_pivots, answered.pivots - answered.phase1_pivots),
        from_float_basis=from_float_basis,
    )


@dataclass
class MinmaxResult:
    status: str
    weights: tuple = ()
    residual: object = None
    solution: LpSolution | None = None


def feasibility_minmax(columns, b_target, mode: str = "exact") -> MinmaxResult:
    """Minimize the sup-norm residual |A w - b| over probability weights w.

    columns: sequence of columns of A (one candidate point per column).
    Epigraph form: maximize -t subject to  A w - t <= b, -A w - t <= -b,
    sum w = 1, w >= 0, t >= 0.
    """
    ncols = len(columns)
    nrows = len(b_target)
    conv, zero, _ = arithmetic(mode == "exact")
    if ncols == 0:
        return MinmaxResult(status="infeasible")
    for col in columns:
        if len(col) != nrows:
            raise LpError("column height differs from target vector")
    objective = [zero] * ncols + [conv(-1)]
    a_ub = []
    b_ub = []
    for i in range(nrows):
        row_plus = [conv(columns[j][i]) for j in range(ncols)] + [conv(-1)]
        row_minus = [-v for v in row_plus[:-1]] + [conv(-1)]
        a_ub.append(tuple(row_plus))
        b_ub.append(conv(b_target[i]))
        a_ub.append(tuple(row_minus))
        b_ub.append(-conv(b_target[i]))
    a_eq = (tuple([conv(1)] * ncols + [zero]),)
    sol = solve(LinearProgram(tuple(objective), tuple(a_ub), tuple(b_ub), a_eq, (conv(1),), mode))
    if not sol.optimal:
        return MinmaxResult(status=sol.status, solution=sol)
    return MinmaxResult(
        status="optimal",
        weights=tuple(sol.x[:ncols]),
        residual=-sol.value,
        solution=sol,
    )

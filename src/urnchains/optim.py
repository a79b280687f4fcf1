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

Exact mode first solves the float copy of the program and then confirms its
final basis in rational arithmetic, after Applegate, Cook, Dash and
Espinoza, "Exact solutions to linear programming problems", Oper. Res. Lett.
35 (2007): the basis columns are pivoted into the exact tableau and, when
that basis is exactly primal feasible, exact phase 2 runs from it (with no
pivot when it is exactly optimal).  When the float solve fails, overflows
or ends non-optimal, or its basis is not exactly feasible, the exact
two-phase solve runs from scratch, so every status is decided in exact
arithmetic.  Every optimal answer carries a dual certificate and the
weak-duality gap is asserted before returning (at tolerance zero in exact
mode).

Problems are: maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.
Sizes are capped (5000 variables, 2000 constraints); this is a desk-scale
solver, not a production one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ._linalg import arithmetic

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
    # pivots of the tableau that gave the answer: (phase 1, phase 2); when
    # the exact answer started from the float basis, phase 1 counts the
    # pivots that installed that basis and the float solve is not counted
    pivots: tuple = (0, 0)
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
        self.from_float_basis = False

    def copy(self, as_float: bool = False) -> _Tableau:
        """An independent copy; `as_float` converts an exact one to float64
        (raising OverflowError when an entry is beyond float range)."""
        other = copy.copy(self)
        other.basis = self.basis.copy()
        if as_float:
            other.conv, other.zero, other.tol = arithmetic(False)
            other.c = [float(v) for v in self.c]
            other.t = self.t.astype(float)
        else:
            other.t = self.t.copy()
        return other

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

    def solve_from(self, basis):
        """Exact phase 2 from `basis` (the float solve's final one).

        Pivots each non-artificial column of `basis` into this fresh
        tableau; returns None, to ask for a cold solve, when those columns
        are singular or the basis they make is not exactly primal feasible
        with every basic artificial at zero.
        """
        t, m = self.t, self.m
        for r, col in enumerate(basis):
            if col >= self.art0:
                continue
            if self.basis[r] < self.art0 or not t[r, col]:
                free = np.flatnonzero((self.basis >= self.art0) & (t[:m, col] != 0))
                if not free.size:
                    return None
                r = free[0]
            self._pivot(r, col)
        rhs = t[:m, self.ncols]
        if (rhs < 0).any() or (rhs[self.basis >= self.art0] != 0).any():
            return None
        self._drive_out_artificials(self.zero)
        self.from_float_basis = True
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


def _exact_solve(lp: LinearProgram):
    """(tableau, answer) of the exact solve: warm from the float basis when
    that basis is exactly feasible, cold two-phase otherwise."""
    cold = _Tableau(lp)
    warm = cold.copy()
    try:
        approx = cold.copy(as_float=True)
        status, _, _ = approx.solve()
    except (LpError, OverflowError):
        status = None
    if status == "optimal":
        answer = warm.solve_from(approx.basis)
        if answer is not None:
            return warm, answer
    return cold, cold.solve()


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP; optimal solutions carry a dual certificate and zero/tiny gap."""
    # float overflow gives inf and nan as it does in Python floats, silently
    with np.errstate(all="ignore"):
        if lp.mode == "exact":
            t, (status, x, y) = _exact_solve(lp)
        else:
            t = _Tableau(lp)
            status, x, y = t.solve()
    pivots = (t.phase1_pivots, t.pivots - t.phase1_pivots)
    if status != "optimal":
        return LpSolution(status=status, pivots=pivots, from_float_basis=t.from_float_basis)
    dual_ub = tuple(y[: t.m_ub])
    dual_eq = tuple(y[t.m_ub :])
    value = sum((c * v for c, v in zip(t.c, x)), start=t.zero)
    dual_value = sum(
        (b * v for b, v in zip((t.conv(b) for b in lp.b_ub), dual_ub)), start=t.zero
    )
    dual_value += sum(
        (b * v for b, v in zip((t.conv(b) for b in lp.b_eq), dual_eq)), start=t.zero
    )
    gap = dual_value - value
    _assert_certificate(lp, t, x, dual_ub, dual_eq, gap)
    return LpSolution(
        status="optimal",
        value=value,
        x=tuple(x),
        dual_ub=dual_ub,
        dual_eq=dual_eq,
        duality_gap=gap,
        pivots=pivots,
        from_float_basis=t.from_float_basis,
    )


def _assert_certificate(lp, t, x, dual_ub, dual_eq, gap):
    tol = t.tol
    gap_tol = t.zero if tol == 0 else _FLOAT_GAP_TOL
    if abs(gap) > gap_tol:
        raise LpError(f"duality gap {gap} beyond tolerance")
    for y in dual_ub:
        if y < -gap_tol:
            raise LpError("negative dual on an inequality row")
    # dual feasibility: A_ub^T y_ub + A_eq^T y_eq >= c
    for j in range(t.n):
        lhs = sum(t.conv(row[j]) * y for row, y in zip(lp.a_ub, dual_ub))
        lhs += sum(t.conv(row[j]) * y for row, y in zip(lp.a_eq, dual_eq))
        if lhs < t.c[j] - (t.zero if tol == 0 else _FLOAT_FEAS_TOL):
            raise LpError(f"dual certificate violates column {j}")
    # primal feasibility of the returned point
    ptol = tol * 100
    for row, b in zip(lp.a_ub, lp.b_ub):
        if sum(t.conv(a) * v for a, v in zip(row, x)) > t.conv(b) + ptol:
            raise LpError("primal point violates an inequality")
    for row, b in zip(lp.a_eq, lp.b_eq):
        if abs(sum(t.conv(a) * v for a, v in zip(row, x)) - t.conv(b)) > ptol:
            raise LpError("primal point violates an equality")


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
    b_eq = (conv(1),)
    lp = LinearProgram(
        objective=tuple(objective),
        a_ub=tuple(a_ub),
        b_ub=tuple(b_ub),
        a_eq=a_eq,
        b_eq=b_eq,
        mode=mode,
    )
    sol = solve(lp)
    if not sol.optimal:
        return MinmaxResult(status=sol.status, solution=sol)
    return MinmaxResult(
        status="optimal",
        weights=tuple(sol.x[:ncols]),
        residual=-sol.value,
        solution=sol,
    )

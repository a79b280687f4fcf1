"""Small linear-programming oracle.

Two-phase primal simplex with Bland's rule (lowest-index entering and
leaving), so termination is guaranteed even on degenerate instances.  The
tableau is stored densely, but each pivot updates the other rows only at the
pivot row's nonzero columns.  Two modes: exact rational arithmetic (tolerance
zero) and 64-bit float (tolerances around 1e-9).  Every solve carries a dual
certificate and the weak-duality gap is asserted before returning.

Problems are: maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.
Sizes are capped (5000 variables, 2000 constraints); this is a desk-scale
solver, not a production one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import frac

MAX_VARIABLES = 5000
MAX_CONSTRAINTS = 2000

_FLOAT_PIVOT_TOL = 1e-9
_FLOAT_FEAS_TOL = 1e-7
_FLOAT_GAP_TOL = 1e-8


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

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _num(mode):
    if mode == "exact":
        return frac, Fraction(0), Fraction(0)
    return float, 0.0, _FLOAT_PIVOT_TOL


class _Tableau:
    """Simplex tableau; columns = structural | slack | artificial | rhs.

    Rows are dense lists, but a pivot touches only the columns where the
    pivot row is nonzero, so its cost follows the fill of the tableau.
    """

    def __init__(self, lp: LinearProgram):
        conv, zero, tol = _num(lp.mode)
        self.conv, self.zero, self.tol = conv, zero, tol
        self.n = len(lp.objective)
        self.m_ub = len(lp.a_ub)
        self.m_eq = len(lp.a_eq)
        self.m = self.m_ub + self.m_eq
        self.c = [conv(v) for v in lp.objective]
        self.negated = []
        rows = []
        rhs = []
        for a_row, b in list(zip(lp.a_ub, lp.b_ub)) + list(zip(lp.a_eq, lp.b_eq)):
            row = [conv(v) for v in a_row]
            b = conv(b)
            neg = b < zero
            if neg:
                row = [-v for v in row]
                b = -b
            self.negated.append(neg)
            rows.append(row)
            rhs.append(b)
        # slack columns for (possibly negated) ub rows, then one artificial per row
        self.slack0 = self.n
        self.art0 = self.n + self.m_ub
        self.ncols = self.art0 + self.m
        self.rows = []
        for i in range(self.m):
            row = rows[i] + [zero] * (self.m_ub + self.m) + [rhs[i]]
            if i < self.m_ub:
                row[self.slack0 + i] = conv(-1) if self.negated[i] else conv(1)
            row[self.art0 + i] = conv(1)
            self.rows.append(row)
        self.basis = [self.art0 + i for i in range(self.m)]

    def _cost_row(self, c_full):
        # reduced-cost row for maximization, basic columns eliminated
        row = list(c_full) + [self.zero]
        for i, b in enumerate(self.basis):
            coeff = row[b]
            if coeff:
                for j in range(self.ncols + 1):
                    row[j] -= coeff * self.rows[i][j]
        return row

    def _pivot(self, cost, r, c):
        prow = self.rows[r]
        pv = prow[c]
        if pv != 1:
            inv = 1 / pv if isinstance(pv, float) else Fraction(1) / pv
            self.rows[r] = prow = [v * inv for v in prow]
        # Eliminate only at the pivot row's nonzero columns: every skipped
        # term is f * 0, an exact zero, and x - f * 0.0 == x in floats (only
        # the sign of a zero entry can differ), so pivots and answers agree.
        nonzero = [(j, v) for j, v in enumerate(prow) if v]
        for target in self.rows + [cost]:
            if target is prow:
                continue
            f = target[c]
            if f:
                for j, v in nonzero:
                    target[j] -= f * v
        self.basis[r] = c

    def _iterate(self, cost, allowed) -> str:
        while True:
            enter = None
            for j in range(self.ncols):
                if allowed[j] and cost[j] > self.tol:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > self.tol:
                    ratio = self.rows[i][self.ncols] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            self._pivot(cost, leave, enter)

    def solve(self):
        conv, zero = self.conv, self.zero
        # phase 1: maximize -(sum of artificials)
        c1 = [zero] * self.ncols
        for j in range(self.art0, self.ncols):
            c1[j] = conv(-1)
        cost = self._cost_row(c1)
        allowed = [True] * self.ncols
        status = self._iterate(cost, allowed)
        if status != "optimal":
            # phase 1 is bounded above by 0, so only float round-off gets here
            raise LpError(f"simplex phase 1 ended {status} (numerical breakdown)")
        phase1 = -cost[self.ncols]
        feas_tol = self.zero if self.tol == 0 else _FLOAT_FEAS_TOL
        if phase1 < -feas_tol:
            return "infeasible", None, None
        # drive basic artificials out where possible; redundant rows stay put
        for i in range(self.m):
            if self.basis[i] >= self.art0 and abs(self.rows[i][self.ncols]) <= feas_tol:
                for j in range(self.art0):
                    if abs(self.rows[i][j]) > self.tol:
                        self._pivot(cost, i, j)
                        break
        # phase 2
        for j in range(self.art0, self.ncols):
            allowed[j] = False
        c2 = [self.c[j] if j < self.n else zero for j in range(self.ncols)]
        cost = self._cost_row(c2)
        status = self._iterate(cost, allowed)
        if status == "unbounded":
            return "unbounded", None, None
        x = [zero] * self.ncols
        for i, b in enumerate(self.basis):
            x[b] = self.rows[i][self.ncols]
        # duals from the artificial columns' reduced costs: art i has unit
        # coefficient in (sign-normalized) row i and zero objective, so its
        # reduced cost is -y_i for the normalized system
        y = [-cost[self.art0 + i] for i in range(self.m)]
        y = [-v if self.negated[i] else v for i, v in enumerate(y)]
        return "optimal", x[: self.n], y


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP; optimal solutions carry a dual certificate and zero/tiny gap."""
    t = _Tableau(lp)
    status, x, y = t.solve()
    if status != "optimal":
        return LpSolution(status=status)
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
        if lhs < t.c[j] - (t.zero if tol == 0 else 1e-7):
            raise LpError(f"dual certificate violates column {j}")
    # primal feasibility of the returned point
    ptol = t.zero if tol == 0 else _FLOAT_PIVOT_TOL * 100
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
    conv, zero, _ = _num(mode)
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

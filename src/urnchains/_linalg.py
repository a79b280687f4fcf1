"""Exact rational matrices: the shared matrix base, products, linear solves.

`Matrix(source, target, entries)` is the one presentation of the maps on
both sides of the package: a nonnegative exact matrix indexed (source label,
target label).  It stores one sparse row per source label, a {column: value}
dict of the row's nonzero entries in ascending column order, and refuses a
row in any other form: a dense row, a column out of range or out of order, a
stored zero or a negative entry.  `FinKernel` and `PcsMatrix` subclass it
and keep only what is their own: `FinKernel`'s row sums, `PcsMatrix.push`.
`Matrix.build` fills the rows from {target label: value} dicts.
`compose(f, g)`, "f then g", is the product of the rows.

The helpers below act on bare tuples of rows in the same sparse form, and
their results are in it too, so zeros cost nothing in products, comparisons
and solves; the equaliser and permutation matrices here are very sparse.

This module also holds the package's one exact-versus-float policy: values
that are all ints or Fractions (`is_exact`) are compared at tolerance zero,
anything else in floats at `FLOAT_TOL`; `arithmetic` gives the conversion,
zero and tolerance of either side.  No other module decides this itself.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .spaces import IndexSet

ZERO = Fraction(0)
ONE = Fraction(1)
# the tolerance of every float comparison whose exact counterpart is equality
FLOAT_TOL = 1e-9


class LinearSolveError(Exception):
    """The linear system has no solution or is not uniquely solvable."""


def frac(x) -> Fraction:
    """Coerce to an exact Fraction; floats go through their decimal repr.

    Fraction(str(0.1)) is 1/10, which is what a human writing 0.1 in a JSON
    file meant; Fraction(0.1) would be the 56-bit binary artefact.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def is_exact(values) -> bool:
    """Whether every value is an int or a Fraction, so that comparisons on
    them are made at tolerance zero."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def arithmetic(exact: bool):
    """(conversion, zero, tolerance) of exact arithmetic (frac, 0, 0) or of
    float arithmetic (float, 0.0, FLOAT_TOL)."""
    return (frac, ZERO, ZERO) if exact else (float, 0.0, FLOAT_TOL)


def _monomial(point, counts, start=ONE):
    """start * prod_a point[a]^counts[a], the coefficient at counts of the
    promotion of point.  Multiplies left to right from start, skipping zero
    counts; exact entries are read as Fractions, float entries stay floats."""
    v = start
    for x, c in zip(point, counts):
        if c:
            v *= frac(x) ** c if isinstance(x, (int, Fraction)) else x**c
    return v


@dataclass(frozen=True, eq=False)
class Matrix:
    """Exact matrix indexed (source label, target label), stored as sparse rows."""

    source: IndexSet
    target: IndexSet
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != len(self.source):
            raise ValueError("row count must match source size")
        width = len(self.target)
        for row in self.entries:
            if type(row) is not dict:
                raise ValueError(f"a row must be a {{column: value}} dict, not a {type(row).__name__}")
            columns = list(row)
            if columns != sorted(columns):
                raise ValueError(f"a row's columns must ascend, not {columns}")
            if columns and (columns[0] < 0 or columns[-1] >= width):
                raise ValueError(f"a row's columns must lie in 0..{width - 1} (the target size), not {columns}")
            least = min(row.values(), default=ONE)
            if least < 0:
                raise ValueError(f"matrix entries must be nonnegative, not {least}")
            if least == 0:
                raise ValueError(f"a row stores only nonzero entries, not {row}")

    @classmethod
    def build(cls, source: IndexSet, target: IndexSet, row: Callable[[object], dict]):
        """The matrix whose row at each source label is row(label), a
        {target label: value} dict; zero values are not stored."""
        index = target.index
        rows = (sorted((index(lab), v) for lab, v in row(label).items() if v) for label in source.labels)
        return cls(source, target, tuple(map(dict, rows)))

    def deviation(self, other: "Matrix") -> Fraction:
        if self.source.labels != other.source.labels or self.target.labels != other.target.labels:
            raise ValueError("matrices must share source and target index sets")
        return max_abs_diff(self.entries, other.entries)


def compose(f: Matrix, g: Matrix) -> Matrix:
    """Composition f then g, as the matrix product, in the type of f."""
    if f.target.labels != g.source.labels:
        raise ValueError(
            f"cannot compose: target {f.target.name} != source {g.source.name}"
        )
    return type(f)(f.source, g.target, matmul(f.entries, g.entries))


def identity(n: int) -> tuple:
    return tuple({i: ONE} for i in range(n))


def matmul(a, b) -> tuple:
    """The product of two tuples of rows: row i is sum_t a[i][t] * b[t]."""
    out = []
    try:
        for arow in a:
            acc = {}
            for t, v in arow.items():
                for u, w in b[t].items():
                    # most structural maps hold the shared ONE, a product by which is free
                    p = v if w is ONE else w if v is ONE else v * w
                    acc[u] = acc[u] + p if u in acc else p
            out.append({u: acc[u] for u in sorted(acc) if acc[u]})
    except IndexError:
        raise ValueError(f"shape mismatch: a column of the left factor past its {len(b)} rows") from None
    return tuple(out)


def kron(a, b, width: int) -> tuple:
    """Kronecker product, b having `width` columns, in row-major product order.
    A product by the shared ONE is the other entry itself, as in `matmul`, so
    the identity factors of a tensored map keep its ONEs shared."""
    return tuple(
        {i * width + j: x if y is ONE else y if x is ONE else x * y for i, x in arow.items() for j, y in brow.items()}
        for arow in a
        for brow in b
    )


def max_abs_diff(a, b) -> Fraction:
    if len(a) != len(b):
        raise ValueError("shape mismatch in max_abs_diff")
    dev = ZERO
    for ra, rb in zip(a, b):
        if ra != rb:
            dev = max(dev, *(abs(ra.get(j, ZERO) - rb.get(j, ZERO)) for j in ra.keys() | rb.keys()))
    return dev


def solve_right(e, b) -> tuple:
    """Solve m @ e = b for m, requiring the solution to be unique.

    e must have full row rank (a split mono or an LP basis in every use
    here); raises LinearSolveError when the system is inconsistent or
    underdetermined.
    Gauss-Jordan elimination over exact rationals on the transposed system
    e^T m^T = b^T: one sparse equation per column of e and b, whose unknowns
    are 0..len(e)-1 and whose right-hand sides follow them.
    """
    unknowns = len(e)
    equations = {}
    for j, row in enumerate(e + b):
        for i, v in row.items():
            equations.setdefault(i, {})[j] = v
    pending = list(equations.values())
    pivots = []
    for col in range(unknowns):
        piv = next((r for r, row in enumerate(pending) if col in row), None)
        if piv is None:
            raise LinearSolveError(
                f"underdetermined system: matrix has row rank < {unknowns}"
            )
        prow = pending.pop(piv)
        prow = {k: v / prow[col] for k, v in prow.items()}
        for rows in (pending, pivots):
            for r, row in enumerate(rows):
                if col in row:
                    f = row[col]
                    # row - f * prow, without its zeros
                    rows[r] = {
                        k: v for k in row.keys() | prow.keys() if (v := row.get(k, ZERO) - f * prow.get(k, ZERO))
                    }
        pivots.append(prow)
    # consistency: the equations left without a pivot must have vanished
    if any(pending):
        raise LinearSolveError("inconsistent system: no exact factorisation exists")
    # each pivot equation now reads: unknown j = its right-hand sides
    rhs = range(unknowns, unknowns + len(b))
    return tuple({j: prow[k] for j, prow in enumerate(pivots) if k in prow} for k in rhs)

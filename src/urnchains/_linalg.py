"""Exact rational matrices: the shared matrix base, products, linear solves.

`Matrix(source, target, rows)` is the one presentation of the maps on both
sides of the package: a nonnegative exact matrix indexed (source label,
target label), with `rows` a tuple of dense row tuples of Fractions.
`FinKernel` and `PcsMatrix` subclass it and keep only what is their own:
validation, `FinKernel`'s label-based equality, `PcsMatrix.push`.
`Matrix.build` is the one place that fills dense rows: each row is given
as a {target label: value} dict and every other entry is ZERO, so a sparse
row format would be a change to this module alone.  `compose(f, g)`, "f
then g", is the plain product of the rows.

The helpers below act on bare row tuples.  Products skip zero entries,
which matters because equaliser and permutation matrices here are very
sparse.

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
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
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
    if exact:
        return frac, ZERO, ZERO
    return float, 0.0, FLOAT_TOL


def _monomial(point, counts, start=ONE):
    """start * prod_a point[a]^counts[a], the coefficient at counts of the
    promotion of point.  Multiplies left to right from start, skipping zero
    counts; exact entries are read as Fractions, float entries stay floats."""
    v = start
    for x, c in zip(point, counts):
        if c:
            v *= frac(x) ** c if isinstance(x, (int, Fraction)) else x**c
    return v


@dataclass(frozen=True)
class Matrix:
    """Exact matrix indexed (source label, target label)."""

    source: IndexSet
    target: IndexSet
    rows: tuple

    @classmethod
    def build(cls, source: IndexSet, target: IndexSet, row: Callable[[object], dict]):
        """The matrix whose row at each source label is row(label), a
        {target label: value} dict; every other entry is ZERO."""
        rows = []
        for label in source.labels:
            dense = [ZERO] * len(target)
            for tgt_label, value in row(label).items():
                dense[target.index(tgt_label)] = value
            rows.append(tuple(dense))
        return cls(source, target, tuple(rows))

    def entry(self, src_label, tgt_label) -> Fraction:
        return self.rows[self.source.index(src_label)][self.target.index(tgt_label)]

    def deviation(self, other: "Matrix") -> Fraction:
        if self.source.labels != other.source.labels or self.target.labels != other.target.labels:
            raise ValueError("matrices must share source and target index sets")
        return max_abs_diff(self.rows, other.rows)


def compose(f: Matrix, g: Matrix) -> Matrix:
    """Composition f then g, as the matrix product, in the type of f."""
    if f.target.labels != g.source.labels:
        raise ValueError(
            f"cannot compose: target {f.target.name} != source {g.source.name}"
        )
    return type(f)(f.source, g.target, matmul(f.rows, g.rows))


def identity(n: int) -> tuple:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def matmul(a: tuple, b: tuple) -> tuple:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    ncols = len(b[0]) if b else 0
    out = []
    for arow in a:
        acc = [ZERO] * ncols
        for t, v in enumerate(arow):
            if v:
                brow = b[t]
                for u, w in enumerate(brow):
                    if w:
                        acc[u] += v * w
        out.append(tuple(acc))
    return tuple(out)


def kron(a: tuple, b: tuple) -> tuple:
    """Kronecker product, matching row-major product index order."""
    rows = []
    for arow in a:
        for brow in b:
            rows.append(
                tuple(av * bv if av and bv else ZERO for av in arow for bv in brow)
            )
    return tuple(rows)


def max_abs_diff(a: tuple, b: tuple) -> Fraction:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ValueError("shape mismatch in max_abs_diff")
    dev = ZERO
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if x == y:
                continue
            d = abs(x - y)
            if d > dev:
                dev = d
    return dev


def solve_right(e: tuple, b: tuple) -> tuple:
    """Solve m @ e = b for m, requiring the solution to be unique.

    e must have full row rank (it is a split mono in every use here); raises
    LinearSolveError when the system is inconsistent or underdetermined.
    Gaussian elimination over exact rationals on the transposed system.
    """
    nrows_e = len(e)
    ncols_e = len(e[0]) if e else 0
    if b and len(b[0]) != ncols_e:
        raise ValueError("right-hand side width must match e")
    q = len(b)
    # augmented system: e^T x = b^T, solved for all q right-hand sides at once
    aug = [
        [e[j][i] for j in range(nrows_e)] + [b[r][i] for r in range(q)]
        for i in range(ncols_e)
    ]
    pivot_rows: list[int] = []
    row = 0
    for col in range(nrows_e):
        piv = None
        for r in range(row, len(aug)):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise LinearSolveError(
                f"underdetermined system: matrix has row rank < {nrows_e}"
            )
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        if pv != 1:
            aug[row] = [v / pv for v in aug[row]]
        prow = aug[row]
        for r in range(len(aug)):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], prow)]
        pivot_rows.append(row)
        row += 1
    # consistency: rows below the pivots must be entirely zero
    for r in range(row, len(aug)):
        if any(aug[r]):
            raise LinearSolveError("inconsistent system: no exact factorisation exists")
    sol_t = [aug[r][nrows_e:] for r in range(nrows_e)]
    return tuple(tuple(sol_t[j][r] for j in range(nrows_e)) for r in range(q))

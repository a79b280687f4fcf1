"""The sparse row store of `_linalg` against small dense references.

Every matrix stores one {column: value} dict per row, holding only the
nonzero entries, in ascending column order.  Each row operation is compared
with a plain dense loop from `helpers` on random Fraction matrices, empty
rows and all-zero matrices included, and every row it returns must be in
that canonical form.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dense,
    dense_kron,
    dense_max_abs_diff,
    dense_permute_columns,
    dense_solve_right,
    mm,
    sparse,
    symmetrization_oracle,
)
from urnchains._linalg import (
    LinearSolveError,
    Matrix,
    kron,
    matmul,
    max_abs_diff,
    solve_right,
)
from urnchains.multiset import Alphabet
from urnchains.spaces import IndexSet, tuple_space
from urnchains.stoch import permute_tuple_columns, symmetrization_average

F = Fraction
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)

# zero half of the time, so that empty rows and all-zero matrices come up often
_values = st.one_of(st.just(F(0)), st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


def _dense(nrows, ncols, values=_values):
    return st.lists(
        st.lists(values, min_size=ncols, max_size=ncols).map(tuple),
        min_size=nrows,
        max_size=nrows,
    ).map(tuple)


_dims = st.integers(1, 4)


def _assert_canonical(rows):
    for row in rows:
        assert type(row) is dict
        assert list(row) == sorted(row), f"unsorted columns in {row}"
        assert all(row.values()), f"stored zero in {row}"


@PROPERTY
@given(st.tuples(_dims, _dims, _dims).flatmap(lambda d: st.tuples(_dense(d[0], d[1]), _dense(d[1], d[2]))))
@example((((F(0), F(0)),), ((F(1),), (F(2),))))
def test_matmul_matches_the_dense_product(case):
    a, b = case
    product = matmul(sparse(a), sparse(b))
    _assert_canonical(product)
    assert dense(product, len(b[0])) == mm(a, b)


@PROPERTY
@given(st.tuples(_dims, _dims, _dims, _dims).flatmap(
    lambda d: st.tuples(_dense(d[0], d[1]), _dense(d[2], d[3]))
))
def test_kron_matches_the_dense_kronecker_product(case):
    a, b = case
    product = kron(sparse(a), sparse(b), len(b[0]))
    _assert_canonical(product)
    assert dense(product, len(a[0]) * len(b[0])) == dense_kron(a, b)


@PROPERTY
@given(st.tuples(_dims, _dims).flatmap(lambda d: st.tuples(_dense(*d), _dense(*d))))
@example((((F(0), F(0)),), ((F(0), F(0)),)))
@example((((F(1), F(0)),), ((F(0), F(-3)),)))
def test_max_abs_diff_matches_the_dense_deviation(case):
    a, b = case
    assert max_abs_diff(sparse(a), sparse(b)) == dense_max_abs_diff(a, b)
    assert max_abs_diff(sparse(a), sparse(a)) == 0


@st.composite
def _systems(draw):
    """(e, b): b = m . e for a random m, or a random b of e's width."""
    r, c, q = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    e = draw(_dense(r, c))
    b = mm(draw(_dense(q, r)), e) if draw(st.booleans()) else draw(_dense(q, c))
    return e, b


@PROPERTY
@given(_systems())
# underdetermined: the rows of e are dependent
@example((((F(1), F(0)), (F(2), F(0))), ((F(1), F(0)),)))
# inconsistent: b is outside the row space of e
@example((((F(1), F(0)),), ((F(0), F(1)),)))
def test_solve_right_matches_the_dense_solve(case):
    e, b = case
    expected = dense_solve_right(e, b)
    if isinstance(expected, str):
        with pytest.raises(LinearSolveError, match=expected):
            solve_right(sparse(e), sparse(b))
        return
    solved = solve_right(sparse(e), sparse(b))
    _assert_canonical(solved)
    assert dense(solved, len(e)) == expected


@st.composite
def _permuted_rows(draw):
    k, n = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    space = tuple_space(Alphabet(("a", "b")[:k]), n)
    rows = draw(_dense(draw(_dims), len(space)))
    return space, rows, draw(st.permutations(range(n)))


@PROPERTY
@given(_permuted_rows())
def test_permute_tuple_columns_matches_the_dense_permutation(case):
    space, rows, perm = case
    permuted = permute_tuple_columns(sparse(rows), space, tuple(perm))
    _assert_canonical(permuted)
    assert dense(permuted, len(space)) == dense_permute_columns(rows, space.labels, perm)


def test_a_negative_entry_is_refused():
    space = IndexSet("x", (0, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        Matrix(space, space, ({0: F(1), 1: F(-1, 2)}, {}))


def test_a_dense_row_is_refused():
    space = IndexSet("x", (0, 1))
    with pytest.raises(ValueError, match="dict, not a tuple"):
        Matrix(space, space, ({0: F(1)}, (F(0), F(1))))


@pytest.mark.parametrize(
    "entries, message",
    [
        (({0: F(1)}, {5: F(1)}), "must lie in 0..1"),
        (({0: F(1)}, {-1: F(1)}), "must lie in 0..1"),
        (({0: F(1)}, {1: F(1), 0: F(1)}), "must ascend"),
        (({0: F(1)}, {0: F(1), 1: F(0)}), "only nonzero entries"),
        (({0: F(1)}, {0: 0}), "only nonzero entries"),
        # an out-of-range column, an unsorted row and a stored zero at once
        (({5: 1, 0: 1}, {1: 0}), "must ascend"),
    ],
    ids=["past-the-width", "negative-column", "unsorted", "stored-zero", "stored-int-zero", "all-three"],
)
def test_a_malformed_sparse_row_is_refused(entries, message):
    space = IndexSet("x", (0, 1))
    with pytest.raises(ValueError, match=message):
        Matrix(space, space, entries)


def test_build_stores_no_zero_and_sorts_columns():
    space = IndexSet("x", ("p", "q", "r"))
    m = Matrix.build(space, space, lambda label: {"r": F(1), "p": F(0), "q": F(2)})
    assert m.entries == ({1: F(2), 2: F(1)},) * 3


@pytest.mark.parametrize("symbols", [("a",), ("a", "b"), ("a", "b", "c")], ids=len)
@pytest.mark.parametrize("n", range(6))
def test_symmetrization_average_equals_the_sum_over_all_permutations(symbols, n):
    kernel = symmetrization_average(Alphabet(symbols), n)
    oracle = symmetrization_oracle(len(symbols), n)
    table = {
        t: {kernel.target.labels[j]: v for j, v in row.items()}
        for t, row in zip(kernel.source.labels, kernel.entries)
    }
    assert table == oracle
    _assert_canonical(kernel.entries)

"""Exact bang tables on integer numerators, against plain Fraction oracles.

`moments.embed_mixing_measure` builds exact tables over common
denominators and holds them as ints over one scale, and
`moments.check_totality` runs the recurrence of an exact table on ints, both
one size block at a time.
These tests compare both, and the `_monomial` tables of `pcoh.promotion`,
with term-by-term Fraction arithmetic and with label-by-label oracles that
look every parent and successor up in the web, check that float inputs
to the embedding still take the `_monomial` loop, that every exact table is
held over one scale, whichever producer builds it, and that it reads, checks
and writes as its table of Fractions does.
"""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bang_json_oracle, label_by_label_totality, parent_step_mixture, promotion_mixture_oracle, totality_oracle
)
from urnchains import jsonio
from urnchains._linalg import ZERO, _monomial
from urnchains.chains import build_dd_chain, pcoh_ground_copointed
from urnchains.moments import (
    MomentProblemError, TotalityReport, bang_from_moments, check_totality, cone_from_total_element, damp,
    embed_mixing_measure, moment_sequence, recover_measure,
)
from urnchains.multiset import Alphabet
from urnchains.pcoh import BangElement, PcsVector, promotion, restrict_to_depth
from urnchains.spaces import bounded_multiset_space, multiset_space, symbol_space
from urnchains.stoch import AtomicMeasure, ProbVector

F = Fraction
SYMBOLS = ("a", "b", "c", "d")

unit_fractions = st.builds(lambda a, b: F(min(a, b), b), st.integers(0, 30), st.integers(1, 30))


@st.composite
def simplex_points(draw, k):
    """A proper point of the k-simplex whose coordinates may have unrelated
    denominators and may be zero."""
    cuts = sorted(draw(st.lists(unit_fractions, min_size=k - 1, max_size=k - 1)))
    edges = [F(0), *cuts, F(1)]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


@st.composite
def mixings(draw, k):
    """(point, weight) pairs of 0-3 atoms whose weights sum to at most 1."""
    n = draw(st.integers(0, 3))
    points = [draw(simplex_points(k)) for _ in range(n)]
    weights = draw(st.lists(unit_fractions, min_size=n, max_size=n))
    total = sum(weights, start=F(0))
    if total > 1:
        weights = [w / total for w in weights]
    return list(zip(points, weights))


def count_vectors(k, depth):
    return [mu for mu in itertools.product(range(depth + 1), repeat=k) if sum(mu) <= depth]


def measure(alphabet, atoms):
    return AtomicMeasure(tuple((ProbVector(alphabet, p), w) for p, w in atoms))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 6), mixings(k))))
def test_exact_embedding_matches_the_fraction_oracle(case):
    k, depth, atoms = case
    alphabet = Alphabet(SYMBOLS[:k])
    b = embed_mixing_measure(measure(alphabet, atoms), depth, alphabet=alphabet)
    assert dict(zip(b.web.labels, b.coeffs)) == promotion_mixture_oracle(atoms, count_vectors(k, depth))
    assert all(type(v) is Fraction for v in b.coeffs)
    assert b.coeffs == parent_step_mixture(b.web, atoms)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 6), simplex_points(k + 1))))
def test_exact_promotion_matches_the_fraction_oracle(case):
    # the first k coordinates of a point of the (k+1)-simplex: a subdistribution
    k, depth, point = case
    x = PcsVector(symbol_space(Alphabet(SYMBOLS[:k])), point[:k])
    b = promotion(x, depth)
    assert dict(zip(b.web.labels, b.coeffs)) == promotion_mixture_oracle(
        [(point[:k], 1)], count_vectors(k, depth)
    )
    assert all(type(v) is Fraction for v in b.coeffs)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 6), mixings(k))),
    st.data(),
)
def test_exact_totality_matches_the_fraction_recurrence(case, data):
    # perturbing a coefficient by delta moves the defect of the coefficient
    # and of each of its predecessors by delta, so equal defects are common
    k, depth, atoms = case
    alphabet = Alphabet(SYMBOLS[:k])
    base = embed_mixing_measure(measure(alphabet, atoms), depth, alphabet=alphabet)
    coeffs = list(base.coeffs)
    bumps = st.tuples(st.integers(0, len(coeffs) - 1), st.sampled_from([F(1, 7), F(2, 7), F(1, 3)]))
    for i, delta in data.draw(st.lists(bumps, max_size=4)):
        coeffs[i] += delta
    b = BangElement.of(alphabet, depth, coeffs)
    worst, witness, lhs, rhs = totality_oracle(dict(zip(b.web.labels, coeffs)), b.web.labels, depth)
    report = check_totality(b)
    assert report == TotalityReport(worst == 0, worst, witness, lhs, rhs)
    assert all(type(v) is Fraction for v in (report.defect, report.lhs or F(0), report.rhs or F(0)))
    # an explicit tolerance at the worst defect accepts the table and reports that defect
    assert check_totality(b, tol=worst) == TotalityReport(True, worst, None)


def _bits(values):
    return [(type(v), repr(v)) for v in values]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 6), mixings(k))),
    st.booleans(),
    st.booleans(),
)
def test_float_embedding_is_the_monomial_loop(case, float_points, float_weights):
    k, depth, atoms = case
    alphabet = Alphabet(SYMBOLS[:k])
    atoms = [
        (tuple(map(float, p)) if float_points else p, float(w) if float_weights else w)
        for p, w in atoms
    ]
    b = embed_mixing_measure(measure(alphabet, atoms), depth, alphabet=alphabet)
    expected = [ZERO] * len(b.web)
    for point, w in atoms:
        for i, counts in enumerate(b.web.labels):
            expected[i] += _monomial(point, counts, w if float_weights else F(w))
    assert _bits(b.coeffs) == _bits(expected)


def _report_bits(report):
    return [(type(v), repr(v)) for v in (report.total, report.defect, report.witness, report.lhs, report.rhs)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 6), mixings(k))),
    st.sampled_from(["exact", "float", "mixed"]),
    st.data(),
)
def test_block_totality_matches_the_label_by_label_oracle(case, kind, data):
    # bumps by equal deltas tie defects within and across size blocks; float
    # and mixed Fraction-and-float tables take the float path
    k, depth, atoms = case
    alphabet = Alphabet(SYMBOLS[:k])
    coeffs = list(embed_mixing_measure(measure(alphabet, atoms), depth, alphabet=alphabet).coeffs)
    bumps = st.tuples(st.integers(0, len(coeffs) - 1), st.sampled_from([F(1, 7), F(2, 7), F(1, 3)]))
    for i, delta in data.draw(st.lists(bumps, max_size=4)):
        coeffs[i] += delta
    if kind != "exact":
        floats = data.draw(st.lists(st.booleans(), min_size=len(coeffs), max_size=len(coeffs)))
        coeffs = [float(v) if kind == "float" or f else v for v, f in zip(coeffs, floats)]
    b = BangElement.of(alphabet, depth, coeffs)
    assert _report_bits(check_totality(b)) == _report_bits(label_by_label_totality(b))
    tol = data.draw(st.sampled_from([None, F(1, 7), 1e-9]))
    assert _report_bits(check_totality(b, tol)) == _report_bits(label_by_label_totality(b, tol))


@pytest.mark.parametrize(
    "bumped, witness, lhs, rhs",
    [
        # defects 1/7 at [a] and [b]: the first in web order is [a]
        ([(2, 0), (0, 2)], (1, 0), F(1, 2), F(1, 2) + F(1, 7)),
        # defects 1/7 at [] and at [b], across two size blocks: [] comes first
        ([(0, 1)], (0, 0), F(1), F(8, 7)),
    ],
    ids=["one-block", "two-blocks"],
)
def test_tied_worst_defects_report_the_first_in_web_order(bumped, witness, lhs, rhs):
    alphabet = Alphabet(SYMBOLS[:2])
    b = embed_mixing_measure(measure(alphabet, [((F(1, 2), F(1, 2)), F(1))]), 2)
    coeffs = [v + F(1, 7) if mu in bumped else v for mu, v in zip(b.web.labels, b.coeffs)]
    b = BangElement.of(alphabet, 2, coeffs)
    assert check_totality(b) == TotalityReport(False, F(1, 7), witness, lhs, rhs)
    assert check_totality(b) == label_by_label_totality(b)


# -- tables held as ints over one scale ---------------------------------------------------

def _outcome(f, *args):
    """f(*args), or the message of the MomentProblemError it raises."""
    try:
        return f(*args)
    except MomentProblemError as exc:
        return str(exc)


def _legs(b, chain):
    cone = _outcome(cone_from_total_element, b, chain)
    return cone if isinstance(cone, str) else (cone.legs, cone.kind)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 4), mixings(k))))
@example((2, 3, [((F(1, 3), F(2, 3)), F(1, 2)), ((F(1), F(0)), F(1, 2))]))  # total, so recovered
def test_a_scaled_table_reads_and_checks_as_its_fractions_do(case):
    k, depth, atoms = case
    alphabet = Alphabet(SYMBOLS[:k])
    scaled = embed_mixing_measure(measure(alphabet, atoms), depth, alphabet=alphabet)
    assert all(type(v) is int for v in scaled.table)
    assert math.gcd(scaled.scale, *scaled.table) == 1  # the scale is the lcm of the denominators
    assert all(type(v) is Fraction for v in scaled.coeffs)
    # the same coefficients in term-by-term Fraction arithmetic, and the element `of` builds from them
    labels = scaled.web.labels
    fractions = promotion_mixture_oracle(atoms, labels)
    plain = BangElement.of(alphabet, depth, [fractions[mu] for mu in labels])
    assert plain.scale == scaled.scale and plain.coeffs == scaled.coeffs
    assert plain == scaled
    for counts in labels:
        assert type(scaled.at(counts)) is Fraction and scaled.at(counts) == fractions[counts]
    for n in range(depth + 1):
        web = bounded_multiset_space(alphabet, n)
        assert restrict_to_depth(scaled, n) == PcsVector(web, tuple(fractions[mu] for mu in web.labels))
    damped = damp(scaled, F(2, 3))
    assert damped.coeffs == tuple(F(2, 3) ** sum(mu) * fractions[mu] for mu in labels)
    assert check_totality(scaled) == _fraction_report(fractions, labels, depth)
    assert check_totality(scaled, F(1, 7)) == _fraction_report(fractions, labels, depth, F(1, 7))
    chain = build_dd_chain(pcoh_ground_copointed(alphabet), min(depth, 2))
    report = _fraction_report(fractions, labels, depth)
    legs = [
        ({j: fractions[mu] for j, mu in enumerate(multiset_space(alphabet, n).labels) if fractions[mu]},)
        for n in range(chain.depth + 1)
    ]
    assert _legs(scaled, chain) == ((legs, "dd") if report.total else f"element is {report}")
    if k < 3 and depth < 4:
        assert _outcome(recover_measure, scaled, 4) == _outcome(recover_measure, plain, 4)


def _fraction_report(fractions, labels, depth, tol=0):
    """check_totality's report on the Fraction table, from `totality_oracle`."""
    worst, witness, lhs, rhs = totality_oracle(fractions, labels, depth)
    if worst <= tol:
        return TotalityReport(True, worst, None)
    return TotalityReport(False, worst, witness, lhs, rhs)


def test_an_exact_table_without_a_scale_is_refused():
    alphabet = Alphabet(SYMBOLS[:2])
    for table in [(1, 0, 0), (F(1), F(1, 2), F(1, 2))]:
        with pytest.raises(ValueError, match="an exact table needs a scale"):
            BangElement(alphabet, 1, table)
    # the sign is checked first
    with pytest.raises(ValueError, match="coefficients must be nonnegative"):
        BangElement(alphabet, 1, (1, -1, 0))
    # a table holding a float is a float table, kept as given
    mixed = BangElement(alphabet, 1, (1, 0.5, F(1, 2)))
    assert mixed.scale is None and mixed.coeffs == mixed.table == (1, 0.5, F(1, 2))
    assert BangElement.of(alphabet, 1, mixed.table) == mixed


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, 6), simplex_points(k), mixings(k))
    ),
    unit_fractions,
)
@example((2, 3, (F(1, 3), F(2, 3)), []), F(1, 2))
def test_one_table_is_one_element_whichever_producer_builds_it(case, p):
    # elements compare field by field, so each exact table must have one form
    k, depth, point, atoms = case
    alphabet = Alphabet(SYMBOLS[:k])
    b = promotion(PcsVector(symbol_space(alphabet), point), depth)
    assert b == embed_mixing_measure(AtomicMeasure.dirac(ProbVector(alphabet, point)), depth)
    if k == 2:
        assert bang_from_moments(moment_sequence(b), alphabet) == b
    scaled = embed_mixing_measure(measure(alphabet, atoms), depth, alphabet=alphabet)
    damped = [p ** sum(mu) * v for mu, v in zip(scaled.web.labels, scaled.coeffs)]
    assert damp(scaled, p) == BangElement.of(alphabet, depth, damped)


@pytest.mark.parametrize("table, scale", [((1, -1, 0), 1), ((2, -1, 0), 3)], ids=["unit-scale", "scale-3"])
def test_a_negative_scaled_entry_is_refused(table, scale):
    with pytest.raises(ValueError, match="coefficients must be nonnegative"):
        BangElement(Alphabet(SYMBOLS[:2]), 1, table, scale)


@pytest.mark.parametrize("table, scale", [((2, 2, 0), 2), ((1, 0, 0), 0)], ids=["common-factor", "zero"])
def test_a_scale_that_is_not_the_lcm_of_the_denominators_is_refused(table, scale):
    with pytest.raises(ValueError, match="is not the lcm"):
        BangElement(Alphabet(SYMBOLS[:2]), 1, table, scale)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 5), mixings(k))),
    st.sampled_from(["exact", "float"]),
)
def test_the_writer_writes_a_scaled_table_as_json_dump_of_the_oracle(case, mode):
    k, depth, atoms = case
    alphabet = Alphabet(SYMBOLS[:k])
    b = embed_mixing_measure(measure(alphabet, atoms), depth, alphabet=alphabet)
    assert b.scale is not None
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        jsonio.dump_json(b, None, mode=mode)
    assert stdout.getvalue() == json.dumps(bang_json_oracle(b, mode), indent=2, sort_keys=True) + "\n"

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense, dense_rows, entry, mm, sparse, vertex_oracle_inside
from urnchains._linalg import compose, solve_right
from urnchains.chains import Backend, pcoh_ground_copointed
from urnchains.multiset import BOOL, Alphabet, multinomial
from urnchains.pcoh import (
    BangElement,
    Pcs,
    PcsMatrix,
    PcsVector,
    WebConditionError,
    biorthogonal_membership,
    bool_pcs,
    canonical_section,
    eq_delta,
    ground_pcs,
    multinomial_embedding,
    multiset_pcs,
    promotion,
    restrict_to_depth,
    with_unit_pcs,
)
from urnchains.spaces import bounded_multiset_space, symbol_space, tuple_space
from urnchains.stoch import discard_kernel, eq_kernel, permute_tuple_columns

F = Fraction
GROUND = bool_pcs()
WEB = GROUND.web
# the tensor square of GROUND: its generators e_x (x) e_y are the unit
# vectors on the pairs, so it is the ground space on them
GROUND_SQUARE = ground_pcs(Alphabet.of("tt", "tf", "ft", "ff"))


def _dd_inclusion(alphabet, n):
    # the delta-coordinate draw-and-delete step of the ground chain
    cop = pcoh_ground_copointed(alphabet)
    return cop.backend.dd_closed_form(cop.weaken, n)


# -- biorthogonality ------------------------------------------------------------

def test_biorthogonal_membership_examples():
    gen = GROUND.generators[0]
    assert biorthogonal_membership(GROUND.generators, gen).inside
    over = biorthogonal_membership(GROUND.generators, PcsVector.of(WEB, 1, "1/2"))
    assert not over.inside
    assert over.optimum == F(3, 2)
    assert over.witness.coeffs == (F(1), F(1))
    # convex combination of generators stays inside
    mix = PcsVector.of(WEB, "1/3", "2/3")
    assert biorthogonal_membership(GROUND.generators, mix).inside


def test_biorthogonal_unbounded_signals_web_violation():
    gens = [PcsVector.of(WEB, 1, 0)]  # second coordinate unsupported
    with pytest.raises(WebConditionError):
        biorthogonal_membership(gens, PcsVector.of(WEB, 0, 1))


# -- ground spaces -----------------------------------------------------------------

def test_ground_pcs_bool():
    assert [g.coeffs for g in GROUND.generators] == [(F(1), F(0)), (F(0), F(1))]
    assert GROUND.contains(PcsVector.of(WEB, "1/2", "1/4")).inside


def test_singleton_ground_is_unit_interval():
    one = ground_pcs(Alphabet.of("x"))
    assert one.contains(PcsVector.of(one.web, "7/10")).inside
    assert not one.contains(PcsVector.of(one.web, "6/5")).inside


def test_with_unit_adds_independent_unit_coordinate():
    b1 = with_unit_pcs(GROUND)
    inside = PcsVector.of(b1.web, "1/2", "1/2", 1)
    assert b1.contains(inside).inside
    over = PcsVector.of(b1.web, "1/2", "1/2", "3/2")
    assert not b1.contains(over).inside


# -- equaliser matrices ---------------------------------------------------------------

def test_eq_delta_places_coefficient_at_every_enumeration():
    eq = eq_delta(BOOL, 2)
    assert entry(eq, (1, 1), (0, 1)) == 1
    assert entry(eq, (1, 1), (1, 0)) == 1
    assert entry(eq, (2, 0), (1, 1)) == 0


def test_eq_delta_n1_identity_and_swap_invariance():
    eq1 = eq_delta(BOOL, 1)
    assert dense_rows(eq1) == ((F(1), F(0)), (F(0), F(1)))
    eq2 = eq_delta(BOOL, 2)
    for perm in itertools.permutations(range(2)):
        assert permute_tuple_columns(eq2.entries, eq2.target, perm) == eq2.entries


def test_canonical_section_splits_eq_delta():
    for n in range(4):
        eq = eq_delta(BOOL, n)
        sec = canonical_section(BOOL, n)
        prod = mm(dense_rows(eq), dense_rows(sec))
        assert all(
            prod[i][j] == (1 if i == j else 0)
            for i in range(len(prod))
            for j in range(len(prod))
        )


@pytest.mark.parametrize("negative", [F(-1, 10**30), -1, -1e-300])
def test_bang_element_refuses_a_negative_coefficient(negative):
    for v in (F(0), 0, 0.0, F(1, 10**30)):
        BangElement.of(BOOL, 1, (1, v, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        BangElement.of(BOOL, 1, (1, negative, 0))
    # a NaN before the negative value does not hide it
    with pytest.raises(ValueError, match="nonnegative"):
        BangElement.of(BOOL, 1, (float("nan"), negative, 0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("position", [0, 1])
def test_bang_element_refuses_a_non_finite_coefficient(bad, position):
    # check_totality keeps a defect only when it exceeds the worst, so a NaN
    # table would read "total (defect 0)"
    table = [1.0, 0.5, 0.5]
    table[position] = bad
    with pytest.raises(ValueError, match=f"coefficients must be finite, not {bad!r}"):
        BangElement.of(BOOL, 1, table)


def test_promotion_of_a_nan_vector_is_refused():
    # a NaN point would pass promotion's subdistribution check, and the
    # membership LP would answer "outside" with optimum nan; the vector
    # itself is refused
    with pytest.raises(ValueError, match="coefficients must be finite, not nan"):
        promotion(PcsVector(symbol_space(BOOL), (float("nan"), 0.5)), 2)
    with pytest.raises(ValueError, match="coefficients must be finite, not nan"):
        GROUND.contains(PcsVector(symbol_space(BOOL), (float("nan"), 0.5)))
    with pytest.raises(ValueError, match="coefficients must be finite, not inf"):
        PcsVector(symbol_space(BOOL), (0.5, float("inf")))


def test_bang_element_leaves_the_fractions_of_a_float_table_unchecked():
    # isfinite would overflow on this Fraction
    assert BangElement.of(BOOL, 1, (1.0, F(10**400), F(1, 2))).table[1] == 10**400


# -- chain step matrices -----------------------------------------------------------------

def test_dd_inclusion_rows():
    dd = _dd_inclusion(BOOL, 1)
    assert entry(dd, (1, 1), (1, 0)) == 1
    assert entry(dd, (1, 1), (0, 1)) == 1
    assert entry(dd, (2, 0), (1, 0)) == 1
    assert entry(dd, (2, 0), (0, 1)) == 0


def _ones_delete(alphabet, n):
    # (id^n (x) all-ones weakening) on tuple webs, built from first principles
    src, tgt = tuple_space(alphabet, n + 1), tuple_space(alphabet, n)
    rows = []
    for t in src.labels:
        row = [F(0)] * len(tgt)
        row[tgt.index(t[:n])] = F(1)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("alphabet", [BOOL, Alphabet.of("a", "b", "c")])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dd_inclusion_solves_defining_square_uniquely(alphabet, n):
    rhs = mm(dense_rows(eq_delta(alphabet, n + 1)), _ones_delete(alphabet, n))
    solved = solve_right(eq_delta(alphabet, n).entries, sparse(rhs))
    assert solved == _dd_inclusion(alphabet, n).entries


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dd_inclusion_conjugate_to_uniform_kernel(n):
    abc = Alphabet.of("a", "b", "c")
    incl = _dd_inclusion(abc, n)
    src_mult = [multinomial(c) for c in incl.source.labels]
    tgt_mult = [multinomial(c) for c in incl.target.labels]
    rows = dense_rows(incl)
    conj = tuple(
        tuple(rows[i][j] * tgt_mult[j] / src_mult[i] for j in range(len(tgt_mult)))
        for i in range(len(src_mult))
    )
    uniform = Backend.stoch(abc).dd_closed_form(discard_kernel(symbol_space(abc)), n)
    assert conj == dense_rows(uniform)


# -- symmetric powers -----------------------------------------------------------------------

def test_multiset_pcs_small_cases():
    m0 = multiset_pcs(GROUND, 0)
    assert m0.contains(PcsVector.of(m0.web, 1)).inside
    m1 = multiset_pcs(GROUND, 1)
    assert m1.contains(PcsVector.of(m1.web, "1/2", "1/3")).inside
    assert not m1.contains(PcsVector.of(m1.web, 1, "1/2")).inside


_SKEWED = PcsVector.of(WEB, 1, "1/2"), PcsVector.of(WEB, "1/3", 1)


@pytest.mark.parametrize(
    "space",
    [GROUND, ground_pcs(Alphabet.of("a", "b", "c")), with_unit_pcs(GROUND),
     with_unit_pcs(Pcs(WEB, _SKEWED, "skewed"))],
    ids=["bool", "abc", "bool-with-unit", "skewed-with-unit"],
)
def test_multiset_pcs_generators_are_the_tallied_tensor_products(space):
    # oracle: coefficient at mu of the image of g1 (x) ... (x) gn is the sum,
    # over the tuples t whose multiset is mu, of prod_j gj(t_j)
    k = len(space.web)
    for n in range(4):
        m = multiset_pcs(space, n)
        combos = list(itertools.combinations_with_replacement(space.generators, n))
        assert len(m.generators) == len(combos)
        for combo, g in zip(combos, m.generators):
            expected = dict.fromkeys(m.web.labels, F(0))
            for t in itertools.product(range(k), repeat=n):
                term = F(1)
                for gen, pos in zip(combo, t):
                    term *= gen.coeffs[pos]
                expected[tuple(t.count(a) for a in range(k))] += term
            assert g.coeffs == tuple(expected[mu] for mu in m.web.labels)
            assert all(type(v) is F for v in g.coeffs)


def test_multiset_pcs_binomial_point_inside():
    m2 = multiset_pcs(GROUND, 2)
    binom = PcsVector.of(m2.web, "1/4", "1/2", "1/4")
    assert m2.contains(binom).inside
    # oracle: push through the uniform-enumeration equaliser and test on the
    # tensor square
    pushed = mm((binom.coeffs,), dense_rows(eq_kernel(BOOL, 2)))[0]
    t2 = GROUND_SQUARE
    assert pushed == (F(1, 4),) * 4
    assert t2.contains(PcsVector(t2.web, tuple(pushed))).inside
    assert not m2.contains(PcsVector.of(m2.web, "1/2", "3/4", "1/2")).inside


# -- promotion and restriction -------------------------------------------------------------

def test_promotion_of_point_mass():
    b = promotion(PcsVector.of(WEB, 1, 0), 3)
    assert b.at((0, 0)) == 1 and b.at((3, 0)) == 1
    assert b.at((1, 1)) == 0 and b.at((0, 2)) == 0


def test_promotion_of_fair_coin():
    b = promotion(PcsVector.of(WEB, "1/2", "1/2"), 2)
    assert b.at((1, 1)) == F(1, 4)
    assert b.at((0, 0)) == 1


def test_promotion_of_zero():
    b = promotion(PcsVector.of(WEB, 0, 0), 2)
    assert b.at((0, 0)) == 1
    assert all(b.at(c) == 0 for c in b.web.labels if sum(c) > 0)


def test_promotion_rejects_overweight():
    with pytest.raises(ValueError):
        promotion(PcsVector.of(WEB, 1, "1/2"), 2)


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(0, 1, max_denominator=8),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_promotion_multiplicative(p, mu, nu):
    q = (1 - p) / 2
    b = promotion(PcsVector.of(WEB, p, q), 8)
    total = tuple(a + c for a, c in zip(mu, nu))
    assert b.at(total) == b.at(mu) * b.at(nu)


def test_restrict_to_depth_examples():
    x = PcsVector.of(WEB, "1/3", "1/3")
    b = promotion(x, 4)
    assert restrict_to_depth(b, 0).coeffs == (F(1),)
    assert restrict_to_depth(b, 2).coeffs == promotion(x, 2).coeffs
    with pytest.raises(ValueError):
        restrict_to_depth(b, 5)


# -- the multinomial embedding ----------------------------------------------------------------

def test_multinomial_embedding_small_entries():
    e1 = multinomial_embedding(BOOL, 1)
    assert entry(e1, (1, 0), (1, 0)) == 1
    assert entry(e1, (1, 0), (0, 0)) == 1
    assert entry(e1, (1, 0), (0, 1)) == 0
    e2 = multinomial_embedding(BOOL, 2)
    assert entry(e2, (1, 1), (0, 0)) == 2


def _pad_alpha_matrix(alphabet):
    # the pairing of the identity with the all-ones weakening, as raw rows
    k = len(alphabet)
    rows = []
    for i in range(k):
        row = [F(0)] * (k + 1)
        row[i] = F(1)
        row[k] = F(1)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("alphabet", [BOOL, Alphabet.of("a", "b", "c")])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_multinomial_embedding_is_the_unique_square_solution(alphabet, n):
    # unique M with M . eq_n^{padded} = eq_n^{ground} . alpha^n, pulled back
    # along star padding
    padded = alphabet.pad()
    alpha = _pad_alpha_matrix(alphabet)
    pow_rows = ((F(1),),)
    for _ in range(n):
        # Kronecker power with flat tuple ordering
        new = []
        for row in pow_rows:
            for arow in alpha:
                new.append(tuple(x * y for x in row for y in arow))
        pow_rows = tuple(new)
    rhs = mm(dense_rows(eq_delta(alphabet, n)), pow_rows)
    from urnchains.spaces import multiset_space

    full = multiset_space(padded, n)
    solved = dense(solve_right(eq_delta(padded, n).entries, sparse(rhs)), len(full))
    emb = dense_rows(multinomial_embedding(alphabet, n))
    bounded = bounded_multiset_space(alphabet, n)
    for i in range(len(emb)):
        for j, counts in enumerate(bounded.labels):
            padded_counts = counts + (n - sum(counts),)
            assert emb[i][j] == solved[i][full.index(padded_counts)]
        # columns not hit by the padding map must vanish
        hit = {counts + (n - sum(counts),) for counts in bounded.labels}
        for j, lab in enumerate(full.labels):
            if lab not in hit:
                assert solved[i][j] == 0


# -- membership vs vertex oracle ------------------------------------------------------------------

@pytest.mark.parametrize(
    "space,denominator",
    [(GROUND, 6), (GROUND_SQUARE, 4)],
)
def test_membership_agrees_with_vertex_enumeration(space, denominator):
    rng = random.Random(2024)
    gen_rows = [g.coeffs for g in space.generators]
    agree = 0
    for _ in range(100):
        x = tuple(F(rng.randint(0, denominator), denominator) for _ in space.web.labels)
        lib = biorthogonal_membership(space.generators, PcsVector(space.web, x))
        oracle_inside, oracle_best = vertex_oracle_inside(gen_rows, x)
        assert lib.inside == oracle_inside
        assert lib.optimum == oracle_best
        agree += 1
    assert agree == 100


# -- morphism certification -------------------------------------------------------------------------

def test_certify_uniform_equaliser_as_morphism():
    m2 = multiset_pcs(GROUND, 2)
    t2 = GROUND_SQUARE
    uniform = PcsMatrix(m2.web, t2.web, eq_kernel(BOOL, 2).entries)
    # a morphism maps every generator of the source into the target clique
    assert all(t2.contains(uniform.push(g)).inside for g in m2.generators)
    doubled = PcsMatrix(
        m2.web, t2.web, tuple({j: 2 * v for j, v in row.items()} for row in uniform.entries)
    )
    assert not all(t2.contains(doubled.push(g)).inside for g in m2.generators)


def test_compose_matches_plain_product():
    a = eq_delta(BOOL, 2)
    b = canonical_section(BOOL, 2)
    assert dense_rows(compose(a, b)) == mm(dense_rows(a), dense_rows(b))

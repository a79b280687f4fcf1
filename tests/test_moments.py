import random
from fractions import Fraction

import pytest

from helpers import dense, dense_rows, mm
from urnchains.moments import (
    MomentProblemError,
    MomentTable,
    bang_from_moments,
    check_totality,
    cone_from_total_element,
    damp,
    embed_mixing_measure,
    moment_sequence,
    recover_measure,
    simplex_grid,
    verify_embedding_squares,
)
from urnchains.multiset import BOOL, Alphabet
from urnchains.pcoh import PcsVector, promotion, multinomial_embedding
from urnchains.spaces import multiset_space, symbol_space
from urnchains.stoch import AtomicMeasure, ProbVector

F = Fraction
E_T = ProbVector.of(BOOL, 1, 0)
E_F = ProbVector.of(BOOL, 0, 1)
FAIR = ProbVector.of(BOOL, F(1, 2), F(1, 2))


# -- the embedding ------------------------------------------------------------------

def test_embed_dirac_is_promotion():
    mix = AtomicMeasure.dirac(ProbVector.of(BOOL, F(1, 3), F(2, 3)))
    b = embed_mixing_measure(mix, 4)
    p = promotion(PcsVector.of(symbol_space(BOOL), "1/3", "2/3"), 4)
    assert b.coeffs == p.coeffs


def test_embed_two_vertex_mixture_table():
    mix = AtomicMeasure.of((E_T, F(1, 2)), (E_F, F(1, 2)))
    b = embed_mixing_measure(mix, 2)
    expected = {
        (0, 0): F(1),
        (1, 0): F(1, 2),
        (0, 1): F(1, 2),
        (2, 0): F(1, 2),
        (1, 1): F(0),
        (0, 2): F(1, 2),
    }
    assert {c: b.at(c) for c in b.web.labels} == expected


def test_embed_zero_measure():
    b = embed_mixing_measure(AtomicMeasure(()), 3, alphabet=BOOL)
    assert all(v == 0 for v in b.coeffs)


def test_atoms_off_the_simplex_are_rejected():
    with pytest.raises(ValueError):
        AtomicMeasure.of((ProbVector.of(BOOL, F(1, 2), F(1, 4)), F(1)))
    with pytest.raises(ValueError):
        AtomicMeasure.of((E_T, F(2, 3)), (E_F, F(2, 3)))  # total weight > 1


# -- totality ------------------------------------------------------------------------

def test_probability_embeddings_are_total():
    rng = random.Random(4)
    for _ in range(10):
        a = F(rng.randint(0, 12), 12)
        atoms = (
            (ProbVector.of(BOOL, a, 1 - a), F(1, 4)),
            (ProbVector.of(BOOL, F(1, 3), F(2, 3)), F(3, 4)),
        )
        report = check_totality(embed_mixing_measure(AtomicMeasure.of(*atoms), 5))
        assert report.total and report.defect == 0


def test_subdistribution_promotion_fails_at_the_root():
    b = promotion(PcsVector.of(symbol_space(BOOL), "2/5", "2/5"), 2)
    report = check_totality(b)
    assert not report.total
    assert report.witness == (0, 0)
    assert report.lhs == 1 and report.rhs == F(4, 5)
    assert report.defect == F(1, 5)


def test_damped_element_defect_formula():
    b = embed_mixing_measure(AtomicMeasure.dirac(FAIR), 4)
    p = F(1, 2)
    report = check_totality(damp(b, p))
    assert not report.total
    # worst defect is (1-p) * coefficient at the empty multiset
    assert report.witness == (0, 0)
    assert report.defect == (1 - p) * b.at((0, 0))


def test_subprobability_mixing_fails_totality():
    mix = AtomicMeasure.of((E_T, F(1, 2)))
    report = check_totality(embed_mixing_measure(mix, 3))
    assert not report.total


# -- cone extraction -----------------------------------------------------------------------

def test_cone_legs_of_a_dirac_are_products():
    r = ProbVector.of(BOOL, F(1, 4), F(3, 4))
    b = embed_mixing_measure(AtomicMeasure.dirac(r), 3)
    cone = cone_from_total_element(b)
    assert cone.deviation() == 0
    leg2 = cone.legs[2]
    space = multiset_space(BOOL, 2)
    assert dense(leg2, len(space))[0][space.index((1, 1))] == F(1, 4) * F(3, 4)
    assert dense(leg2, len(space))[0][space.index((2, 0))] == F(1, 16)


def test_cone_legs_average_over_atoms():
    mix = AtomicMeasure.of((E_T, F(1, 2)), (FAIR, F(1, 2)))
    b = embed_mixing_measure(mix, 3)
    cone = cone_from_total_element(b)
    space = multiset_space(BOOL, 2)
    # coefficient at [t,t]: (1/2)*1 + (1/2)*(1/4)
    assert dense(cone.legs[2], len(space))[0][space.index((2, 0))] == F(5, 8)


def test_cone_rejects_non_total():
    with pytest.raises(MomentProblemError):
        cone_from_total_element(promotion(PcsVector.of(symbol_space(BOOL), "1/2", 0), 2))


# -- moment tables -----------------------------------------------------------------------------

def test_fair_coin_moments_are_dyadic():
    b = embed_mixing_measure(AtomicMeasure.dirac(FAIR), 4)
    table = moment_sequence(b)
    assert table.values == (F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16))
    rebuilt = bang_from_moments(table)
    assert rebuilt.at((1, 1)) == F(1, 4)
    assert rebuilt.coeffs == b.coeffs


def test_constant_moments_give_the_true_point_mass():
    table = MomentTable((F(1), F(1), F(1)))
    b = bang_from_moments(table)
    assert b.coeffs == promotion(PcsVector.of(symbol_space(BOOL), 1, 0), 2).coeffs
    for counts in b.web.labels:
        if counts[1] > 0:
            assert b.at(counts) == 0


def test_finite_difference_values_by_hand():
    # (-delta)^b at a for m = (1, 1/2, 1/2): c_{1,1} = 0 and c_{0,2} = 1/2
    table = MomentTable((F(1), F(1, 2), F(1, 2)))
    b = bang_from_moments(table)
    assert b.at((1, 1)) == 0
    assert b.at((0, 2)) == F(1, 2)


def test_non_monotone_sequence_rejected_at_named_entry():
    table = MomentTable((F(1), F(1, 2), F(1, 2), F(3, 5)))
    with pytest.raises(MomentProblemError, match=r"\(2, 1\)"):
        bang_from_moments(table)


def test_moment_table_requires_normalisation():
    with pytest.raises(ValueError):
        MomentTable((F(1, 2), F(1, 4)))


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_moment_round_trip_on_random_mixtures(n_atoms):
    rng = random.Random(n_atoms)
    atoms = []
    for _ in range(n_atoms):
        p = F(rng.randint(0, 10), 10)
        atoms.append((ProbVector.of(BOOL, p, 1 - p), F(1, n_atoms)))
    b = embed_mixing_measure(AtomicMeasure.of(*atoms), 6)
    assert bang_from_moments(moment_sequence(b)).coeffs == b.coeffs


# -- recovery ---------------------------------------------------------------------------------------

def test_recover_on_grid_dirac():
    b = embed_mixing_measure(AtomicMeasure.dirac(FAIR), 6)
    rec = recover_measure(b, 64, mode="float")
    assert rec.residual <= 1e-6
    for point, w in rec.measure.atoms:
        if w > 0.5:
            assert abs(float(point.weights[0]) - 0.5) <= 1 / 64


def test_recover_vertex_mixture_exactly():
    mix = AtomicMeasure.of((E_T, F(1, 3)), (E_F, F(2, 3)))
    b = embed_mixing_measure(mix, 4)
    rec = recover_measure(b, 8, mode="exact")
    assert rec.residual == 0
    atoms = {p.weights: w for p, w in rec.measure.atoms}
    assert atoms == {(F(1), F(0)): F(1, 3), (F(0), F(1)): F(2, 3)}


def test_recover_requires_totality():
    sub = promotion(PcsVector.of(symbol_space(BOOL), "2/5", "2/5"), 3)
    with pytest.raises(MomentProblemError):
        recover_measure(sub, 8)


@pytest.mark.parametrize(
    "refuse",
    [cone_from_total_element, moment_sequence, lambda b: recover_measure(b, 8)],
    ids=["cone", "moments", "recover"],
)
def test_non_total_refusal_says_not_total_once(refuse):
    sub = promotion(PcsVector.of(symbol_space(BOOL), "2/5", "2/5"), 3)
    with pytest.raises(MomentProblemError) as info:
        refuse(sub)
    assert str(info.value).startswith("element is not total: at (0, 0)")
    assert str(info.value).count("not total") == 1


def test_recover_off_grid_atom_improves_with_resolution():
    third = ProbVector.of(BOOL, F(1, 3), F(2, 3))
    b = embed_mixing_measure(AtomicMeasure.dirac(third), 6)
    res8 = recover_measure(b, 8, mode="float").residual
    res32 = recover_measure(b, 32, mode="float").residual
    assert res32 <= res8
    assert res32 <= 2e-3


def test_recover_three_atom_grid_mixing():
    mix = AtomicMeasure.of(
        (ProbVector.of(BOOL, F(1, 4), F(3, 4)), F(3, 10)),
        (ProbVector.of(BOOL, F(5, 8), F(3, 8)), F(1, 2)),
        (E_T, F(1, 5)),
    )
    b = embed_mixing_measure(mix, 6)
    rec = recover_measure(b, 64, mode="float")
    assert rec.residual <= 1e-6
    assert rec.diagnostic is None


def test_simplex_grid_is_proper():
    pts = simplex_grid(BOOL, 4)
    assert len(pts) == 5
    assert all(sum(p) == 1 for p in pts)


# -- embedding squares --------------------------------------------------------------------------------

def test_embedding_square_hand_case():
    p, q = F(2, 5), F(3, 5)
    mix = AtomicMeasure.dirac(ProbVector.of(BOOL, p, q))
    checks = verify_embedding_squares(mix, 2)
    assert all(d == 0 for d in checks)
    # by hand at level 2, entry [t]: p^2 * 1 + p*q * 1 = p
    b = embed_mixing_measure(mix, 2)
    leg = [b.at((2, 0)), b.at((1, 1)), b.at((0, 2))]
    emb = multinomial_embedding(BOOL, 2)
    pushed = mm((tuple(leg),), dense_rows(emb))[0]
    target = emb.target
    assert pushed[target.index((1, 0))] == p
    assert b.at((1, 0)) == p


def test_embedding_square_vertex_dirac_patterns():
    checks = verify_embedding_squares(AtomicMeasure.dirac(E_T), 3)
    assert all(d == 0 for d in checks)
    b = embed_mixing_measure(AtomicMeasure.dirac(E_T), 3)
    assert set(b.coeffs) <= {F(0), F(1)}


def test_embedding_square_random_rational_mixings():
    rng = random.Random(12)
    for _ in range(5):
        a, b_ = F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8)
        mix = AtomicMeasure.of(
            (ProbVector.of(BOOL, a, 1 - a), F(1, 3)),
            (ProbVector.of(BOOL, b_, 1 - b_), F(2, 3)),
        )
        assert all(d == 0 for d in verify_embedding_squares(mix, 4))


def test_embedding_square_three_symbols():
    abc = Alphabet.of("a", "b", "c")
    mix = AtomicMeasure.of(
        (ProbVector.of(abc, F(1, 2), F(1, 3), F(1, 6)), F(1, 2)),
        (ProbVector.of(abc, F(1, 4), F(1, 4), F(1, 2)), F(1, 2)),
    )
    assert all(d == 0 for d in verify_embedding_squares(mix, 3))


# -- injectivity at truncation -----------------------------------------------------------------------

def _canonical(measure: AtomicMeasure):
    merged = {}
    for p, w in measure.atoms:
        if w:
            merged[p.weights] = merged.get(p.weights, F(0)) + w
    return tuple(sorted(merged.items()))


def test_embedding_distinguishes_small_mixtures():
    # depth 6 determines mixtures with at most 3 atoms on two symbols
    rng = random.Random(99)
    depth = 6
    for _ in range(20):
        measures = []
        for _ in range(2):
            n_atoms = rng.randint(1, 3)
            weights = [rng.randint(1, 5) for _ in range(n_atoms)]
            total = sum(weights)
            atoms = []
            for w in weights:
                p = F(rng.randint(0, 20), 20)
                atoms.append((ProbVector.of(BOOL, p, 1 - p), F(w, total)))
            measures.append(AtomicMeasure.of(*atoms))
        m1, m2 = measures
        if _canonical(m1) == _canonical(m2):
            continue
        b1 = embed_mixing_measure(m1, depth)
        b2 = embed_mixing_measure(m2, depth)
        assert b1.coeffs != b2.coeffs

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import mm
from urnchains.multiset import BOOL, Alphabet
from urnchains.spaces import multiset_space, symbol_space, tuple_space, unit_space
from urnchains import stoch
from urnchains.stoch import (
    AtomicMeasure,
    FinKernel,
    ProbVector,
    adjacent_transpositions,
    all_perms,
    coeq_kernel,
    compose,
    dd_kernel,
    discard_kernel,
    empirical_law,
    eq_kernel,
    identity_kernel,
    multinomial_law,
    permute_tuple_columns,
    simulate_exchangeable,
    symmetrization_average,
    symmetry_kernel,
    tensor,
    urn_marginal_law,
    verify_equalises,
)
from urnchains.stoch import _STATE_CHUNK, _trial_states

F = Fraction
ABC = Alphabet.of("a", "b", "c")


def _random_stochastic(rng, space):
    rows = []
    for _ in space.labels:
        raw = [F(rng.randint(1, 6)) for _ in space.labels]
        s = sum(raw)
        rows.append(tuple(v / s for v in raw))
    return FinKernel(space, space, tuple(rows))


# -- composition and tensor ----------------------------------------------------

def test_compose_identity_and_substochastic_row():
    x = symbol_space(BOOL)
    f = FinKernel(unit_space(), x, ((F(1, 2), F(3, 10)),))
    assert compose(f, identity_kernel(x)).rows == f.rows
    assert f.kind == "substochastic"


def test_compose_requires_matching_spaces():
    x = symbol_space(BOOL)
    f = identity_kernel(x)
    g = identity_kernel(symbol_space(ABC))
    with pytest.raises(ValueError):
        compose(f, g)


def test_compose_associative_on_random_kernels():
    rng = random.Random(3)
    x = symbol_space(BOOL)
    f, g, h = (_random_stochastic(rng, x) for _ in range(3))
    assert compose(compose(f, g), h).rows == compose(f, compose(g, h)).rows
    assert compose(f, g).kind == "stochastic"


def test_tensor_identity_and_product_row():
    x = symbol_space(BOOL)
    assert tensor(identity_kernel(x), identity_kernel(x)).rows == identity_kernel(
        tensor(identity_kernel(x), identity_kernel(x)).source
    ).rows
    f = FinKernel(unit_space(), x, ((F(1), F(0)),))
    g = FinKernel(unit_space(), x, ((F(1, 2), F(1, 2)),))
    assert tensor(f, g).rows == ((F(1, 2), F(1, 2), F(0), F(0)),)


def test_tensor_bifunctorial():
    rng = random.Random(5)
    x = symbol_space(BOOL)
    f1, f2, g1, g2 = (_random_stochastic(rng, x) for _ in range(4))
    lhs = tensor(compose(f1, f2), compose(g1, g2))
    rhs = compose(tensor(f1, g1), tensor(f2, g2))
    assert lhs.rows == rhs.rows


# -- symmetries -------------------------------------------------------------------

def test_symmetry_identity_and_swap():
    assert symmetry_kernel(BOOL, 2, (0, 1)).rows == identity_kernel(
        tuple_space(BOOL, 2)
    ).rows
    swap = symmetry_kernel(BOOL, 2, (1, 0))
    assert swap.entry((0, 1), (1, 0)) == 1
    assert swap.entry((0, 1), (0, 1)) == 0


def test_symmetry_group_law():
    rng = random.Random(11)
    perms = list(all_perms(3))
    for _ in range(6):
        tau = rng.choice(perms)
        sigma = rng.choice(perms)
        composed = tuple(sigma[tau[i]] for i in range(3))
        lhs = compose(symmetry_kernel(BOOL, 3, tau), symmetry_kernel(BOOL, 3, sigma))
        assert lhs.rows == symmetry_kernel(BOOL, 3, composed).rows


# -- equaliser laws -----------------------------------------------------------------

def test_eq_coeq_n1_is_identity():
    assert eq_kernel(BOOL, 1).rows == identity_kernel(symbol_space(BOOL)).rows
    assert coeq_kernel(BOOL, 1).rows == identity_kernel(symbol_space(BOOL)).rows


def test_eq_spreads_uniformly():
    eq = eq_kernel(BOOL, 2)
    assert eq.entry((1, 1), (0, 1)) == F(1, 2)
    assert eq.entry((1, 1), (1, 0)) == F(1, 2)
    assert eq.entry((2, 0), (0, 0)) == 1


def test_eq_coeq_laws_by_hand_n2():
    eq, coeq = eq_kernel(BOOL, 2), coeq_kernel(BOOL, 2)
    assert compose(eq, coeq).rows == identity_kernel(eq.source).rows
    # hand oracle: average of the two symmetries on Bool^2
    half = F(1, 2)
    expected = (
        (F(1), F(0), F(0), F(0)),
        (F(0), half, half, F(0)),
        (F(0), half, half, F(0)),
        (F(0), F(0), F(0), F(1)),
    )
    assert compose(coeq, eq).rows == expected
    assert symmetrization_average(BOOL, 2).rows == expected


@pytest.mark.parametrize("alphabet,n", [(BOOL, 3), (BOOL, 4), (ABC, 3)])
def test_symmetrization_average_matches_composition(alphabet, n):
    assert (
        compose(coeq_kernel(alphabet, n), eq_kernel(alphabet, n))
        .deviation(symmetrization_average(alphabet, n))
        == 0
    )


# -- the draw-and-delete kernel -------------------------------------------------------

def test_dd_two_a_one_b_urn():
    dd = dd_kernel(ABC, 2)
    aab = (2, 1, 0)
    assert dd.entry(aab, (1, 1, 0)) == F(2, 3)  # remove an a
    assert dd.entry(aab, (2, 0, 0)) == F(1, 3)  # remove the b
    assert dd.entry(aab, (0, 2, 0)) == 0


def test_dd_size_zero():
    dd = dd_kernel(ABC, 0)
    for counts in dd.source.labels:
        assert dd.entry(counts, (0, 0, 0)) == 1


def _discard_last(alphabet, n):
    # test-local: delete the last coordinate of a tuple (unit weakening)
    src, tgt = tuple_space(alphabet, n + 1), tuple_space(alphabet, n)
    rows = []
    for t in src.labels:
        row = [F(0)] * len(tgt)
        row[tgt.index(t[:n])] = F(1)
        rows.append(tuple(row))
    return FinKernel(src, tgt, tuple(rows))


@pytest.mark.parametrize("alphabet", [BOOL, ABC])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dd_matches_composition_oracle(alphabet, n):
    # oracle: tally after discarding one coordinate of a uniform enumeration
    oracle = mm(
        mm(eq_kernel(alphabet, n + 1).rows, _discard_last(alphabet, n).rows),
        coeq_kernel(alphabet, n).rows,
    )
    assert dd_kernel(alphabet, n).rows == oracle


@pytest.mark.parametrize("alphabet", [BOOL, ABC])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dd_defining_square_exact(alphabet, n):
    lhs = mm(dd_kernel(alphabet, n).rows, eq_kernel(alphabet, n).rows)
    rhs = mm(eq_kernel(alphabet, n + 1).rows, _discard_last(alphabet, n).rows)
    assert lhs == rhs


# -- urn laws ------------------------------------------------------------------------

def test_multinomial_law_dirac():
    law = multinomial_law(ProbVector.of(BOOL, 1, 0), 3)
    assert law.rows[0] == (F(1), F(0), F(0), F(0))


def test_multinomial_law_binomial_expansion():
    law = multinomial_law(ProbVector.of(BOOL, F(1, 2), F(1, 2)), 2)
    assert law.rows[0] == (F(1, 4), F(1, 2), F(1, 4))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_multinomial_cone_law(n):
    r = ProbVector.of(BOOL, F(1, 3), F(2, 3))
    lhs = mm(multinomial_law(r, n + 1).rows, dd_kernel(BOOL, n).rows)
    assert lhs == multinomial_law(r, n).rows


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 3))
def test_multinomial_cone_law_random_rational_points(a, b, c, n):
    total = a + b + c
    if total == 0:
        a, total = 1, 1
    r = ProbVector.of(ABC, F(a, total), F(b, total), F(c, total))
    lhs = mm(multinomial_law(r, n + 1).rows, dd_kernel(ABC, n).rows)
    assert lhs == multinomial_law(r, n).rows


def test_multinomial_law_rejects_improper():
    with pytest.raises(ValueError):
        multinomial_law(ProbVector.of(BOOL, F(1, 2), F(1, 4)), 2)


# -- equalisation reports ---------------------------------------------------------------

def test_verify_equalises_eq_and_uniform():
    assert verify_equalises(eq_kernel(BOOL, 3), 3).max_deviation == 0
    tsp = tuple_space(BOOL, 2)
    uniform = FinKernel(unit_space(), tsp, ((F(1, 4),) * 4,))
    assert verify_equalises(uniform, 2).max_deviation == 0


def test_verify_equalises_point_mass_fails_with_swap_witness():
    tsp = tuple_space(BOOL, 2)
    point = FinKernel(
        unit_space(), tsp, ((F(0), F(1), F(0), F(0)),)
    )  # mass on (t,f)
    report = verify_equalises(point, 2)
    assert report.max_deviation == 1
    assert report.witness_perm == (1, 0)


def test_adjacent_transpositions():
    assert list(adjacent_transpositions(0)) == list(adjacent_transpositions(1)) == []
    assert list(adjacent_transpositions(4)) == [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]


@st.composite
def _tuple_kernels(draw):
    """Exact kernels from two points into a tuple space, symmetrised or perturbed."""
    alphabet = draw(st.sampled_from([BOOL, ABC]))
    n = draw(st.integers(0, 4 if alphabet is BOOL else 3))
    tsp = tuple_space(alphabet, n)
    rows = []
    for _ in range(2):
        raw = [draw(st.integers(0, 3)) for _ in tsp.labels]
        raw[draw(st.integers(0, len(tsp) - 1))] += 1
        rows.append(tuple(F(v, sum(raw)) for v in raw))
    f = FinKernel(symbol_space(BOOL), tsp, tuple(rows))
    f = compose(f, symmetrization_average(alphabet, n))
    if draw(st.booleans()):
        # move a little mass of one row between two tuples
        row = list(f.rows[0])
        i = draw(st.sampled_from([k for k, v in enumerate(row) if v]))
        j = draw(st.integers(0, len(tsp) - 1))
        eps = row[i] * F(draw(st.integers(1, 3)), 4)
        row[i] -= eps
        row[j] += eps
        f = FinKernel(f.source, tsp, (tuple(row), f.rows[1]))
    return alphabet, n, f


@settings(max_examples=60, deadline=None)
@given(_tuple_kernels())
def test_verify_equalises_agrees_with_every_symmetry(case):
    alphabet, n, f = case
    brute = all(
        compose(f, symmetry_kernel(alphabet, n, perm)) == f for perm in all_perms(n)
    )
    report = verify_equalises(f, n)
    assert report.equalises == brute
    if not brute:
        assert report.witness_perm in set(adjacent_transpositions(n))
        moved = compose(f, symmetry_kernel(alphabet, n, report.witness_perm))
        assert moved != f and moved.deviation(f) == report.max_deviation


def test_verify_equalises_compares_only_the_generators(monkeypatch):
    import urnchains.stoch as stoch

    calls = []

    def counting(rows, space, perm):
        calls.append(perm)
        return permute_tuple_columns(rows, space, perm)

    monkeypatch.setattr(stoch, "permute_tuple_columns", counting)
    assert verify_equalises(eq_kernel(BOOL, 6), 6).equalises
    assert calls == list(adjacent_transpositions(6))


# -- Monte Carlo ---------------------------------------------------------------------------

def _two_atom_mixing():
    return AtomicMeasure.of(
        (ProbVector.of(BOOL, F(1, 5), F(4, 5)), F(1, 2)),
        (ProbVector.of(BOOL, F(9, 10), F(1, 10)), F(1, 2)),
    )


def test_simulate_dirac_is_constant():
    mixing = AtomicMeasure.dirac(ProbVector.of(BOOL, 1, 0))
    assert simulate_exchangeable(mixing, 50, seed=1) == ["t"] * 50


def test_simulate_deterministic_given_seed():
    mixing = _two_atom_mixing()
    assert simulate_exchangeable(mixing, 200, seed=42) == simulate_exchangeable(
        mixing, 200, seed=42
    )


def test_simulate_frequency_concentrates_on_an_atom():
    mixing = _two_atom_mixing()
    for seed in range(5):
        seq = simulate_exchangeable(mixing, 10_000, seed=seed)
        freq = seq.count("t") / 10_000
        # 3-sigma binomial bound is ~0.012 < 0.02 at either atom
        assert min(abs(freq - 0.2), abs(freq - 0.9)) < 0.02


def test_simulate_rejects_subprobability():
    mixing = AtomicMeasure.of((ProbVector.of(BOOL, 1, 0), F(1, 2)))
    with pytest.raises(ValueError):
        simulate_exchangeable(mixing, 10, seed=0)


def test_empirical_law_mean_and_variance():
    mixing = AtomicMeasure.dirac(ProbVector.of(BOOL, F(1, 2), F(1, 2)))
    law = empirical_law(mixing, 1000, trials=1000, seed=3)
    m1 = law.moment("t", 1)
    assert abs(m1 - 0.5) < 0.01
    var = law.moment("t", 2) - m1 * m1
    assert abs(var - 0.25 / 1000) < 0.2 * 0.25 / 1000


def test_empirical_law_bimodal_for_two_atoms():
    mixing = _two_atom_mixing()
    law = empirical_law(mixing, 400, trials=400, seed=9)
    near_low = sum(
        c for counts, c in law.histogram.items() if abs(counts[0] / 400 - 0.2) < 0.05
    )
    near_high = sum(
        c for counts, c in law.histogram.items() if abs(counts[0] / 400 - 0.9) < 0.05
    )
    assert near_low + near_high >= 392  # ~2.5 sigma windows catch 98%+
    assert near_low > 120 and near_high > 120


def test_empirical_law_deterministic():
    mixing = _two_atom_mixing()
    a = empirical_law(mixing, 100, trials=200, seed=5).histogram
    b = empirical_law(mixing, 100, trials=200, seed=5).histogram
    assert a == b


def _per_trial_rng(seed, trial):
    # the reference stream: a fresh generator per trial
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(
        st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3]),
        st.integers(0, 2**200),
    ),
    trials=st.integers(1, 3 * _STATE_CHUNK + 2),
    picks=st.lists(st.integers(0, 2**32), max_size=4),
)
def test_trial_states_match_numpy_seed_sequence(seed, trials, picks):
    states = list(_trial_states(seed, trials))
    assert len(states) == trials
    # both sides of every chunk boundary, the last trial and a few others
    near = {b + d for b in range(0, trials + 1, _STATE_CHUNK) for d in (-1, 0, 1)}
    for t in sorted({t for t in near if 0 <= t < trials} | {p % trials for p in picks}):
        expected = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(t,))).state
        assert states[t] == expected


def test_trial_states_refuse_what_numpy_refuses_and_check_numpy(monkeypatch):
    with pytest.raises(ValueError):
        _trial_states(-1, 3)
    with pytest.raises(TypeError):
        _trial_states(1.5, 3)
    monkeypatch.setattr(stoch, "_PCG64_MULT", stoch._PCG64_MULT + 2)
    with pytest.raises(RuntimeError, match=np.__version__):
        _trial_states(0, 3)


def test_empirical_law_matches_per_trial_generators():
    # exact and float weights; the atom is drawn by Generator.choice
    exact = AtomicMeasure.of(
        (ProbVector.of(ABC, F(1, 2), F(1, 3), F(1, 6)), F(1, 4)),
        (ProbVector.of(ABC, F(1, 10), F(3, 10), F(3, 5)), F(1, 3)),
        (ProbVector.of(ABC, F(1, 3), F(1, 3), F(1, 3)), F(5, 12)),
    )
    floats = AtomicMeasure(
        ((ProbVector(BOOL, (0.3, 0.7)), 0.1), (ProbVector(BOOL, (0.9, 0.1)), 0.9))
    )
    for mixing, n, seed in ((exact, 60, 4), (floats, 25, 2**70 + 5)):
        weights = np.asarray([float(w) for _, w in mixing.atoms])
        expected = Counter()
        for trial in range(_STATE_CHUNK + 7):
            rng = _per_trial_rng(seed, trial)
            atom = mixing.atoms[rng.choice(len(mixing.atoms), p=weights / weights.sum())][0]
            expected[tuple(int(c) for c in rng.multinomial(n, atom.as_floats()))] += 1
        assert empirical_law(mixing, n, _STATE_CHUNK + 7, seed).histogram == expected


def test_urn_marginal_law_matches_per_trial_generators():
    r = ProbVector.of(ABC, F(1, 3), F(1, 6), F(1, 2))
    start, stop, trials, seed = 5, 2, _STATE_CHUNK + 3, 17
    msp = multiset_space(ABC, start)
    masses = [float(v) for v in multinomial_law(r, start).rows[0]]
    expected = Counter()
    for trial in range(trials):
        rng = _per_trial_rng(seed, trial)
        counts = list(msp.labels[rng.choice(len(msp), p=masses)])
        for size in range(start, stop, -1):
            counts[rng.choice(len(counts), p=[c / size for c in counts])] -= 1
        expected[tuple(counts)] += 1
    assert urn_marginal_law(r, start, stop, trials, seed) == expected


def test_simulate_exchangeable_draws_the_atom_like_choice():
    mixing = _two_atom_mixing()
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        atom = mixing.atoms[rng.choice(2, p=np.array([0.5, 0.5]))][0]
        draws = rng.choice(2, size=30, p=atom.as_floats())
        assert simulate_exchangeable(mixing, 30, seed) == ["tf"[i] for i in draws]


def test_urn_chain_marginal_matches_multinomial_law():
    # draw a size-6 urn from the iid law, shrink to size 3, chi-square against
    # the size-3 law
    r = ProbVector.of(BOOL, F(1, 3), F(2, 3))
    trials = 10_000
    hist = urn_marginal_law(r, start=6, stop=3, trials=trials, seed=123)
    space = multiset_space(BOOL, 3)
    expected_masses = multinomial_law(r, 3).rows[0]
    observed = [hist.get(lab, 0) for lab in space.labels]
    expected = [float(m) * trials for m in expected_masses]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def test_discard_kernel_is_all_ones_column():
    d = discard_kernel(symbol_space(ABC))
    assert d.rows == ((F(1),), (F(1),), (F(1),))


def test_empirical_sample_invariant():
    from urnchains.stoch import EmpiricalSample

    s = EmpiricalSample((3, 7), 10)
    assert s.frequency == (0.3, 0.7)
    with pytest.raises(ValueError):
        EmpiricalSample((3, 6), 10)


def test_kernel_validation_rejects_bad_rows():
    x = symbol_space(BOOL)
    with pytest.raises(ValueError):
        FinKernel(x, x, ((F(1), F(1, 2)), (F(0), F(1))))  # row sum > 1
    with pytest.raises(ValueError):
        FinKernel(x, x, ((F(-1, 2), F(1)), (F(0), F(1))))  # negative entry
    with pytest.raises(ValueError):
        FinKernel(x, x, ((F(1), F(0)),))  # wrong row count

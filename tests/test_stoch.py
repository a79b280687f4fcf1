import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import dense_rows, entry, mm, sparse, symmetry_kernel, trial_states
from urnchains._linalg import compose, identity, kron, matmul
from urnchains.chains import Backend
from urnchains.multiset import BOOL, Alphabet
from urnchains.spaces import symbol_space, tuple_space, unit_space
from urnchains import stoch
from urnchains.stoch import (
    AtomicMeasure,
    FinKernel,
    ProbVector,
    adjacent_transpositions,
    coeq_kernel,
    discard_kernel,
    empirical_law,
    eq_kernel,
    multinomial_law,
    permute_tuple_columns,
    symmetrization_average,
    verify_equalises,
)
from urnchains.stoch import _STATE_CHUNK, _first_uniforms, _state_dicts, _trial_streams

F = Fraction
ABC = Alphabet.of("a", "b", "c")


def _random_stochastic(rng, space):
    rows = []
    for _ in space.labels:
        raw = [F(rng.randint(1, 6)) for _ in space.labels]
        s = sum(raw)
        rows.append(tuple(v / s for v in raw))
    return FinKernel(space, space, sparse(rows))


def _identity_kernel(space):
    return FinKernel(space, space, identity(len(space)))


def _dd(alphabet, n):
    # the uniform draw-and-delete step of the kernel-side chain
    return Backend.stoch(alphabet).dd_closed_form(discard_kernel(symbol_space(alphabet)), n)


# -- composition and tensor ----------------------------------------------------

def test_compose_identity_and_substochastic_row():
    x = symbol_space(BOOL)
    f = FinKernel(unit_space(), x, ({0: F(1, 2), 1: F(3, 10)},))
    assert dense_rows(compose(f, _identity_kernel(x))) == dense_rows(f)
    assert sum(dense_rows(f)[0]) < 1


def test_compose_requires_matching_spaces():
    x = symbol_space(BOOL)
    f = _identity_kernel(x)
    g = _identity_kernel(symbol_space(ABC))
    with pytest.raises(ValueError):
        compose(f, g)


def test_compose_associative_on_random_kernels():
    rng = random.Random(3)
    x = symbol_space(BOOL)
    f, g, h = (_random_stochastic(rng, x) for _ in range(3))
    assert dense_rows(compose(compose(f, g), h)) == dense_rows(compose(f, compose(g, h)))
    assert all(sum(row) == 1 for row in dense_rows(compose(f, g)))


def test_tensor_identity_and_product_row():
    # the tensor of kernels is the Kronecker product of their rows (DDChain.tensored)
    assert kron(identity(2), identity(2), 2) == identity(4)
    assert kron(({0: F(1)},), ({0: F(1, 2), 1: F(1, 2)},), 2) == ({0: F(1, 2), 1: F(1, 2)},)


def test_tensor_bifunctorial():
    rng = random.Random(5)
    x = symbol_space(BOOL)
    f1, f2, g1, g2 = (_random_stochastic(rng, x).entries for _ in range(4))
    # interchange law: (f1 then f2) (x) (g1 then g2) = (f1 (x) g1) then (f2 (x) g2)
    lhs = kron(matmul(f1, f2), matmul(g1, g2), 2)
    rhs = matmul(kron(f1, g1, 2), kron(f2, g2, 2))
    assert lhs == rhs


# -- symmetries -------------------------------------------------------------------

def test_symmetry_identity_and_swap():
    assert symmetry_kernel(BOOL, 2, (0, 1)).entries == identity(4)
    swap = symmetry_kernel(BOOL, 2, (1, 0))
    assert entry(swap, (0, 1), (1, 0)) == 1
    assert entry(swap, (0, 1), (0, 1)) == 0


def test_symmetry_group_law():
    rng = random.Random(11)
    perms = list(itertools.permutations(range(3)))
    for _ in range(6):
        tau = rng.choice(perms)
        sigma = rng.choice(perms)
        composed = tuple(sigma[tau[i]] for i in range(3))
        lhs = compose(symmetry_kernel(BOOL, 3, tau), symmetry_kernel(BOOL, 3, sigma))
        assert dense_rows(lhs) == dense_rows(symmetry_kernel(BOOL, 3, composed))


# -- equaliser laws -----------------------------------------------------------------

def test_eq_coeq_n1_is_identity():
    assert eq_kernel(BOOL, 1).entries == identity(2)
    assert coeq_kernel(BOOL, 1).entries == identity(2)


def test_eq_spreads_uniformly():
    eq = eq_kernel(BOOL, 2)
    assert entry(eq, (1, 1), (0, 1)) == F(1, 2)
    assert entry(eq, (1, 1), (1, 0)) == F(1, 2)
    assert entry(eq, (2, 0), (0, 0)) == 1


def test_eq_coeq_laws_by_hand_n2():
    eq, coeq = eq_kernel(BOOL, 2), coeq_kernel(BOOL, 2)
    assert compose(eq, coeq).entries == identity(len(eq.source))
    # hand oracle: average of the two symmetries on Bool^2
    half = F(1, 2)
    expected = (
        (F(1), F(0), F(0), F(0)),
        (F(0), half, half, F(0)),
        (F(0), half, half, F(0)),
        (F(0), F(0), F(0), F(1)),
    )
    assert dense_rows(compose(coeq, eq)) == expected
    assert dense_rows(symmetrization_average(BOOL, 2)) == expected


@pytest.mark.parametrize("alphabet,n", [(BOOL, 3), (BOOL, 4), (ABC, 3)])
def test_symmetrization_average_matches_composition(alphabet, n):
    assert (
        compose(coeq_kernel(alphabet, n), eq_kernel(alphabet, n))
        .deviation(symmetrization_average(alphabet, n))
        == 0
    )


# -- the draw-and-delete step -------------------------------------------------------

def test_dd_two_a_one_b_urn():
    dd = _dd(ABC, 2)
    aab = (2, 1, 0)
    assert entry(dd, aab, (1, 1, 0)) == F(2, 3)  # remove an a
    assert entry(dd, aab, (2, 0, 0)) == F(1, 3)  # remove the b
    assert entry(dd, aab, (0, 2, 0)) == 0


def test_dd_size_zero():
    dd = _dd(ABC, 0)
    for counts in dd.source.labels:
        assert entry(dd, counts, (0, 0, 0)) == 1


def _discard_last(alphabet, n):
    # test-local: delete the last coordinate of a tuple (unit weakening)
    src, tgt = tuple_space(alphabet, n + 1), tuple_space(alphabet, n)
    rows = []
    for t in src.labels:
        row = [F(0)] * len(tgt)
        row[tgt.index(t[:n])] = F(1)
        rows.append(tuple(row))
    return FinKernel(src, tgt, sparse(rows))


@pytest.mark.parametrize("alphabet", [BOOL, ABC])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dd_matches_composition_oracle(alphabet, n):
    # oracle: tally after discarding one coordinate of a uniform enumeration
    oracle = mm(
        mm(dense_rows(eq_kernel(alphabet, n + 1)), dense_rows(_discard_last(alphabet, n))),
        dense_rows(coeq_kernel(alphabet, n)),
    )
    assert dense_rows(_dd(alphabet, n)) == oracle


@pytest.mark.parametrize("alphabet", [BOOL, ABC])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dd_defining_square_exact(alphabet, n):
    lhs = mm(dense_rows(_dd(alphabet, n)), dense_rows(eq_kernel(alphabet, n)))
    rhs = mm(dense_rows(eq_kernel(alphabet, n + 1)), dense_rows(_discard_last(alphabet, n)))
    assert lhs == rhs


# -- urn laws ------------------------------------------------------------------------

def test_multinomial_law_dirac():
    law = multinomial_law(ProbVector.of(BOOL, 1, 0), 3)
    assert dense_rows(law)[0] == (F(1), F(0), F(0), F(0))


def test_multinomial_law_binomial_expansion():
    law = multinomial_law(ProbVector.of(BOOL, F(1, 2), F(1, 2)), 2)
    assert dense_rows(law)[0] == (F(1, 4), F(1, 2), F(1, 4))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_multinomial_cone_law(n):
    r = ProbVector.of(BOOL, F(1, 3), F(2, 3))
    lhs = mm(dense_rows(multinomial_law(r, n + 1)), dense_rows(_dd(BOOL, n)))
    assert lhs == dense_rows(multinomial_law(r, n))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 3))
def test_multinomial_cone_law_random_rational_points(a, b, c, n):
    total = a + b + c
    if total == 0:
        a, total = 1, 1
    r = ProbVector.of(ABC, F(a, total), F(b, total), F(c, total))
    lhs = mm(dense_rows(multinomial_law(r, n + 1)), dense_rows(_dd(ABC, n)))
    assert lhs == dense_rows(multinomial_law(r, n))


def test_multinomial_law_rejects_improper():
    with pytest.raises(ValueError):
        multinomial_law(ProbVector.of(BOOL, F(1, 2), F(1, 4)), 2)


# -- equalisation reports ---------------------------------------------------------------

def test_verify_equalises_eq_and_uniform():
    assert verify_equalises(eq_kernel(BOOL, 3), 3).max_deviation == 0
    tsp = tuple_space(BOOL, 2)
    uniform = FinKernel(unit_space(), tsp, sparse(((F(1, 4),) * 4,)))
    assert verify_equalises(uniform, 2).max_deviation == 0


def test_verify_equalises_point_mass_fails_with_swap_witness():
    tsp = tuple_space(BOOL, 2)
    point = FinKernel(unit_space(), tsp, ({1: F(1)},))  # mass on (t,f)
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
    f = FinKernel(symbol_space(BOOL), tsp, sparse(rows))
    f = compose(f, symmetrization_average(alphabet, n))
    if draw(st.booleans()):
        # move a little mass of one row between two tuples
        row = list(dense_rows(f)[0])
        i = draw(st.sampled_from([k for k, v in enumerate(row) if v]))
        j = draw(st.integers(0, len(tsp) - 1))
        eps = row[i] * F(draw(st.integers(1, 3)), 4)
        row[i] -= eps
        row[j] += eps
        f = FinKernel(f.source, tsp, sparse((row,)) + f.entries[1:])
    return alphabet, n, f


@settings(max_examples=60, deadline=None)
@given(_tuple_kernels())
def test_verify_equalises_agrees_with_every_symmetry(case):
    alphabet, n, f = case
    brute = all(
        compose(f, symmetry_kernel(alphabet, n, perm)).entries == f.entries
        for perm in itertools.permutations(range(n))
    )
    report = verify_equalises(f, n)
    assert report.equalises == brute
    if not brute:
        assert report.witness_perm in set(adjacent_transpositions(n))
        moved = compose(f, symmetry_kernel(alphabet, n, report.witness_perm))
        assert moved.entries != f.entries and moved.deviation(f) == report.max_deviation


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
    assert empirical_law(mixing, 50, trials=3, seed=1).histogram == {(50, 0): 3}


def test_simulate_rejects_subprobability():
    mixing = AtomicMeasure.of((ProbVector.of(BOOL, 1, 0), F(1, 2)))
    with pytest.raises(ValueError, match="probability mixing"):
        empirical_law(mixing, 10, trials=1, seed=0)


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
# seeds of more than four 32-bit words take the extra mixing rounds of
# _trial_streams on every run, whatever hypothesis draws
@example(seed=2**128 + 3, trials=_STATE_CHUNK + 2, picks=[7])
@example(seed=2**200 - 1, trials=2 * _STATE_CHUNK + 1, picks=[])
def test_trial_states_match_numpy_seed_sequence(seed, trials, picks):
    states = trial_states(seed, trials)
    assert len(states) == trials
    # both sides of every chunk boundary, the last trial and a few others
    near = {b + d for b in range(0, trials + 1, _STATE_CHUNK) for d in (-1, 0, 1)}
    for t in sorted({t for t in near if 0 <= t < trials} | {p % trials for p in picks}):
        expected = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(t,))).state
        assert states[t] == expected


@settings(max_examples=12, deadline=None)
@given(
    seed=st.one_of(
        st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3]),
        st.integers(0, 2**200),
    ),
    trials=st.sampled_from([1, _STATE_CHUNK - 1, _STATE_CHUNK, _STATE_CHUNK + 1, 2 * _STATE_CHUNK + 1]),
)
@example(seed=2**128 + 3, trials=2 * _STATE_CHUNK + 1)
@example(seed=2**32 - 1, trials=_STATE_CHUNK + 1)
def test_first_uniforms_and_states_after_them_match_numpy(seed, trials):
    # the bulk first draw of every trial: the atom-picking uniform, and the
    # state that the trial's multinomial draw starts from
    draws = []
    for hi, lo, inc_hi, inc_lo in _trial_streams(seed, trials):
        uniforms, hi, lo = _first_uniforms(hi, lo, inc_hi, inc_lo)
        draws += zip(uniforms.tolist(), _state_dicts(hi, lo, inc_hi, inc_lo))
    assert len(draws) == trials
    for t, (uniform, state) in enumerate(draws):
        rng = _per_trial_rng(seed, t)
        assert uniform == rng.random()
        assert state == rng.bit_generator.state


def test_trial_states_refuse_what_numpy_refuses_and_check_numpy(monkeypatch):
    with pytest.raises(ValueError):
        trial_states(-1, 3)
    with pytest.raises(TypeError):
        trial_states(1.5, 3)
    monkeypatch.setattr(stoch, "_PCG64_MULT", stoch._PCG64_MULT + 2)
    with pytest.raises(RuntimeError, match=np.__version__):
        trial_states(0, 3)


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


def test_discard_kernel_is_all_ones_column():
    d = discard_kernel(symbol_space(ABC))
    assert dense_rows(d) == ((F(1),), (F(1),), (F(1),))


def test_kernel_validation_rejects_bad_rows():
    x = symbol_space(BOOL)
    with pytest.raises(ValueError, match="row sum"):
        FinKernel(x, x, ({0: F(1), 1: F(1, 2)}, {1: F(1)}))
    with pytest.raises(ValueError, match="nonnegative"):
        FinKernel(x, x, ({0: F(-1, 2), 1: F(1)}, {1: F(1)}))
    with pytest.raises(ValueError, match="row count"):
        FinKernel(x, x, ({0: F(1)},))

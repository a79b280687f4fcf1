"""The finite fragment of the category of (sub)stochastic kernels.

Kernels are exact rational matrices indexed (source label, target label),
on the shared `_linalg.Matrix` base; `_linalg.compose(f, g)` is "f then g".
Everything structural (equalisers of the symmetry action on tuple spaces,
the multinomial urn laws) is exact; the draw-and-delete step between the
equalisers is `chains.Backend.dd_closed_form`.  The Monte Carlo law of
exchangeable prefixes uses 64-bit floats and explicit seeds.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._linalg import ONE, ZERO, Matrix, _monomial, frac, is_exact, max_abs_diff
from .multiset import (
    Alphabet,
    Multiset,
    enumerations,
    multinomial,
    multiset_of,
)
from .spaces import (
    IndexSet,
    multiset_space,
    tuple_space,
    unit_space,
)


@dataclass(frozen=True, eq=False)
class FinKernel(Matrix):
    """Substochastic kernel between finite index sets (exact rational entries)."""

    def __post_init__(self):
        super().__post_init__()
        for row in self.entries:
            total = sum(row.values(), ZERO)
            if total > 1:
                raise ValueError(f"row sum {total} exceeds 1")


def discard_kernel(space: IndexSet) -> FinKernel:
    """The unique kernel into the terminal one-point space (all-ones column)."""
    return FinKernel.build(space, unit_space(), lambda _: {"*": ONE})


# -- symmetries on tuple spaces ------------------------------------------

def apply_perm(perm: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Position permutation: entry i of t moves to position perm[i]."""
    out = [0] * len(t)
    for i, v in enumerate(t):
        out[perm[i]] = v
    return tuple(out)


def symmetry_kernel(alphabet: Alphabet, n: int, perm: tuple[int, ...]) -> FinKernel:
    """Deterministic kernel permuting tuple coordinates along perm."""
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    space = tuple_space(alphabet, n)
    return FinKernel.build(space, space, lambda t: {apply_perm(perm, t): ONE})


def permute_tuple_columns(rows: tuple, space: IndexSet, perm: tuple[int, ...]) -> tuple:
    """Sparse rows of (f then symmetry(perm)), for the sparse rows of f,
    without materialising the permutation matrix."""
    col_map = [space.index(apply_perm(perm, t)) for t in space.labels]
    return tuple(dict(sorted((col_map[j], v) for j, v in row.items())) for row in rows)


def adjacent_transpositions(n: int):
    """The n-1 transpositions swapping positions i and i+1, which generate S_n.

    A kernel is fixed by every coordinate symmetry iff it is fixed by each of
    these, so invariance checks need only n-1 comparisons instead of n!.
    """
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = i + 1, i
        yield tuple(perm)


# -- equaliser / coequaliser of the symmetry action -----------------------

def eq_kernel(alphabet: Alphabet, n: int) -> FinKernel:
    """Equaliser leg: multiset -> uniform distribution over its enumerations."""

    def row(counts):
        return dict.fromkeys(enumerations(Multiset(alphabet, counts)), Fraction(1, multinomial(counts)))

    return FinKernel.build(multiset_space(alphabet, n), tuple_space(alphabet, n), row)


def coeq_kernel(alphabet: Alphabet, n: int) -> FinKernel:
    """Coequaliser leg: tuple -> its multiset, deterministically."""
    return FinKernel.build(
        tuple_space(alphabet, n),
        multiset_space(alphabet, n),
        lambda t: {multiset_of(alphabet, t): ONE},
    )


def symmetrization_average(alphabet: Alphabet, n: int) -> FinKernel:
    """The kernel A_n = (1/n!) * sum over all n! coordinate symmetries, by the
    coset recursion A_m = (A_{m-1} (x) id) . (1/m)(id + sum_{i<m-1} (i m-1)),
    composition source-to-target: the identity and the transpositions of the
    last position are one representative per coset of S_{m-1} in S_m, so
    level m costs m terms per entry instead of m! in all."""
    rows = {(): {(): ONE}}  # A_0 on the one empty tuple
    for m in range(1, n + 1):
        prev, rows = rows, {}
        for t in tuple_space(alphabet, m).labels:
            acc = rows[t] = Counter()
            for u, v in prev[t[:-1]].items():
                w, x = v / m, t[-1]
                acc[u + (x,)] += w
                for i in range(m - 1):
                    acc[u[:i] + (x,) + u[i + 1 :] + (u[i],)] += w
    tsp = tuple_space(alphabet, n)
    return FinKernel.build(tsp, tsp, rows.__getitem__)


# -- urn laws --------------------------------------------------------------

def _sum_slack(values):
    """How far a probability sum of these values may pass 1: not at all when
    they are exact, by float round-off otherwise."""
    return 0 if is_exact(values) else 1e-12


@dataclass(frozen=True)
class ProbVector:
    """Point of the subsimplex over an alphabet; proper when weights sum to 1."""

    alphabet: Alphabet
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.alphabet):
            raise ValueError("weight vector length must match alphabet size")
        if any(w < 0 for w in self.weights):
            raise ValueError(f"negative weight in {self.weights}")
        if sum(self.weights, start=ZERO) > 1 + _sum_slack(self.weights):
            raise ValueError("weights sum beyond 1")

    @classmethod
    def of(cls, alphabet: Alphabet, *weights) -> "ProbVector":
        return cls(alphabet, tuple(frac(w) for w in weights))

    @property
    def is_proper(self) -> bool:
        return abs(sum(self.weights, start=ZERO) - 1) <= _sum_slack(self.weights)

    def weight(self, symbol: str):
        return self.weights[self.alphabet.index(symbol)]

    def as_floats(self) -> np.ndarray:
        return np.asarray([float(w) for w in self.weights], dtype=float)


def multinomial_law(r: ProbVector, n: int) -> FinKernel:
    """Law of the multiset of n i.i.d. draws from r, as a kernel 1 -> M_n.

    mass(mu) = multinomial(mu) * prod_a r_a^mu(a).  For proper rational r the
    cone law multinomial_law(r, n) = multinomial_law(r, n+1) then DD_n holds
    exactly, with DD_n the step of the kernel-side chain (`chains.stoch_copointed`).
    """
    if not r.is_proper:
        raise ValueError("multinomial_law needs a proper probability vector")
    if not is_exact(r.weights):
        raise ValueError("multinomial_law needs exact rational weights")
    msp = multiset_space(r.alphabet, n)
    row = {
        counts: _monomial(r.weights, counts, Fraction(multinomial(counts)))
        for counts in msp.labels
    }
    return FinKernel.build(unit_space(), msp, lambda _: row)


# -- verification ----------------------------------------------------------

@dataclass(frozen=True)
class EqualiseReport:
    max_deviation: Fraction
    witness_perm: tuple[int, ...] | None

    @property
    def equalises(self) -> bool:
        return self.max_deviation == 0


def verify_equalises(f, n: int) -> EqualiseReport:
    """Check sigma . f = f for every coordinate symmetry on the target.

    f is a FinKernel or a PcsMatrix: only its entries and target are read.

    Only the n-1 adjacent transpositions are compared, since they generate
    S_n: the deviation is zero over them iff it is zero over all n!
    symmetries, so the verdict is the one of the full check.  On a failing
    kernel the reported deviation and witness are those of the worst
    transposition, which may be smaller than the worst deviation over S_n.
    """
    worst = ZERO
    witness = None
    for perm in adjacent_transpositions(n):
        permuted = permute_tuple_columns(f.entries, f.target, perm)
        dev = max_abs_diff(permuted, f.entries)
        if dev > worst:
            worst = dev
            witness = perm
    return EqualiseReport(worst, witness)


# -- mixing measures and Monte Carlo ---------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported measure on the simplex over an alphabet."""

    atoms: tuple  # of (ProbVector, weight) pairs

    def __post_init__(self):
        if not self.atoms:
            return
        alphabet = self.atoms[0][0].alphabet
        for point, w in self.atoms:
            if point.alphabet != alphabet:
                raise ValueError("all atoms must share one alphabet")
            if w < 0:
                raise ValueError("negative atom weight")
            if not point.is_proper:
                raise ValueError("atom points must be proper distributions")
        total = self.total_weight
        if total > 1 + _sum_slack((total,)):
            raise ValueError("total weight exceeds 1")

    @classmethod
    def of(cls, *atoms) -> "AtomicMeasure":
        return cls(tuple((p, frac(w)) for p, w in atoms))

    @classmethod
    def dirac(cls, point: ProbVector) -> "AtomicMeasure":
        return cls(((point, ONE),))

    @property
    def alphabet(self) -> Alphabet:
        if not self.atoms:
            raise ValueError("empty measure has no alphabet")
        return self.atoms[0][0].alphabet

    @property
    def total_weight(self):
        """Exact when every weight and atom coordinate is, a float otherwise."""
        exact = is_exact(v for p, w in self.atoms for v in (w, *p.weights))
        return sum((w for _, w in self.atoms), start=ZERO if exact else 0.0)

    @property
    def is_probability(self) -> bool:
        total = self.total_weight
        return abs(total - 1) <= _sum_slack((total,))


def mixing_moment(mixing: AtomicMeasure, symbol: str, order: int):
    """Raw moment E[r(symbol)^order] of the mixing measure."""
    return sum(w * p.weight(symbol) ** order for p, w in mixing.atoms)


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
# and the multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# trials whose states are derived in one numpy pass
_STATE_CHUNK = 1024


def _hash(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    # SeedSequence's hashmix (mult=_MULT_A) and generate_state step (_MULT_B)
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _uint32_words(n: int) -> list[int]:
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _trial_states(seed: int, trials: int):
    """PCG64 states of the per-trial streams, derived in bulk.

    Yields, for trial = 0, ..., trials - 1, the `PCG64.state` dict of
    `PCG64(SeedSequence(entropy=seed, spawn_key=(trial,)))` without building
    either object per trial.  The spawn key is the last word SeedSequence
    hashes into its pool, so the pool is mixed once over the seed's words
    and only the last round is vectorised over the trial numbers, in chunks
    of _STATE_CHUNK; `generate_state(4, uint64)` and PCG64's `set_seed` then
    follow.  numpy refuses what it refuses today (a negative seed, a float),
    and trial 0 is checked against numpy's own construction on every call.

    >>> [np.random.PCG64(np.random.SeedSequence(entropy=2**64 + 1, spawn_key=(t,))).state
    ...  for t in range(3)] == list(_trial_states(2**64 + 1, 3))
    True
    """
    entropy = np.random.SeedSequence(seed).entropy
    if trials > 1 << 32:
        raise ValueError("at most 2**32 trials: a larger trial number spans two spawn-key words")
    words = _uint32_words(int(entropy))
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        h, hash_const = _hash(np.array([word], dtype=np.uint32), hash_const, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, hash_const = _hash(np.array([word], dtype=np.uint32), hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)

    def derive(start: int, stop: int) -> list[dict]:
        trial_words = np.arange(start, stop, dtype=np.uint32)
        hc = hash_const
        mixed = []
        for dst in range(_POOL_SIZE):
            h, hc = _hash(trial_words, hc, _MULT_A)
            mixed.append(_mix(pool[dst], h))
        # generate_state(4, np.uint64): 8 uint32 words, read little-endian
        hc = _INIT_B
        out = []
        for i in range(8):
            h, hc = _hash(mixed[i % _POOL_SIZE], hc, _MULT_B)
            out.append(h.astype(np.uint64))
        halves = [(out[2 * j] | (out[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)]
        states = []
        for s_hi, s_lo, i_hi, i_lo in zip(*halves):
            inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
            states.append(
                {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
            )
        return states

    expected = np.random.PCG64(np.random.SeedSequence(entropy=entropy, spawn_key=(0,))).state
    if derive(0, 1)[0] != expected:
        raise RuntimeError(
            f"PCG64 state derivation disagrees with numpy {np.__version__}'s SeedSequence"
        )
    return itertools.chain.from_iterable(
        derive(start, min(start + _STATE_CHUNK, trials))
        for start in range(0, trials, _STATE_CHUNK)
    )


def _trial_rngs(seed: int, trials: int):
    """One Generator per trial, in order, on the stream of _trial_states.

    The same Generator is re-seeded for each trial, so use it before taking
    the next.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state in _trial_states(seed, trials):
        bit_generator.state = state
        yield rng


def _atom_cdf(mixing: AtomicMeasure) -> list[float]:
    # the CDF that Generator.choice(len(atoms), p=weights / weights.sum())
    # searches, with searchsorted(side="right"), for its one uniform
    weights = np.asarray([float(w) for _, w in mixing.atoms])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass
class EmpiricalLaw:
    """Histogram of prefix frequency vectors over independent trials."""

    alphabet: Alphabet
    prefix_length: int
    trials: int
    histogram: Counter = field(default_factory=Counter)

    def moment(self, symbol: str, order: int) -> float:
        i = self.alphabet.index(symbol)
        n = self.prefix_length
        total = sum(
            c * (counts[i] / n) ** order for counts, c in self.histogram.items()
        )
        return total / self.trials


def empirical_law(mixing: AtomicMeasure, n: int, trials: int, seed: int) -> EmpiricalLaw:
    """Law of the empirical frequency of a length-n exchangeable prefix.

    The frequency vector of a prefix is a deterministic function of its
    symbol counts, so each trial draws the atom and then the multinomial
    count vector directly.  Trial t runs on the PCG64 stream of
    SeedSequence(entropy=seed, spawn_key=(t,)): one uniform picks the atom as
    Generator.choice would, then one multinomial draw gives the counts.  The
    streams are derived in bulk (_trial_states) and the atom CDF and float
    atoms once per call, so the histogram is bit-identical to building a
    default_rng per trial, and does not depend on how trials are split.
    """
    if not mixing.is_probability:
        raise ValueError("empirical law needs a probability mixing measure")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cdf = _atom_cdf(mixing)
    points = [p.as_floats() for p, _ in mixing.atoms]
    law = EmpiricalLaw(mixing.alphabet, n, trials)
    histogram = law.histogram
    for rng in _trial_rngs(seed, trials):
        counts = rng.multinomial(n, points[bisect.bisect_right(cdf, rng.random())])
        histogram[tuple(counts.tolist())] += 1
    return law


"""The finite fragment of the category of (sub)stochastic kernels.

Kernels are exact rational matrices indexed (source label, target label);
`compose(f, g)` is "f then g".  Everything structural (equalisers of the
symmetry action on tuple spaces, the draw-and-delete kernel, the multinomial
urn laws) is exact; Monte Carlo simulation of exchangeable sequences uses
64-bit floats and explicit seeds.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._linalg import ONE, ZERO, as_matrix, frac, identity, matmul, kron, max_abs_diff
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
    product_space,
    tuple_space,
    unit_space,
)


@dataclass(frozen=True)
class FinKernel:
    """Substochastic kernel between finite index sets (exact rational entries)."""

    source: IndexSet
    target: IndexSet
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.source):
            raise ValueError("row count must match source size")
        for row in self.rows:
            if len(row) != len(self.target):
                raise ValueError("row width must match target size")
            total = ZERO
            for v in row:
                if v < 0:
                    raise ValueError(f"negative kernel entry {v}")
                total += v
            if total > 1:
                raise ValueError(f"row sum {total} exceeds 1")

    @classmethod
    def from_rows(cls, source: IndexSet, target: IndexSet, rows) -> "FinKernel":
        return cls(source, target, as_matrix(rows))

    @property
    def kind(self) -> str:
        return "stochastic" if all(sum(r) == 1 for r in self.rows) else "substochastic"

    def entry(self, src_label, tgt_label) -> Fraction:
        return self.rows[self.source.index(src_label)][self.target.index(tgt_label)]

    def deviation(self, other: "FinKernel") -> Fraction:
        if self.source.labels != other.source.labels or self.target.labels != other.target.labels:
            raise ValueError("kernels must share source and target index sets")
        return max_abs_diff(self.rows, other.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinKernel)
            and self.source.labels == other.source.labels
            and self.target.labels == other.target.labels
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.source.labels, self.target.labels, self.rows))


def identity_kernel(space: IndexSet) -> FinKernel:
    return FinKernel(space, space, identity(len(space)))


def discard_kernel(space: IndexSet) -> FinKernel:
    """The unique kernel into the terminal one-point space (all-ones column)."""
    return FinKernel(space, unit_space(), tuple((ONE,) for _ in space.labels))


def compose(f: FinKernel, g: FinKernel) -> FinKernel:
    """Kleisli composition, f then g, as the matrix product."""
    if f.target.labels != g.source.labels:
        raise ValueError(
            f"cannot compose: target {f.target.name} != source {g.source.name}"
        )
    return FinKernel(f.source, g.target, matmul(f.rows, g.rows))


def tensor(f: FinKernel, g: FinKernel) -> FinKernel:
    """Product-measure kernel on the product index sets (Kronecker product)."""
    return FinKernel(
        product_space(f.source, g.source),
        product_space(f.target, g.target),
        kron(f.rows, g.rows),
    )


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
    rows = []
    for t in space.labels:
        row = [ZERO] * len(space)
        row[space.index(apply_perm(perm, t))] = ONE
        rows.append(tuple(row))
    return FinKernel(space, space, tuple(rows))


def permute_tuple_columns(rows: tuple, space: IndexSet, perm: tuple[int, ...]) -> tuple:
    """Rows of (f then symmetry(perm)) without materialising the permutation matrix."""
    col_map = [space.index(apply_perm(perm, t)) for t in space.labels]
    out = []
    for row in rows:
        new = [ZERO] * len(row)
        for j, v in enumerate(row):
            if v:
                new[col_map[j]] = v
        out.append(tuple(new))
    return tuple(out)


def all_perms(n: int):
    return itertools.permutations(range(n))


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
    msp = multiset_space(alphabet, n)
    tsp = tuple_space(alphabet, n)
    rows = []
    for counts in msp.labels:
        mu = Multiset(alphabet, counts)
        row = [ZERO] * len(tsp)
        w = Fraction(1, multinomial(mu))
        for t in enumerations(mu):
            row[tsp.index(t)] = w
        rows.append(tuple(row))
    return FinKernel(msp, tsp, tuple(rows))


def coeq_kernel(alphabet: Alphabet, n: int) -> FinKernel:
    """Coequaliser leg: tuple -> its multiset, deterministically."""
    msp = multiset_space(alphabet, n)
    tsp = tuple_space(alphabet, n)
    rows = []
    for t in tsp.labels:
        row = [ZERO] * len(msp)
        row[msp.index(multiset_of(alphabet, t).counts)] = ONE
        rows.append(tuple(row))
    return FinKernel(tsp, msp, tuple(rows))


def symmetrization_average(alphabet: Alphabet, n: int) -> FinKernel:
    """The kernel (1/n!) * sum over all n! coordinate symmetries.

    Computed by counting permutation images directly rather than summing n!
    permutation matrices.
    """
    tsp = tuple_space(alphabet, n)
    size = len(tsp)
    counts = [[0] * size for _ in range(size)]
    nperms = 0
    for perm in all_perms(n):
        nperms += 1
        for j, t in enumerate(tsp.labels):
            counts[j][tsp.index(apply_perm(perm, t))] += 1
    rows = tuple(
        tuple(Fraction(c, nperms) for c in row) for row in counts
    )
    return FinKernel(tsp, tsp, rows)


# -- the draw-and-delete kernel and urn laws ------------------------------

def dd_kernel(alphabet: Alphabet, n: int) -> FinKernel:
    """Draw-and-delete: remove one element of a size-(n+1) urn uniformly.

    Entry (mu, mu - [x]) is mu(x)/(n+1); this is the unique kernel making
    eq_n . DD_n = (id^n (x) discard) . eq_{n+1} commute, a fact the chain
    builder re-verifies against the exact linear solve.
    """
    src = multiset_space(alphabet, n + 1)
    tgt = multiset_space(alphabet, n)
    rows = []
    for counts in src.labels:
        mu = Multiset(alphabet, counts)
        row = [ZERO] * len(tgt)
        for x, c in enumerate(counts):
            if c:
                nu = list(counts)
                nu[x] -= 1
                row[tgt.index(tuple(nu))] = Fraction(c, n + 1)
        rows.append(tuple(row))
    return FinKernel(src, tgt, tuple(rows))


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
        if self.exact:
            if sum(self.weights, start=ZERO) > 1:
                raise ValueError("weights sum beyond 1")
        elif sum(self.weights) > 1 + 1e-12:
            raise ValueError("weights sum beyond 1")

    @classmethod
    def of(cls, alphabet: Alphabet, *weights) -> "ProbVector":
        return cls(alphabet, tuple(frac(w) for w in weights))

    @property
    def exact(self) -> bool:
        return all(isinstance(w, (int, Fraction)) for w in self.weights)

    @property
    def is_proper(self) -> bool:
        if self.exact:
            return sum(self.weights, start=ZERO) == 1
        return abs(sum(self.weights) - 1.0) <= 1e-12

    def weight(self, symbol: str):
        return self.weights[self.alphabet.index(symbol)]

    def as_floats(self) -> np.ndarray:
        return np.asarray([float(w) for w in self.weights], dtype=float)


def multinomial_law(r: ProbVector, n: int) -> FinKernel:
    """Law of the multiset of n i.i.d. draws from r, as a kernel 1 -> M_n.

    mass(mu) = multinomial(mu) * prod_a r_a^mu(a).  For proper rational r the
    cone law multinomial_law(r, n) = multinomial_law(r, n+1) then dd_kernel(n)
    holds exactly.
    """
    if not r.is_proper:
        raise ValueError("multinomial_law needs a proper probability vector")
    if not r.exact:
        raise ValueError("multinomial_law needs exact rational weights")
    msp = multiset_space(r.alphabet, n)
    row = []
    for counts in msp.labels:
        mass = Fraction(multinomial(Multiset(r.alphabet, counts)))
        for w, c in zip(r.weights, counts):
            if c:
                mass *= frac(w) ** c
        row.append(mass)
    return FinKernel(unit_space(), msp, (tuple(row),))


# -- verification ----------------------------------------------------------

@dataclass(frozen=True)
class EqualiseReport:
    max_deviation: Fraction
    witness_perm: tuple[int, ...] | None

    @property
    def equalises(self) -> bool:
        return self.max_deviation == 0


def verify_equalises(f: FinKernel, n: int) -> EqualiseReport:
    """Check sigma . f = f for every coordinate symmetry on the target.

    Only the n-1 adjacent transpositions are compared, since they generate
    S_n: the deviation is zero over them iff it is zero over all n!
    symmetries, so the verdict is the one of the full check.  On a failing
    kernel the reported deviation and witness are those of the worst
    transposition, which may be smaller than the worst deviation over S_n.
    """
    worst = ZERO
    witness = None
    for perm in adjacent_transpositions(n):
        permuted = permute_tuple_columns(f.rows, f.target, perm)
        dev = max_abs_diff(permuted, f.rows)
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
        if self.total_weight > 1 + (0 if self.exact else 1e-12):
            raise ValueError("total weight exceeds 1")

    @classmethod
    def of(cls, *atoms) -> "AtomicMeasure":
        return cls(tuple((p, frac(w)) for p, w in atoms))

    @classmethod
    def dirac(cls, point: ProbVector) -> "AtomicMeasure":
        return cls(((point, ONE),))

    @property
    def exact(self) -> bool:
        return all(
            p.exact and isinstance(w, (int, Fraction)) for p, w in self.atoms
        )

    @property
    def alphabet(self) -> Alphabet:
        if not self.atoms:
            raise ValueError("empty measure has no alphabet")
        return self.atoms[0][0].alphabet

    @property
    def total_weight(self):
        if not self.atoms:
            return ZERO
        start = ZERO if self.exact else 0.0
        return sum((w for _, w in self.atoms), start=start)

    @property
    def is_probability(self) -> bool:
        tw = self.total_weight
        return tw == 1 if self.exact else abs(tw - 1.0) <= 1e-12


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


def simulate_exchangeable(mixing: AtomicMeasure, length: int, seed: int) -> list[str]:
    """Sample one atom by its weight, then i.i.d. symbols from that atom."""
    if not mixing.is_probability:
        raise ValueError("simulation needs a probability mixing measure")
    if length < 0:
        raise ValueError("length must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    atom = mixing.atoms[bisect.bisect_right(_atom_cdf(mixing), rng.random())][0]
    symbols = mixing.alphabet.symbols
    draws = rng.choice(len(symbols), size=length, p=atom.as_floats())
    return [symbols[i] for i in draws]


@dataclass(frozen=True)
class EmpiricalSample:
    """Frequency vector of a length-n prefix (entries are multiples of 1/n)."""

    counts: tuple[int, ...]
    prefix_length: int

    def __post_init__(self):
        if any((not isinstance(c, int)) or c < 0 for c in self.counts):
            raise ValueError("prefix counts must be nonnegative integers")
        if sum(self.counts) != self.prefix_length:
            raise ValueError("prefix counts must sum to the prefix length")

    @property
    def frequency(self) -> tuple[float, ...]:
        return tuple(c / self.prefix_length for c in self.counts)


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


def urn_marginal_law(r: ProbVector, start: int, stop: int, trials: int, seed: int) -> Counter:
    """Empirical law at size `stop` of urns drawn at size `start` then shrunk.

    Each trial draws an urn from multinomial_law(r, start) and applies the
    uniform remove-one step start - stop times; returns a Counter over count
    vectors for comparison against multinomial_law(r, stop).  Trial t runs on
    the same per-trial stream as empirical_law (SeedSequence(entropy=seed,
    spawn_key=(t,)) -> PCG64, derived in bulk).
    """
    if stop > start:
        raise ValueError("stop size cannot exceed start size")
    msp = multiset_space(r.alphabet, start)
    masses = [float(v) for v in multinomial_law(r, start).rows[0]]
    hist: Counter = Counter()
    for rng in _trial_rngs(seed, trials):
        counts = list(msp.labels[rng.choice(len(msp), p=masses)])
        size = start
        while size > stop:
            x = rng.choice(len(counts), p=[c / size for c in counts])
            counts[x] -= 1
            size -= 1
        hist[tuple(counts)] += 1
    return hist

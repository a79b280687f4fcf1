"""The finite fragment of the category of (sub)stochastic kernels.

Kernels are exact rational matrices indexed (source label, target label),
on the shared `_linalg.Matrix` base; `_linalg.compose(f, g)` is "f then g".
Everything structural (equalisers of the symmetry action on tuple spaces,
the multinomial urn laws) is exact; the draw-and-delete step between the
equalisers is `chains.Backend.dd_closed_form`.  The Monte Carlo law of
exchangeable prefixes uses 64-bit floats and explicit seeds: each trial's
PCG64 stream, the uniform that picks its atom and its multinomial draw are
computed in numpy over a block of trials at a time, and the law of the
counts is held as numpy arrays of distinct rows and tallies, merged block
by block, with no Python object per trial or per row.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
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
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
# trials per block: their states are derived and their counts drawn together.
# The CLI's default 10,000 trials are one block, so BTPE's fixed numpy calls
# per rejection round are paid once per call
_STATE_CHUNK = 16384


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


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    # the high word of the 128-bit products a * b, on 32-bit limbs
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    mid = a_hi * b_lo + (a_lo * b_lo >> _SHIFT32)
    low = a_lo * b_hi + (mid & _LOW32)
    return a_hi * b_hi + (mid >> _SHIFT32) + (low >> _SHIFT32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * _PCG64_MULT + inc mod 2**128, PCG64's LCG step, on uint64 halves."""
    m_hi, m_lo = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64)
    return _add128(_mulhi64(lo, m_lo) + lo * m_hi + hi * m_lo, lo * m_lo, inc_hi, inc_lo)


def _next_doubles(streams: np.ndarray, t=slice(None)) -> np.ndarray:
    """The next `Generator.random()` of the streams t, which it advances, for
    streams as `_trial_streams` yields them: one LCG step, PCG64's XSL-RR
    output rotr64(hi ^ lo, hi >> 58), then (x >> 11) * 2**-53."""
    hi, lo, inc_hi, inc_lo = streams[:, t] if isinstance(t, slice) else streams.take(t, axis=1)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    streams[0, t], streams[1, t] = hi, lo
    rot, x = hi >> np.uint64(58), hi ^ lo
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _trial_streams(seed: int, trials: int):
    """PCG64 states of the per-trial streams, derived in bulk.

    Returns an iterator over blocks of up to _STATE_CHUNK trials, each a
    (4, trials) uint64 array of the halves (state_hi, state_lo, inc_hi,
    inc_lo) of `PCG64(SeedSequence(entropy=seed, spawn_key=(trial,)))`.  The
    spawn key is the last word SeedSequence hashes into its pool, so the pool
    is mixed once over the seed's words and only the last round is vectorised
    over the trial numbers; `generate_state(4, uint64)` and PCG64's
    `set_seed` follow.  numpy's refusals (a negative seed, a float) raise at
    the call, and trial 0's state and first uniform are checked against numpy's.
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

    def derive(start: int, stop: int):
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
        s_hi, s_lo, i_hi, i_lo = (out[2 * j] | (out[2 * j + 1] << _SHIFT32) for j in range(4))
        # set_seed: inc = 2 * initseq + 1, state = (inc + initstate) * mult + inc
        inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
        inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
        return np.stack((*_lcg_step(*_add128(s_hi, s_lo, inc_hi, inc_lo), inc_hi, inc_lo), inc_hi, inc_lo))

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=entropy, spawn_key=(0,))))
    expected = (rng.bit_generator.state["state"], rng.random())
    first = derive(0, 1)
    hi, lo, inc_hi, inc_lo = first[:, 0].tolist()
    if ({"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}, _next_doubles(first)[0]) != expected:
        raise RuntimeError(f"PCG64 state derivation disagrees with numpy {np.__version__}'s SeedSequence")
    return (derive(start, min(start + _STATE_CHUNK, trials)) for start in range(0, trials, _STATE_CHUNK))


def _atom_cdf(mixing: AtomicMeasure) -> np.ndarray:
    # the CDF that Generator.choice(len(atoms), p=weights / weights.sum())
    # searches, with searchsorted(side="right"), for its one uniform
    weights = np.asarray([float(w) for _, w in mixing.atoms])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _libm(f, x: np.ndarray) -> np.ndarray:
    # f entrywise by `math`, which calls the C library as numpy's sampler does
    return np.fromiter(map(f, x.tolist()), np.float64, len(x))


def _log(x: np.ndarray) -> np.ndarray:
    # C's log (np.log rounds otherwise): -inf at 0, nan below, where math.log raises
    return _libm(math.log if x.min(initial=1.0) > 0
                 else lambda v: math.log(v) if v > 0 else -math.inf if v == 0 else math.nan, x)


def _rows(mask: np.ndarray) -> np.ndarray:
    """mask's true indices, the last repeated up to a multiple of 64: a trial
    listed twice draws and decides as once, and arrays below 1 KiB come in few
    sizes, so numpy's cache of freed ones (seven per size) stays small."""
    found = np.flatnonzero(mask)
    rows = np.empty(-(-len(found) // 64) * 64, np.int64)
    rows[:len(found)] = found
    rows[len(found):] = found[-1] if len(found) else 0
    return rows


def _inversion(streams, j, t, n, p):
    """numpy's random_binomial_inversion on the streams t[j]: X counts up while
    the uniform passes the mass so far, restarting on a new uniform past bound."""
    t, n, p = t[j], n[j], p[j]
    nf, q = n.astype(np.float64), 1.0 - p
    # C's exp is inf past log(DBL_MAX), where math.exp raises
    qn = _libm(lambda x: math.inf if x > 709.782712893384 else math.exp(x), nf * _libm(math.log1p, -p))
    bound = np.minimum(nf, nf * p + 10.0 * np.sqrt(nf * p * q + 1)).astype(np.int64)
    out = np.zeros_like(n)
    ints = np.stack((np.arange(len(t)), t, n, bound, out))
    floats = np.stack((p, q, qn, qn, _next_doubles(streams, t)))
    keep = floats[4] > floats[3]
    while keep.any():
        r = _rows(keep)
        ints, floats = ints.take(r, axis=1), floats.take(r, axis=1)
        (i, t, n, bound, x), (p, q, qn, px, u) = ints, floats
        x += 1
        u -= px
        px[:] = ((n - x + 1) * p * px) / (x * q)
        r = _rows(x > bound)
        if len(r):
            x[r], px[r] = 0, qn[r]
            u[r] = _next_doubles(streams, t[r])
        keep = u > px
        out[i] = x  # final for the trials that stop here
    return out


def _btpe(streams, j, t, n, p):
    """numpy's random_binomial_btpe for p <= 1/2 (so r = p) on the streams t[j], the
    BTPE of Kachitvichyanukul and Schmeiser, Comm. ACM 31 (1988): a round draws u
    and v for the trials undecided; `_btpe_test` takes the points past the triangle."""
    t, n, p = t[j], n[j], p[j]
    floats = np.empty((8, len(t)))
    _, nrq, xm, c, laml, lamr, p1, p4 = floats
    floats[0], q = p, 1.0 - p
    nrq[:], fm = n * p * q, n * p + p
    m = np.floor(fm).astype(np.int64)
    p1[:] = np.floor(2.195 * np.sqrt(nrq) - 4.6 * q) + 0.5
    xm[:], c[:] = m + 0.5, 0.134 + 20.5 / (15.3 + m)
    a = (fm - (xm - p1)) / (fm - (xm - p1) * p)
    laml[:] = a * (1.0 + a / 2.0)
    a = (xm + p1 - fm) / ((xm + p1) * q)
    lamr[:] = a * (1.0 + a / 2.0)
    p4[:] = p1 * (1.0 + 2.0 * c) + c / laml + c / lamr
    ints, out = np.stack((np.arange(len(t)), t, n, m)), np.empty_like(n)
    del n, p, q, fm, m, a  # copied into ints and floats
    while ints.shape[1]:
        i, t, xm, p1, p4 = ints[0], ints[1], floats[2], floats[6], floats[7]
        u = _next_doubles(streams, t) * p4
        v = _next_doubles(streams, t)
        y = np.floor(xm - p1 * v + u).astype(np.int64)
        done = ~(u > p1)
        j = _rows(~done)
        if len(j):
            y[j], done[j] = _btpe_test(u[j], v[j], ints[2:].take(j, axis=1), floats.take(j, axis=1))
        out[i] = y  # final for the trials done
        r = _rows(~done)
        ints, floats = ints.take(r, axis=1), floats.take(r, axis=1)
    return out


def _btpe_test(u, v, ints, floats):
    """BTPE's test of points (u, v) past the triangle: the y each gives in the
    parallelogram or a tail, and whether Step 50 or Step 52 accepts it."""
    (n, m), (p, nrq, xm, c, laml, lamr, p1, p4) = ints, floats
    q, xl, xr, p2 = 1.0 - p, xm - p1, xm + p1, p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    tail, right = u > p2, u > p3
    x = xl + (u - p1) / c
    para_v = v * c + 1.0 - np.abs(m - x + 0.5) / p1
    logv, r = np.zeros_like(v), _rows(tail)
    logv[r] = _log(v[r])
    y = np.floor(np.where(right, xr - logv / lamr, np.where(tail, xl + logv / laml, x))).astype(np.int64)
    accept = ~np.where(tail, np.where(right, y > n, y < 0) | (v == 0.0), para_v > 1.0)
    v = np.where(right, v * (u - p3) * lamr, np.where(tail, v * (u - p2) * laml, para_v))
    k = np.abs(y - m)
    squeeze = accept & (k > 20) & (k < nrq / 2.0 - 1)
    j = _rows(accept & ~squeeze)  # Step 50: accept when v <= F, y's mass over the mode's
    if len(j):
        s = p[j] / q[j]
        accept[j] = ~(v[j] > _step50(s * (n[j] + 1), s, np.minimum(m[j], y[j]), k[j], m[j] < y[j]))
    j = _rows(squeeze)  # Step 52: the squeeze on log v, and the Stirling bound inside it
    if len(j):
        kj, nrqj, big = k[j], nrq[j], _log(v[j])
        rho = (kj / nrqj) * ((kj * (kj / 3.0 + 0.625) + 0.16666666666666666) / nrqj + 0.5)
        tt = -kj * kj / (2 * nrqj)
        accept[j] = big < tt - rho
        r = _rows(~(big < tt - rho) & ~(big > tt + rho))
        j, big = j[r], big[r]
        if len(j):
            nj, mj, yj = n[j], m[j], y[j]
            # x1 and f1 are int64 sums, z and w start from n as a double, as
            # numpy's binary computes them: it shows once n passes 2**53
            x1, f1 = (yj + 1).astype(np.float64), (mj + 1).astype(np.float64)
            z, w = nj.astype(np.float64) + 1.0 - mj, nj.astype(np.float64) - yj + 1.0
            logs = _log(np.concatenate((f1 / x1, z / w, w * p[j] / (x1 * q[j])))).reshape(3, -1)
            bound = xm[j] * logs[0] + ((nj - mj) + 0.5) * logs[1] + (yj - mj) * logs[2]
            x = np.stack((f1, z, x1, w))  # the Stirling series terms, added in numpy's order
            x2 = x * x
            for term in (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.:
                bound = bound + term
            accept[j] = ~(big > bound)
    return y, accept


def _step50(a, s, low, k, up):
    """F of BTPE's Step 50, the product of a / i - s over i in (low, low + k] (1
    over it where not up), 24 factors at a time padded with 1: a ufunc's reduce
    over the first axis applies it row by row, in the order of C's loop."""
    f, cols = np.ones(len(k)), np.arange(1, 25)[:, None]
    for op, rows in ((np.multiply, _rows(up)), (np.divide, _rows(~up & (k != 0)))):
        i = cols
        while len(rows):
            x = a[rows] / (low[rows] + i) - s[rows]
            np.copyto(x, 1.0, where=i > k[rows])
            f[rows] = op.reduce(np.vstack((f[rows], x)))
            rows, i = rows[_rows(k[rows] > i[-1])], i + 24
    return f


def _binomial(streams, t, n, p):
    """numpy's random_binomial(p, n) on the streams t, n > 0: 0 at p = 0, else
    inversion if min(p, 1 - p) * n <= 30, BTPE if not; for 1 - p if p > 1/2."""
    flip, drawn = ~(p <= 0.5), p != 0.0
    p = np.where(flip, 1.0 - p, p)
    y, small = np.zeros_like(n), p * n <= 30.0
    for draw, j in ((_inversion, drawn & small), (_btpe, drawn & ~small)):
        j = _rows(j)
        if len(j):
            y[j] = draw(streams, j, t, n, p)
    return np.where(flip, n - y, y)


def _multinomial(streams, n: int, points: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """numpy's random_multinomial(n, points[atom]) for each trial of a block: a
    binomial per symbol of the count left, until none is, and the rest last."""
    counts = np.zeros((len(atoms), points.shape[1]), np.int64)
    t = np.arange(len(atoms) if n > 0 else 0)
    left, remaining = np.full(len(t), n, np.int64), np.ones(len(t))
    for j in range(points.shape[1] - 1):
        p = points[atoms[t], j]
        counts[t, j] = y = _binomial(streams, t, left, p / remaining)
        r = _rows(left - y > 0)
        t, left, remaining = t[r], (left - y)[r], (remaining - p)[r]
        del y, r  # free before the next symbol's draw
    counts[t, -1] = left
    return counts


def _tally(rows: np.ndarray, tallies: np.ndarray, block: np.ndarray):
    """rows and tallies with the count vectors of a block of trials added:
    the distinct rows in order of first appearance, their tallies, and the
    permutation sorting them ascending.  One stable lexsort of the known rows
    and the block groups equal rows, and its first index in each group is
    where the row first appears."""
    both = np.concatenate((rows, block))
    order = np.lexsort(both.T[::-1])  # its last key, column 0, sorts first
    ranked = both[order]
    starts = np.flatnonzero(np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1))))
    sums = np.add.reduceat(np.concatenate((tallies, np.ones(len(block), np.int64)))[order], starts)
    first = order[starts]
    by_first = np.argsort(first)
    ascending = np.empty_like(by_first)
    ascending[by_first] = np.arange(len(by_first))
    return both[first[by_first]], sums[by_first], ascending


@dataclass(eq=False)
class EmpiricalLaw:
    """Histogram of prefix frequency vectors over independent trials.

    `rows` is a (distinct, symbols) int64 array of the distinct count
    vectors, in order of first appearance over the trials, and `tallies`
    the number of trials that drew each.  `ascending` is the permutation
    that sorts `rows` as their tuples compare.  No Python object is made
    per row.
    """

    alphabet: Alphabet
    prefix_length: int
    trials: int
    rows: np.ndarray
    tallies: np.ndarray
    ascending: np.ndarray = field(repr=False)

    @cached_property
    def columns(self) -> list:
        """Per symbol, its distinct counts as an ascending list, and each
        row's index among them."""
        columns = (np.unique(column, return_inverse=True) for column in self.rows.T)
        return [(distinct.tolist(), where) for distinct, where in columns]

    def moment(self, symbol: str, order: int) -> float:
        """(1/trials) Σ tally * (count of symbol / n) ** order over the rows.

        `(count / n) ** order` is taken once per distinct count, with Python
        `**`; the terms tally * power and their order (first appearance) are
        those of the row-by-row sum, and `sum()` adds them, so the moment has
        that sum's bits on every Python version.
        """
        distinct, where = self.columns[self.alphabet.index(symbol)]
        n = self.prefix_length
        powers = np.array([(v / n) ** order for v in distinct], dtype=np.float64)
        return sum((self.tallies * powers[where]).tolist()) / self.trials


def empirical_law(mixing: AtomicMeasure, n: int, trials: int, seed: int) -> EmpiricalLaw:
    """Law of the empirical frequency of a length-n exchangeable prefix.

    Each trial draws the atom and then the prefix's symbol counts directly.
    Trial t runs on the PCG64 stream of SeedSequence(entropy=seed,
    spawn_key=(t,)): one uniform picks the atom as Generator.choice would,
    then numpy's multinomial sampler gives the counts.  Both run in numpy
    over blocks of _STATE_CHUNK trials, with the operations of numpy's C in
    its order, so the histogram is bit-identical to a default_rng per trial;
    trial 0's counts are checked against numpy's own Generator.multinomial.
    Each block's counts are merged into the law's rows as it is drawn, so
    memory grows with the block and the distinct rows, not with the trials.
    """
    if not mixing.is_probability:
        raise ValueError("empirical law needs a probability mixing measure")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cdf = _atom_cdf(mixing)
    points = np.stack([p.as_floats() for p, _ in mixing.atoms])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    expected = rng.multinomial(n, points[np.searchsorted(cdf, rng.random(), side="right")]).tolist()
    rows, tallies = np.empty((0, len(mixing.alphabet)), np.int64), np.empty(0, np.int64)
    with np.errstate(all="ignore"):  # C's inf and nan, as numpy's sampler meets them
        for streams in _trial_streams(seed, trials):
            atoms = np.searchsorted(cdf, _next_doubles(streams), side="right")
            rows, tallies, ascending = _tally(rows, tallies, _multinomial(streams, n, points, atoms))
            if rows[0].tolist() != expected:
                raise RuntimeError(f"bulk multinomial draw disagrees with numpy {np.__version__}'s Generator.multinomial")
    return EmpiricalLaw(mixing.alphabet, n, trials, rows, tallies, ascending)

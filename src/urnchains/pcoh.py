"""Finite-web probabilistic coherence spaces.

A space is a finite web plus a list of nonnegative generator vectors; the
clique it denotes is the biorthogonal closure of the generators.  Membership
in that closure is decided by a linear program over the dual polytope
(maximise the pairing against the candidate subject to every generator
pairing at most 1).  Structural matrices (equalisers of the symmetry action
in delta coordinates and their sections, the multinomial embedding) are
exact rationals; the delta form of the draw-and-delete step is
`chains.Backend.dd_closed_form`.  Only the LP may run in float mode, and
whether it does, and at what tolerance, is decided by `_linalg.is_exact` and
`_linalg.arithmetic` from the vectors given.

Two coordinate systems for multiset-indexed objects coexist on purpose: the
uniform-enumeration presentation used by the kernel side of the package and
the delta presentation used here.  They differ by the diagonal matrix of
multinomial coefficients (see `chains.multinomial_diagonal`); mixing them
silently is the main correctness hazard in this corner of the code.  The
chain builder keeps them apart through one parameter: `chains.Backend.pcoh`
builds the chain over these matrices in delta coordinates (eq_delta split by
canonical_section), `chains.Backend.stoch` over kernels in uniform ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from ._linalg import ONE, ZERO, Matrix, _monomial, arithmetic, frac, is_exact, matmul
from .multiset import (
    Alphabet,
    Multiset,
    canonical_enumeration,
    difference,
    enumerations,
    multinomial,
)
from .optim import LinearProgram, solve
from .spaces import (
    IndexSet,
    bounded_multiset_space,
    multiset_space,
    symbol_space,
    tuple_space,
)


class WebConditionError(Exception):
    """A coordinate of the web is unsupported by the generators."""


@dataclass(frozen=True)
class PcsVector:
    web: IndexSet
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != len(self.web):
            raise ValueError("coefficient vector length must match web size")
        if any(v < 0 for v in self.coeffs):
            raise ValueError("coefficients must be nonnegative")

    @classmethod
    def of(cls, web: IndexSet, *coeffs) -> "PcsVector":
        return cls(web, tuple(frac(v) for v in coeffs))


@dataclass(frozen=True, eq=False)
class PcsMatrix(Matrix):
    """Nonnegative matrix indexed (source web, target web)."""

    def push(self, x: PcsVector) -> PcsVector:
        """Apply to a vector over the source web: (f.x)_b = sum_a f[a][b] x_a."""
        if x.web.labels != self.source.labels:
            raise ValueError("vector web does not match matrix source")
        (image,) = matmul(({a: v for a, v in enumerate(x.coeffs) if v},), self.entries)
        return PcsVector(self.target, tuple(image.get(b, ZERO) for b in range(len(self.target))))


# -- biorthogonality ---------------------------------------------------------

@dataclass(frozen=True)
class Membership:
    inside: bool
    optimum: object
    witness: PcsVector | None  # separating dual point when outside


def biorthogonal_membership(generators, x: PcsVector) -> Membership:
    """Decide x in (generators)^{perp perp} by solving the dual-polytope LP.

    Maximises <x, u> over u >= 0 with <g, u> <= 1 for every generator; x is
    in the closure exactly when the optimum is at most 1.  An unbounded LP
    means some coordinate of x is unsupported by every generator, which
    violates the web condition.  The LP is exact when x and every generator
    are.
    """
    if not generators:
        raise ValueError("need at least one generator")
    exact = all(is_exact(v.coeffs) for v in (x, *generators))
    web = x.web
    for g in generators:
        if g.web.labels != web.labels:
            raise ValueError("generators and candidate must share a web")
    lp = LinearProgram(
        objective=tuple(x.coeffs),
        a_ub=tuple(tuple(g.coeffs) for g in generators),
        b_ub=(1,) * len(generators),
        mode="exact" if exact else "float",
    )
    sol = solve(lp)
    if sol.status == "unbounded":
        raise WebConditionError(
            "dual polytope unbounded: some web coordinate has no generator support"
        )
    _, _, tol = arithmetic(exact)
    inside = sol.value <= 1 + tol
    witness = None if inside else PcsVector(web, tuple(sol.x))
    return Membership(inside, sol.value, witness)


# -- spaces ----------------------------------------------------------------

@dataclass(frozen=True)
class Pcs:
    """Finite web plus generators; the clique is their biorthogonal closure."""

    web: IndexSet
    generators: tuple
    name: str = "pcs"

    def __post_init__(self):
        for g in self.generators:
            if g.web.labels != self.web.labels:
                raise ValueError("generator web does not match space web")
        for i, label in enumerate(self.web.labels):
            if not any(g.coeffs[i] > 0 for g in self.generators):
                raise WebConditionError(
                    f"web coordinate {label!r} unsupported by every generator"
                )

    def contains(self, x: PcsVector) -> Membership:
        return biorthogonal_membership(self.generators, x)

    @property
    def alphabet(self) -> Alphabet:
        """The alphabet of a symbol-labelled web (fails on structured webs)."""
        if not all(isinstance(s, str) for s in self.web.labels):
            raise TypeError(f"web of {self.name} is not symbol-labelled")
        return Alphabet(self.web.labels)


def ground_pcs(alphabet: Alphabet) -> Pcs:
    """Subdistributions over the alphabet: unit-vector generators."""
    web = symbol_space(alphabet)
    k = len(alphabet)
    gens = tuple(PcsVector(web, tuple(ONE if j == i else ZERO for j in range(k))) for i in range(k))
    return Pcs(web, gens, "ground")


def bool_pcs() -> Pcs:
    return ground_pcs(Alphabet.of("t", "f"))


def with_unit_pcs(a: Pcs) -> Pcs:
    """The cartesian product a & 1 over the padded symbol web (`Alphabet.pad`).

    Elements are pairs (element of a, scalar in [0,1]); the generators pad
    each generator of a with a unit coordinate, and their biorthogonal
    closure is exactly that product.
    """
    padded = a.alphabet.pad()
    web = symbol_space(padded)
    gens = tuple(
        PcsVector(web, tuple(g.coeffs) + (ONE,)) for g in a.generators
    )
    return Pcs(web, gens, f"with-unit({a.name})")


def multiset_pcs(a: Pcs, n: int) -> Pcs:
    """Symmetric power over size-n multisets, uniform-enumeration coordinates.

    Generators are the tally-map images of n-fold tensor products of the
    generators of a (mixed products included, or middle coordinates of the
    web would go unsupported): the image of g1 (x) ... (x) gn has
    coefficient sum over enumerations t of mu of prod_j gj(t_j) at mu.
    These suffice to reproduce the clique by biorthogonal closure at the
    web sizes handled here.
    """
    alphabet = a.alphabet
    web = multiset_space(alphabet, n)
    gens = []
    for combo in itertools.combinations_with_replacement(a.generators, n):
        coeffs = []
        for counts in web.labels:
            v = ZERO
            for t in enumerations(Multiset(alphabet, counts)):
                term = ONE
                for g, pos in zip(combo, t):
                    term *= frac(g.coeffs[pos])
                    if not term:
                        break
                v += term
            coeffs.append(v)
        gens.append(PcsVector(web, tuple(coeffs)))
    if n == 0:
        gens = [PcsVector(web, (ONE,))]
    return Pcs(web, tuple(gens), f"M{n}({a.name})")


# -- structural matrices ----------------------------------------------------

def eq_delta(alphabet: Alphabet, n: int) -> PcsMatrix:
    """Delta-coordinate equaliser: spreads the coefficient at mu to every
    enumeration of mu.  Equalises all n! coordinate symmetries exactly."""
    return PcsMatrix.build(
        multiset_space(alphabet, n),
        tuple_space(alphabet, n),
        lambda counts: dict.fromkeys(enumerations(Multiset(alphabet, counts)), ONE),
    )


def canonical_section(alphabet: Alphabet, n: int) -> PcsMatrix:
    """Right inverse of eq_delta: reads one fixed enumeration per multiset."""
    tgt = multiset_space(alphabet, n)
    canon = {canonical_enumeration(counts): counts for counts in tgt.labels}
    return PcsMatrix.build(
        tuple_space(alphabet, n), tgt, lambda t: {canon[t]: ONE} if t in canon else {}
    )


def multinomial_embedding(alphabet: Alphabet, n: int) -> PcsMatrix:
    """Canonical chain map from exact-size to bounded multiset coordinates:
    entry(mu, nu) = multinomial(mu - nu) when nu is included in mu, else 0."""
    tgt = bounded_multiset_space(alphabet, n)

    def row(mu):
        diffs = {nu: difference(mu, nu) for nu in tgt.labels}
        return {nu: Fraction(multinomial(d)) for nu, d in diffs.items() if d is not None}

    return PcsMatrix.build(multiset_space(alphabet, n), tgt, row)


# -- truncated exponential elements -----------------------------------------

@dataclass(frozen=True)
class BangElement:
    """Depth-truncated element of the exponential: a full coefficient table
    on multisets of size <= depth."""

    alphabet: Alphabet
    depth: int
    coeffs: tuple  # aligned with bounded_multiset_space(alphabet, depth)

    def __post_init__(self):
        # C(depth + k, k) multisets of size <= depth over k symbols
        expected = comb(self.depth + len(self.alphabet), len(self.alphabet))
        if len(self.coeffs) != expected:
            raise ValueError(
                f"need {expected} coefficients for depth {self.depth}, got {len(self.coeffs)}"
            )
        for v in self.coeffs:
            # an exact coefficient's sign is its numerator's
            if (v.numerator if type(v) is Fraction else v) < 0:
                raise ValueError("coefficients must be nonnegative")

    @cached_property
    def web(self) -> IndexSet:
        return bounded_multiset_space(self.alphabet, self.depth)

    @classmethod
    def on_web(cls, web: IndexSet, alphabet: Alphabet, depth: int, coeffs: tuple) -> "BangElement":
        """The element whose table is aligned with `web`, which the caller
        built as bounded_multiset_space(alphabet, depth); it becomes the
        element's web, so that nothing builds it again."""
        b = cls(alphabet, depth, coeffs)
        vars(b)["web"] = web  # where cached_property keeps its value
        return b

    @classmethod
    def from_table(cls, alphabet: Alphabet, depth: int, table: dict) -> "BangElement":
        web = bounded_multiset_space(alphabet, depth)
        coeffs = tuple(frac(table.get(counts, 0)) for counts in web.labels)
        return cls.on_web(web, alphabet, depth, coeffs)

    def at(self, counts: tuple[int, ...]):
        return self.coeffs[self.web.index(counts)]


def promotion(x: PcsVector, depth: int) -> BangElement:
    """Promotion of a subdistribution: coefficient prod_a x_a^mu(a) at mu.

    The coefficient at the empty multiset is 1 and the table is
    multiplicative: the coefficient at mu+nu is the product of those at mu
    and nu.
    """
    total = sum(x.coeffs, start=ZERO)
    _, _, tol = arithmetic(is_exact(x.coeffs))
    if total > 1 + tol:
        raise ValueError("promotion requires a subdistribution (coefficients sum <= 1)")
    alphabet = Alphabet(x.web.labels)
    web = bounded_multiset_space(alphabet, depth)
    coeffs = tuple(_monomial(x.coeffs, counts) for counts in web.labels)
    return BangElement.on_web(web, alphabet, depth, coeffs)


def restrict_to_depth(b: BangElement, n: int) -> PcsVector:
    """Limit-cone leg: the coefficient table cut down to multisets of size <= n."""
    if n > b.depth:
        raise ValueError(f"cannot restrict to depth {n}: element has depth {b.depth}")
    web = bounded_multiset_space(b.alphabet, n)
    src = b.web
    return PcsVector(web, tuple(b.coeffs[src.index(lab)] for lab in web.labels))


"""Generic draw-and-delete chains over a copointed object.

A copointed object is a carrier together with a weakening map into the unit.
Over it, level n of the chain is the equaliser of the n! coordinate
symmetries on the n-fold power of the carrier, and the chain step is the
unique map making the square

    DD_n . eq_n  =  eq_{n+1} . (id^n (x) weaken)

commute (composition written source-to-target).  One `Backend` builds the
chain in either coordinate system, which is its parameter: uniform
enumeration (`Backend.stoch`: kernels, eq_kernel split by coeq_kernel) or
delta coordinates (`Backend.pcoh`: coherence-space matrices, eq_delta split
by canonical_section).  The two differ by the multinomial diagonal
(`multinomial_diagonal`), so the step's closed form differs only by the
uniform draw probability mu(b)/(n+1).  A `DDChain` holds every map it is
built from: the equalisers, their sections, the delete maps and the steps.
The builder checks each square once, through the exact linear solve of the
square: a closed form equal to the unique solution satisfies it, so a wrong
closed form in either coordinate system cannot survive construction.  Next
to it, the builder checks the split law section_n . eq_n = id at every level
(`split_deviation`), which every factorisation rests on.  Every
factorisation through an equaliser, with or without a parameter Y, is the
one round trip of `DDChain.factor`.  The n-1 adjacent transpositions
generate the symmetries, so they have the same equaliser, and invariance
checks compare against them alone.

Chain limits are represented at a finite truncation as coherent families of
legs, not as new objects: for the truncated-exponential chain the coherent
families are exactly the depth-N BangElements, and for the urn chain over a
probability carrier they are the exchangeable urn laws.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from . import pcoh as _pcoh
from . import stoch as _stoch
from ._linalg import ONE, ZERO, LinearSolveError, identity, kron, matmul, max_abs_diff, solve_right
from .multiset import Alphabet, multinomial
from .pcoh import Pcs, PcsMatrix, canonical_section, eq_delta, ground_pcs, with_unit_pcs
from .spaces import IndexSet, multiset_space, symbol_space, tuple_space, unit_space
from .stoch import FinKernel, coeq_kernel, eq_kernel, verify_equalises


class ChainError(Exception):
    pass


@dataclass
class Backend:
    """Chain levels and steps over a symbol carrier, in one coordinate system.

    `matrix` is the matrix type (FinKernel or PcsMatrix), `equaliser` and
    `splitting` give eq_n and a section of it at level n, `uniform` says
    whether a step carries the uniform draw probability mu(b)/(n+1), and
    `generators` are the clique generators of the carrier (none on the
    kernel side).
    """

    alphabet: Alphabet
    matrix: type
    equaliser: Callable
    splitting: Callable
    uniform: bool
    generators: tuple = ()

    @classmethod
    def stoch(cls, alphabet: Alphabet) -> "Backend":
        """Kernel side: uniform-enumeration equaliser coordinates."""
        return cls(alphabet, FinKernel, eq_kernel, coeq_kernel, uniform=True)

    @classmethod
    def pcoh(cls, carrier: Pcs) -> "Backend":
        """Coherence-space side: delta equaliser coordinates."""
        return cls(
            carrier.alphabet,
            PcsMatrix,
            eq_delta,
            canonical_section,
            uniform=False,
            generators=carrier.generators,
        )

    @property
    def carrier(self) -> IndexSet:
        return symbol_space(self.alphabet)

    def level(self, n: int) -> IndexSet:
        return multiset_space(self.alphabet, n)

    def power(self, n: int) -> IndexSet:
        return tuple_space(self.alphabet, n)

    def delete_map(self, weaken, n: int):
        """id^n (x) weaken on flat tuple spaces."""
        wcol = [row.get(0, ZERO) for row in weaken.entries]
        return self.matrix.build(
            self.power(n + 1),
            self.power(n),
            lambda t: {t[:n]: wcol[t[n]]} if wcol[t[n]] else {},
        )

    def dd_closed_form(self, weaken, n: int):
        """Weighted remove-one step: entry(mu, mu - [b]) = w_b, times
        mu(b)/(n+1) in uniform coordinates."""
        wcol = [row.get(0, ZERO) for row in weaken.entries]

        def row(mu):
            return {
                mu[:b] + (c - 1,) + mu[b + 1:]: (
                    wcol[b] * Fraction(c, n + 1) if self.uniform else wcol[b]
                )
                for b, c in enumerate(mu)
                if c and wcol[b]
            }

        return self.matrix.build(self.level(n + 1), self.level(n), row)

    def validate_weaken(self, weaken) -> None:
        if weaken.source.labels != self.carrier.labels or len(weaken.target) != 1:
            raise ChainError("weakening must map the carrier to the unit")
        for g in self.generators:
            if weaken.push(g).coeffs[0] > 1:
                raise ChainError("weakening is not clique-preserving")


@dataclass(frozen=True)
class CopointedObject:
    backend: Backend
    weaken: object

    def __post_init__(self):
        self.backend.validate_weaken(self.weaken)


def stoch_copointed(alphabet: Alphabet) -> CopointedObject:
    """The free copointed object on the kernel side: the carrier itself with
    its unique (all-ones) weakening into the terminal unit."""
    backend = Backend.stoch(alphabet)
    return CopointedObject(backend, _stoch.discard_kernel(backend.carrier))


def pcoh_free_copointed(a: Pcs) -> CopointedObject:
    """The free copointed object a & 1 with the second projection as
    weakening; built concretely over the padded symbol web, whose last
    label is the pad."""
    carrier = with_unit_pcs(a)
    pad = carrier.web.labels[-1]
    weaken = PcsMatrix.build(
        carrier.web, unit_space(), lambda label: {"*": ONE} if label == pad else {}
    )
    return CopointedObject(Backend.pcoh(carrier), weaken)


def pcoh_ground_copointed(alphabet: Alphabet) -> CopointedObject:
    """The image of the kernel-side copointed structure: ground space with
    the all-ones weakening column."""
    backend = Backend.pcoh(ground_pcs(alphabet))
    weaken = PcsMatrix.build(backend.carrier, unit_space(), lambda _: {"*": ONE})
    return CopointedObject(backend, weaken)


# -- chain construction -------------------------------------------------------

@dataclass(frozen=True)
class SquareCheck:
    level: int
    law: str
    deviation: Fraction


@dataclass
class DDChain:
    """Levels 0..depth of the chain of a copointed object, with every map it
    is built from: the equalisers eq_n, their sections, the delete maps
    id^n (x) w and the steps DD_n.  `build_dd_chain` builds each once."""

    copointed: CopointedObject
    depth: int
    eqs: list
    sections: list
    deletes: list
    dds: list
    _by_y: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def backend(self):
        return self.copointed.backend

    def steps(self, kind: str) -> list:
        """The maps a cone of this kind commutes with: the chain steps for
        "dd", the delete maps id^n (x) w for "delete"."""
        return self.dds if kind == "dd" else self.deletes

    def validate(self) -> list[SquareCheck]:
        """Exact defining-square deviations at every level."""
        checks = []
        for n in range(self.depth):
            lhs = matmul(self.dds[n].entries, self.eqs[n].entries)
            rhs = matmul(self.eqs[n + 1].entries, self.deletes[n].entries)
            checks.append(
                SquareCheck(n, "DD_n . eq_n = eq_{n+1} . (id^n (x) w)", max_abs_diff(lhs, rhs))
            )
        return checks

    def tensored(self, y: IndexSet | None = None) -> tuple:
        """Sparse rows of eq_n, section_n and DD_n at every level, each (x) id_Y
        when Y is given; the tensored rows are built once per Y and kept."""
        maps = (self.eqs, self.sections, self.dds)
        if y is None:
            return tuple([m.entries for m in level_maps] for level_maps in maps)
        if len(y) not in self._by_y:
            ident = identity(len(y))
            self._by_y[len(y)] = tuple([kron(m.entries, ident, len(y)) for m in level_maps] for level_maps in maps)
        return self._by_y[len(y)]

    def factor(self, rows, n: int, y: IndexSet | None = None):
        """The unique rows' with rows' . (eq_n (x) id_Y) = rows, namely
        rows . (section_n (x) id_Y); without Y, through eq_n itself.

        Refuses rows that do not factor through the equaliser, that is rows
        whose round trip through the section and the equaliser does not give
        them back.
        """
        eqs, sections, _ = self.tensored(y)
        factored = matmul(rows, sections[n])
        if max_abs_diff(matmul(factored, eqs[n]), rows) != 0:
            where = f"level {n}" if y is None else f"level {n} (x) {y.name}"
            raise ChainError(f"factorisation through the equaliser fails at {where}")
        return factored


def split_deviation(eq, section) -> Fraction:
    """How far section_n . eq_n is from the identity on level n (composition
    source-to-target); zero iff the section splits the equaliser."""
    return max_abs_diff(matmul(eq.entries, section.entries), identity(len(eq.source)))


def build_dd_chain(copointed: CopointedObject, depth: int) -> DDChain:
    """Build levels 0..depth with their equalisers, sections and chain steps.

    The steps come from the backend closed form.  At every level the split
    law section_n . eq_n = id is checked exactly, and each defining square
    DD_n . eq_n = eq_{n+1} . (id^n (x) w) is checked once, exactly, by
    solving it for its unique solution (eq_n is a split mono): the closed
    form satisfies the square iff it equals that solution.  A failure is a
    backend bug and raises ChainError naming the level.
    """
    if depth < 0:
        raise ChainError("depth must be nonnegative")
    backend, alphabet = copointed.backend, copointed.backend.alphabet
    eqs = [backend.equaliser(alphabet, n) for n in range(depth + 1)]
    sections = [backend.splitting(alphabet, n) for n in range(depth + 1)]
    deletes = [backend.delete_map(copointed.weaken, n) for n in range(depth)]
    dds = [backend.dd_closed_form(copointed.weaken, n) for n in range(depth)]
    for n, (eq, section) in enumerate(zip(eqs, sections)):
        if split_deviation(eq, section) != 0:
            raise ChainError(f"the section does not split the equaliser at level {n}")
    for n in range(depth):
        try:
            solved = solve_right(eqs[n].entries, matmul(eqs[n + 1].entries, deletes[n].entries))
        except LinearSolveError as exc:
            raise ChainError(f"defining square unsolvable at level {n}: {exc}") from exc
        if max_abs_diff(solved, dds[n].entries) != 0:
            raise ChainError(
                f"defining square fails at level {n}: the closed form differs from its unique solution"
            )
    return DDChain(copointed, depth, eqs, sections, deletes, dds)


# -- chain morphisms -----------------------------------------------------------

@dataclass
class ChainMorphism:
    source: DDChain
    target: DDChain
    components: list

    def validate(self) -> list[SquareCheck]:
        checks = []
        for n in range(min(self.source.depth, self.target.depth)):
            lhs = matmul(self.components[n + 1].entries, self.target.dds[n].entries)
            rhs = matmul(self.source.dds[n].entries, self.components[n].entries)
            checks.append(
                SquareCheck(
                    n,
                    "DD_n^target . component_{n+1} = component_n . DD_n^source",
                    max_abs_diff(lhs, rhs),
                )
            )
        return checks


def lift_copointed_morphism(alpha, chain1: DDChain, chain2: DDChain) -> ChainMorphism:
    """Lift a copointed-object morphism to the unique chain morphism with
    eq_n^target . M_n = alpha^n . eq_n^source at every level.

    Rejects alpha unless weaken_target . alpha = weaken_source, naming the
    first carrier label where the two weakening columns differ.  The chain
    squares of the lift are left to `ChainMorphism.validate`.
    """
    b1, b2 = chain1.backend, chain2.backend
    w2_of_alpha = matmul(alpha.entries, chain2.copointed.weaken.entries)
    for i, (wx, wy) in enumerate(zip(w2_of_alpha, chain1.copointed.weaken.entries)):
        x, y = wx.get(0, ZERO), wy.get(0, ZERO)
        if x != y:
            label = b1.carrier.labels[i]
            raise ChainError(
                f"not a copointed morphism: weakenings disagree at carrier label {label!r}"
                f" ({x} vs {y})"
            )
    depth = min(chain1.depth, chain2.depth)
    components = []
    for n in range(depth + 1):
        power = reduce(lambda rows, _: kron(rows, alpha.entries, len(alpha.target)), range(n), identity(1))
        target_rows = matmul(chain1.eqs[n].entries, power)
        components.append(b2.matrix(b1.level(n), b2.level(n), chain2.factor(target_rows, n)))
    return ChainMorphism(chain1, chain2, components)


def multinomial_diagonal(alphabet: Alphabet, n: int) -> PcsMatrix:
    """Coordinate change between the two equaliser presentations:
    diag(multinomial(mu)) over size-n multisets.  Conjugating the uniform
    kernel chain by these diagonals gives the delta-coordinate chain."""
    space = multiset_space(alphabet, n)
    return PcsMatrix.build(space, space, lambda counts: {counts: Fraction(multinomial(counts))})


# -- cones and the two De Finetti formulations at finite truncation ------------

@dataclass
class Cone:
    """A compatible family of legs from an apex into the chain.

    kind "dd": legs target the multiset levels, DD_n . leg_{n+1} = leg_n.
    kind "delete": legs target the tuple powers, d_n . leg_{n+1} = leg_n.
    """

    chain: DDChain
    apex: IndexSet
    legs: list
    kind: str

    def validate(self) -> list[SquareCheck]:
        steps = self.chain.steps(self.kind)
        law = (
            "DD_n . leg_{n+1} = leg_n"
            if self.kind == "dd"
            else "(id^n (x) w) . leg_{n+1} = leg_n"
        )
        return [
            SquareCheck(n, law, max_abs_diff(matmul(self.legs[n + 1].entries, steps[n].entries), self.legs[n].entries))
            for n in range(len(self.legs) - 1)
        ]

    def deviation(self) -> Fraction:
        return max((c.deviation for c in self.validate()), default=ZERO)


def _close_down(top_rows, steps) -> list:
    """Rows of the family generated by a top leg: leg_n = leg_{n+1} . step_n."""
    legs = [top_rows]
    for step in reversed(steps):
        legs.insert(0, matmul(legs[0], step))
    return legs


def cone_from_top(chain: DDChain, top, kind: str) -> Cone:
    """The cone of the given kind generated by an arbitrary top leg, closing
    downwards: onto the multiset levels for "dd", the tuple powers for "delete"."""
    space = chain.backend.level if kind == "dd" else chain.backend.power
    rows = _close_down(top.entries, [step.entries for step in chain.steps(kind)])
    legs = [chain.backend.matrix(top.source, space(n), r) for n, r in enumerate(rows[:-1])]
    return Cone(chain, top.source, legs + [top], kind)


def factor_delete_cone(cone: Cone) -> Cone:
    """Factor a symmetric delete-cone through the equalisers, leg by leg.

    Every leg must equalise all coordinate symmetries at its level; the
    factorisation eq_n . leg_n' = leg_n is unique because the equalisers are
    split monos, and the factored family is a DD-cone.  Invariance is checked
    by verify_equalises, so a leg is accepted iff it is fixed by every
    symmetry; a rejected leg is reported with the transposition that moves
    it furthest.
    """
    if cone.kind != "delete":
        raise ChainError("expected a delete-cone")
    chain = cone.chain
    for n, leg in enumerate(cone.legs):
        report = verify_equalises(leg, n)
        if not report.equalises:
            raise ChainError(
                f"leg at level {n} does not equalise the symmetry {report.witness_perm}"
            )
    legs = [
        chain.backend.matrix(cone.apex, chain.backend.level(n), chain.factor(leg.entries, n))
        for n, leg in enumerate(cone.legs)
    ]
    out = Cone(chain, cone.apex, legs, "dd")
    if out.deviation() != 0:
        raise ChainError("factored family is not a DD-cone")
    return out


def expand_dd_cone(cone: Cone) -> Cone:
    """Compose a DD-cone with the equalisers to get the symmetric delete-cone
    it presents on the tuple powers; inverse to factor_delete_cone."""
    if cone.kind != "dd":
        raise ChainError("expected a DD-cone")
    chain = cone.chain
    legs = [
        chain.backend.matrix(
            cone.apex, chain.backend.power(n), matmul(leg.entries, chain.eqs[n].entries)
        )
        for n, leg in enumerate(cone.legs)
    ]
    out = Cone(chain, cone.apex, legs, "delete")
    if out.deviation() != 0:
        raise ChainError("expanded family is not a delete-cone")
    return out


# -- parametrized variants ----------------------------------------------------

def verify_tensor_parametrized(chain: DDChain, y_space: IndexSet, samples: int, seed: int) -> list[SquareCheck]:
    """Randomized check that equaliser factorisations and cone round trips
    commute with tensoring by Y.

    Each sample factors h . (eq_n (x) id_Y) for a random h into level n
    (x) Y, then closes a random top leg into a Y-parametrized DD-cone and
    factors each leg back from its expansion.  Both round trips run through
    `DDChain.factor`, which raises ChainError on a map that does not factor;
    each check records how far the factor is from the map it started from.
    """
    rng = random.Random(seed)
    eqs, _, dds = chain.tensored(y_space)
    checks = []
    for s in range(samples):
        n = 1 + (s % chain.depth) if chain.depth else 0
        apex_size = rng.choice((1, 2))
        h_rows = _random_stochastic_rows(rng, apex_size, len(eqs[n]))
        factor = chain.factor(matmul(h_rows, eqs[n]), n, y_space)
        checks.append(SquareCheck(n, "h . (eq_n (x) id_Y) factors back to h", max_abs_diff(factor, h_rows)))
        top_rows = _random_stochastic_rows(rng, apex_size, len(eqs[chain.depth]))
        for m, leg in enumerate(_close_down(top_rows, dds)):
            back = chain.factor(matmul(leg, eqs[m]), m, y_space)
            checks.append(
                SquareCheck(m, "leg_m . (eq_m (x) id_Y) factors back to leg_m", max_abs_diff(back, leg))
            )
    return checks


def _random_stochastic_rows(rng: random.Random, nrows: int, ncols: int):
    rows = []
    for _ in range(nrows):
        raw = [Fraction(rng.randint(0, 6)) for _ in range(ncols)]
        total = sum(raw)
        if total == 0:
            raw[rng.randrange(ncols)] = Fraction(1)
            total = Fraction(1)
        rows.append({j: v / total for j, v in enumerate(raw) if v})
    return tuple(rows)


# -- reified truncation limits --------------------------------------------------

def pad_index_bijection(alphabet: Alphabet, n: int):
    """Index map from multisets of size <= n over the alphabet to size-n
    multisets over the padded alphabet (append pads up to size n)."""
    padded = alphabet.pad()
    bounded = _pcoh.bounded_multiset_space(alphabet, n)
    full = multiset_space(padded, n)
    mapping = []
    for counts in bounded.labels:
        padded_counts = counts + (n - sum(counts),)
        mapping.append(full.index(padded_counts))
    return bounded, full, tuple(mapping)


def bang_cone(b, chain: DDChain) -> Cone:
    """The coherent family presented by a truncated exponential element on
    the chain over the free copointed object of its ground space."""
    alphabet = b.alphabet
    if chain.depth > b.depth:
        raise ChainError("chain deeper than the element's truncation")
    legs = []
    for n in range(chain.depth + 1):
        bounded, full, mapping = pad_index_bijection(alphabet, n)
        top = {full.labels[j]: b.at(counts) for counts, j in zip(bounded.labels, mapping)}
        legs.append(chain.backend.matrix.build(unit_space(), full, lambda _: top))
    cone = Cone(chain, unit_space(), legs, "dd")
    if cone.deviation() != 0:
        raise ChainError("element table is not restriction-coherent")
    return cone


def bang_from_cone(cone: Cone):
    """Rebuild the truncated exponential element from a coherent family on
    the free-copointed chain; inverse to bang_cone at equal depth."""
    chain = cone.chain
    padded = chain.backend.alphabet
    alphabet = Alphabet(padded.symbols[:-1])
    depth = chain.depth
    bounded, full, mapping = pad_index_bijection(alphabet, depth)
    top = cone.legs[depth].entries[0]
    table = {counts: top.get(mapping[i], ZERO) for i, counts in enumerate(bounded.labels)}
    return _pcoh.BangElement.from_table(alphabet, depth, table)


def multinomial_cone(r, chain: DDChain) -> Cone:
    """The exchangeable urn-law family of an i.i.d. source, as a DD-cone;
    how far it is from commuting with the steps is its `Cone.deviation`."""
    legs = [_stoch.multinomial_law(r, n) for n in range(chain.depth + 1)]
    return Cone(chain, unit_space(), legs, "dd")

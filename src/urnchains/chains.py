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
The builder checks the split law section_n . eq_n = id at every level
(`split_deviation`) first, which makes every factorisation through eq_n
unique; each one, with or without a parameter Y, is the split round trip of
`DDChain.factor`, which proves each defining square, so a wrong closed form
cannot survive construction.  The n-1 adjacent transpositions generate the
symmetries, so they have the same equaliser, and invariance checks compare
against them alone.  Every validation returns bare exact deviations, one per
level with the level as the list index (`DDChain.validate`,
`ChainMorphism.validate`), or their maximum (`Cone.deviation`); the law each
one checks is stated in its docstring and in the report of `verify`.

Chain limits are represented at a finite truncation as coherent families of
legs, not as new objects: for the truncated-exponential chain the coherent
families are exactly the depth-N BangElements, and for the urn chain over a
probability carrier they are the exchangeable urn laws.  A `Cone` is its
legs' sparse rows, one tuple of rows per level, the form that
`DDChain.factor`, `matmul` and `max_abs_diff` take, so no matrix is built on
the way through a round trip.  A leg of a delete-cone is accepted by the
factorisation round trip alone, which refuses it iff a symmetry moves it.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from . import pcoh as _pcoh
from . import stoch as _stoch
from ._linalg import ONE, ZERO, identity, kron, matmul, max_abs_diff
from .multiset import Alphabet, multinomial
from .pcoh import Pcs, PcsMatrix, canonical_section, eq_delta, ground_pcs, with_unit_pcs
from .spaces import IndexSet, multiset_space, symbol_space, tuple_space, unit_space
from .stoch import FinKernel, adjacent_transpositions, coeq_kernel, eq_kernel, permute_tuple_columns


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

    def validate(self) -> list:
        """The exact deviation of the defining square
        DD_n . eq_n = eq_{n+1} . (id^n (x) w) at each level n, the list index."""
        return [
            max_abs_diff(
                matmul(self.dds[n].entries, self.eqs[n].entries),
                matmul(self.eqs[n + 1].entries, self.deletes[n].entries),
            )
            for n in range(self.depth)
        ]

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

    The steps come from the backend closed form.  The split law
    section_n . eq_n = id is checked exactly at every level first.  Given
    it, the defining square X . eq_n = R, with R = eq_{n+1} . (id^n (x) w),
    has at most one solution, R . section_n, and the split round trip of
    `DDChain.factor` proves it one; the closed form DD_n must equal it.  A
    failure is a backend bug and raises ChainError naming the level.
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
    chain = DDChain(copointed, depth, eqs, sections, deletes, dds)
    for n in range(depth):
        try:
            solved = chain.factor(matmul(eqs[n + 1].entries, deletes[n].entries), n)
        except ChainError as exc:
            raise ChainError(f"defining square unsolvable at level {n}: {exc}") from exc
        if max_abs_diff(solved, dds[n].entries) != 0:
            raise ChainError(
                f"defining square fails at level {n}: the closed form differs from its unique solution"
            )
    return chain


# -- chain morphisms -----------------------------------------------------------

@dataclass
class ChainMorphism:
    source: DDChain
    target: DDChain
    components: list

    def validate(self) -> list:
        """The exact deviation of the chain square
        DD_n^target . component_{n+1} = component_n . DD_n^source at each
        level n, the list index."""
        return [
            max_abs_diff(
                matmul(self.components[n + 1].entries, self.target.dds[n].entries),
                matmul(self.source.dds[n].entries, self.components[n].entries),
            )
            for n in range(min(self.source.depth, self.target.depth))
        ]


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
    power = identity(1)  # alpha^(x)n, one tensor factor more at each level
    for n in range(depth + 1):
        if n:
            power = kron(power, alpha.entries, len(alpha.target))
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
    """A compatible family of legs into the chain, each leg the sparse rows
    of a map from one apex, one row per apex point.

    kind "dd": legs target the multiset levels, DD_n . leg_{n+1} = leg_n.
    kind "delete": legs target the tuple powers, d_n . leg_{n+1} = leg_n.
    """

    chain: DDChain
    legs: list
    kind: str

    def deviation(self) -> Fraction:
        """The worst deviation of leg_{n+1} . step_n = leg_n over the levels:
        DD_n . leg_{n+1} = leg_n for "dd", (id^n (x) w) . leg_{n+1} = leg_n
        for "delete"."""
        steps = [step.entries for step in self.chain.steps(self.kind)]
        legs = self.legs
        return max(
            (max_abs_diff(matmul(legs[n + 1], steps[n]), legs[n]) for n in range(len(legs) - 1)),
            default=ZERO,
        )


def _close_down(top_rows, steps) -> list:
    """Rows of the family generated by a top leg: leg_n = leg_{n+1} . step_n."""
    legs = [top_rows]
    for step in reversed(steps):
        legs.insert(0, matmul(legs[0], step))
    return legs


def cone_from_top(chain: DDChain, top_rows, kind: str) -> Cone:
    """The cone of the given kind generated by the rows of an arbitrary top
    leg, closing downwards: onto the multiset levels for "dd", the tuple
    powers for "delete"."""
    return Cone(chain, _close_down(top_rows, [step.entries for step in chain.steps(kind)]), kind)


def factor_delete_cone(cone: Cone) -> Cone:
    """Factor a symmetric delete-cone through the equalisers, leg by leg.

    A leg is accepted by the round trip of `DDChain.factor`: it factors iff
    leg . section_n . eq_n = leg.  The equaliser eq_n equalises the
    coordinate symmetries, so that holds iff every symmetry fixes the leg;
    the factorisation is unique because eq_n is a split mono, and the
    factored family is a DD-cone.  A refused leg is reported with the
    adjacent transposition that moves it furthest.
    """
    if cone.kind != "delete":
        raise ChainError("expected a delete-cone")
    chain = cone.chain
    legs = []
    for n, leg in enumerate(cone.legs):
        try:
            legs.append(chain.factor(leg, n))
        except ChainError:
            space = chain.backend.power(n)
            swap = max(
                adjacent_transpositions(n),
                key=lambda perm: max_abs_diff(permute_tuple_columns(leg, space, perm), leg),
            )
            raise ChainError(f"leg at level {n} does not equalise the symmetry {swap}") from None
    out = Cone(chain, legs, "dd")
    if out.deviation() != 0:
        raise ChainError("factored family is not a DD-cone")
    return out


def expand_dd_cone(cone: Cone) -> Cone:
    """Compose a DD-cone with the equalisers to get the symmetric delete-cone
    it presents on the tuple powers; inverse to factor_delete_cone."""
    if cone.kind != "dd":
        raise ChainError("expected a DD-cone")
    legs = [matmul(leg, eq.entries) for leg, eq in zip(cone.legs, cone.chain.eqs)]
    out = Cone(cone.chain, legs, "delete")
    if out.deviation() != 0:
        raise ChainError("expanded family is not a delete-cone")
    return out


# -- parametrized variants ----------------------------------------------------

def verify_tensor_parametrized(chain: DDChain, y_space: IndexSet, samples: int, seed: int) -> list:
    """Randomized check that equaliser factorisations and cone round trips
    commute with tensoring by Y.

    Each sample factors h . (eq_n (x) id_Y) for a random h into level n
    (x) Y, so that it factors back to h, then closes a random top leg into a
    Y-parametrized DD-cone, so that leg_m . (eq_m (x) id_Y) factors back to
    leg_m at every level m.  Both round trips run through `DDChain.factor`,
    which raises ChainError on a map that does not factor; the result lists,
    per round trip, how far the factor is from the map it started from.
    """
    rng = random.Random(seed)
    eqs, _, dds = chain.tensored(y_space)
    deviations = []
    for s in range(samples):
        n = 1 + (s % chain.depth) if chain.depth else 0
        apex_size = rng.choice((1, 2))
        h_rows = _random_stochastic_rows(rng, apex_size, len(eqs[n]))
        deviations.append(max_abs_diff(chain.factor(matmul(h_rows, eqs[n]), n, y_space), h_rows))
        top_rows = _random_stochastic_rows(rng, apex_size, len(eqs[chain.depth]))
        for m, leg in enumerate(_close_down(top_rows, dds)):
            deviations.append(max_abs_diff(chain.factor(matmul(leg, eqs[m]), m, y_space), leg))
    return deviations


def _random_stochastic_rows(rng: random.Random, nrows: int, ncols: int):
    rows = []
    for _ in range(nrows):
        raw = [rng.randint(0, 6) for _ in range(ncols)]
        total = sum(raw)
        if total == 0:
            raw[rng.randrange(ncols)] = total = 1
        rows.append({j: Fraction(v, total) for j, v in enumerate(raw) if v})
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
        bounded, _, mapping = pad_index_bijection(alphabet, n)
        top = sorted(zip(mapping, map(b.at, bounded.labels)))
        legs.append(({j: v for j, v in top if v},))
    cone = Cone(chain, legs, "dd")
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
    _, _, mapping = pad_index_bijection(alphabet, depth)
    top = cone.legs[depth][0]
    return _pcoh.BangElement.of(alphabet, depth, (top.get(j, ZERO) for j in mapping))


def multinomial_cone(r, chain: DDChain) -> Cone:
    """The exchangeable urn-law family of an i.i.d. source, as a DD-cone;
    how far it is from commuting with the steps is its `Cone.deviation`."""
    legs = [_stoch.multinomial_law(r, n).entries for n in range(chain.depth + 1)]
    return Cone(chain, legs, "dd")

"""Mixing measures inside the truncated exponential and the way back.

A probability measure on the simplex embeds into the depth-N exponential as
a finite mixture of promotions; the image is characterised among all
elements by the totality recurrence

    coeffs(mu) = sum_x coeffs(mu + [x])        (and coeffs([]) = 1).

The inverse direction is a truncated moment problem: given a total element,
find an atomic measure on a rational grid of the simplex whose mixture of
promotions reproduces the coefficient table.  Existence at truncation is
certified constructively by a feasible min-max linear program; failure at a
given grid is reported as "increase the resolution", never as
non-existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from ._linalg import ONE, ZERO, frac, matmul
from .chains import Cone, DDChain, build_dd_chain, pcoh_ground_copointed
from .multiset import Alphabet, enumerate_multisets
from .optim import feasibility_minmax
from .pcoh import (
    BangElement,
    multinomial_embedding,
    restrict_to_depth,
)
from .spaces import bounded_multiset_space, multiset_space, unit_space
from .stoch import AtomicMeasure, ProbVector

TOTALITY_TOL = 1e-9
RECOVERY_TOL = 1e-6


class MomentProblemError(Exception):
    pass


def embed_mixing_measure(
    mixing: AtomicMeasure, depth: int, alphabet: Alphabet | None = None
) -> BangElement:
    """The finite mixture of promotions of an atomic mixing measure.

    coefficient(mu) = sum_j w_j prod_a r_j(a)^mu(a); the coefficient at the
    empty multiset is the total weight.  Subprobability measures are
    admitted (they model partial behaviours) but their images fail the
    totality check, correctly.
    """
    if mixing.atoms:
        alphabet = mixing.alphabet
    elif alphabet is None:
        raise ValueError("empty measure needs an explicit alphabet")
    web = bounded_multiset_space(alphabet, depth)
    coeffs = [ZERO] * len(web)
    for point, w in mixing.atoms:
        for i, counts in enumerate(web.labels):
            v = frac(w) if isinstance(w, (int, Fraction)) else w
            for r, c in zip(point.weights, counts):
                if c:
                    v *= frac(r) ** c if isinstance(r, (int, Fraction)) else r**c
            coeffs[i] += v
    return BangElement(alphabet, depth, tuple(coeffs))


@dataclass(frozen=True)
class TotalityReport:
    total: bool
    defect: object
    witness: tuple[int, ...] | None  # count vector of the worst multiset
    lhs: object = None
    rhs: object = None

    def __str__(self) -> str:
        if self.total:
            return "total (defect 0)"
        return (
            f"not total: at {self.witness} the coefficient is {self.lhs} but the"
            f" successors sum to {self.rhs} (defect {self.defect})"
        )


def check_totality(b: BangElement, tol=None) -> TotalityReport:
    """Verify coeffs([]) = 1 and the one-step recurrence below the truncation.

    The recurrence coeffs(mu) = sum_x coeffs(mu + [x]) for every |mu| < depth
    is exactly the compatibility of the element's level family with the
    draw-and-delete chain; the worst-violating multiset is reported.
    """
    if tol is None:
        tol = ZERO if b.exact else TOTALITY_TOL
    web = b.web
    k = len(b.alphabet)
    worst = ZERO
    witness = None
    lhs_w = rhs_w = None
    empty = (0,) * k
    norm = b.at(empty)
    defect = abs(norm - 1)
    if defect > worst:
        worst, witness, lhs_w, rhs_w = defect, empty, norm, 1
    for counts in web.labels:
        if sum(counts) >= b.depth:
            continue
        lhs = b.at(counts)
        rhs = ZERO
        for x in range(k):
            succ = list(counts)
            succ[x] += 1
            rhs += b.at(tuple(succ))
        defect = abs(lhs - rhs)
        if defect > worst:
            worst, witness, lhs_w, rhs_w = defect, counts, lhs, rhs
    if worst > tol:
        return TotalityReport(False, worst, witness, lhs_w, rhs_w)
    return TotalityReport(True, worst, None)


def damp(b: BangElement, p) -> BangElement:
    """Scale the coefficient at mu by p^|mu|; models a behaviour that keeps
    refusing to answer with probability 1-p at every call.  Damping a total
    element by p < 1 breaks totality with defect (1-p) times the damped
    coefficient."""
    p = frac(p)
    coeffs = tuple(
        p ** sum(counts) * v for counts, v in zip(b.web.labels, b.coeffs)
    )
    return BangElement(b.alphabet, b.depth, coeffs)


def cone_from_total_element(b: BangElement, chain: DDChain | None = None, tol=None) -> Cone:
    """The level family of a total element on the delta De Finetti chain.

    Leg n is the restriction of the table to multisets of size exactly n;
    the chain compatibility of these legs is the totality recurrence itself,
    so non-total input is rejected with the witnessing multiset.
    """
    report = check_totality(b, tol=tol)
    if not report.total:
        raise MomentProblemError(f"element is not total: {report}")
    if chain is None:
        chain = build_dd_chain(pcoh_ground_copointed(b.alphabet), b.depth)
    if chain.depth > b.depth:
        raise MomentProblemError("chain is deeper than the element")
    legs = []
    for n in range(chain.depth + 1):
        space = multiset_space(b.alphabet, n)
        row = tuple(b.at(counts) for counts in space.labels)
        legs.append(chain.backend.make(unit_space(), space, (row,)))
    return Cone(chain, unit_space(), legs, "dd")


# -- the two-symbol moment view ------------------------------------------------

@dataclass(frozen=True)
class MomentTable:
    """Pure-first-symbol moments m_0..m_N of a two-symbol total element."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("need at least m_0")
        if self.values[0] != 1:
            raise ValueError("m_0 must be 1 (probability normalisation)")

    @property
    def depth(self) -> int:
        return len(self.values) - 1


def moment_sequence(b: BangElement, tol=None) -> MomentTable:
    """Read m_a = coeffs([first-symbol^a]) off a total two-symbol element."""
    if len(b.alphabet) != 2:
        raise MomentProblemError("moment tables are for two-symbol alphabets")
    report = check_totality(b, tol=tol)
    if not report.total:
        raise MomentProblemError(f"element is not total: {report}")
    return MomentTable(tuple(b.at((a, 0)) for a in range(b.depth + 1)))


def bang_from_moments(m: MomentTable, alphabet: Alphabet | None = None) -> BangElement:
    """Rebuild the full table from pure moments by alternating finite
    differences: coefficient at [s^a, t^b] is sum_i (-1)^i C(b,i) m_{a+i}.

    Inverse to moment_sequence on total elements.  The first reconstructed
    coefficient that comes out negative (web order: by size, then canonical)
    is reported; a completely monotone sequence never triggers this.
    """
    alphabet = alphabet or Alphabet.of("t", "f")
    if len(alphabet) != 2:
        raise MomentProblemError("moment tables are for two-symbol alphabets")
    depth = m.depth
    web = bounded_multiset_space(alphabet, depth)
    table = {}
    for counts in web.labels:
        a, b_ = counts
        value = sum(
            ((-1) ** i * comb(b_, i) * frac(m.values[a + i]) for i in range(b_ + 1)),
            start=ZERO,
        )
        if value < 0:
            raise MomentProblemError(
                f"moment sequence is not completely monotone: coefficient at"
                f" {counts} reconstructs to {value}"
            )
        table[counts] = value
    return BangElement.from_table(alphabet, depth, table)


# -- measure recovery ----------------------------------------------------------

@dataclass(frozen=True)
class Recovery:
    measure: AtomicMeasure
    residual: object
    grid_resolution: int
    diagnostic: str | None = None

    @property
    def within_tolerance(self) -> bool:
        return self.diagnostic is None


def simplex_grid(alphabet: Alphabet, resolution: int) -> list[tuple]:
    """All proper distributions with denominator `resolution`."""
    return [
        tuple(Fraction(c, resolution) for c in m.counts)
        for m in enumerate_multisets(alphabet, resolution)
    ]


def recovery_lp_shape(b: BangElement, grid_resolution: int) -> tuple[int, int]:
    """(variables, constraints) of the LP recover_measure would solve.

    One weight per grid point plus the epigraph variable, two rows per web
    point plus the row fixing the total weight (feasibility_minmax); computed
    without building the grid, so oversized problems can be refused first.
    """
    k = len(b.alphabet)
    return comb(grid_resolution + k - 1, k - 1) + 1, 2 * len(b.coeffs) + 1


def recover_measure(
    b: BangElement,
    grid_resolution: int,
    tol=RECOVERY_TOL,
    mode: str = "float",
    totality_tol=None,
) -> Recovery:
    """Solve the inverse moment problem on a rational grid of the simplex.

    Finds probability weights on the grid minimising the sup-norm deviation
    between the grid mixture of promotions and the target table (epigraph
    linear program).  Weights below tol are pruned and the remaining ones
    renormalised; the reported residual is recomputed for the returned
    measure.  A residual above tol only means this grid is too coarse.
    """
    if grid_resolution < 2:
        raise MomentProblemError("grid resolution must be at least 2")
    report = check_totality(b, tol=totality_tol)
    if not report.total:
        raise MomentProblemError(f"element is not total: {report}")
    alphabet = b.alphabet
    web = b.web
    grid = simplex_grid(alphabet, grid_resolution)
    conv = (lambda v: frac(v)) if mode == "exact" else float
    columns = []
    for point in grid:
        col = []
        for counts in web.labels:
            v = ONE
            for p, c in zip(point, counts):
                if c:
                    v *= p**c
            col.append(conv(v))
        columns.append(tuple(col))
    target = tuple(conv(v) for v in b.coeffs)
    result = feasibility_minmax(columns, target, mode=mode)
    if result.status != "optimal":
        raise MomentProblemError(f"recovery program ended {result.status}")
    kept = [
        (point, w)
        for point, w in zip(grid, result.weights)
        if w >= (frac(tol) if mode == "exact" else float(tol))
    ]
    total = sum(w for _, w in kept)
    if not kept or total == 0:
        raise MomentProblemError("all weights pruned; lower tol or refine the grid")
    atoms = tuple(
        (ProbVector(alphabet, point), w / total if mode == "exact" else float(w / total))
        for point, w in kept
    )
    measure = AtomicMeasure(atoms)
    achieved = _achieved_residual(measure, b, mode)
    diagnostic = None
    cmp_tol = frac(tol) if mode == "exact" else float(tol)
    if achieved > cmp_tol:
        diagnostic = (
            f"residual {achieved} above tolerance at resolution {grid_resolution};"
            " increase the grid resolution"
        )
    return Recovery(measure, achieved, grid_resolution, diagnostic)


def _achieved_residual(measure: AtomicMeasure, b: BangElement, mode: str):
    image = embed_mixing_measure(measure, b.depth)
    worst = ZERO if mode == "exact" else 0.0
    for x, y in zip(image.coeffs, b.coeffs):
        d = abs((x - y) if mode == "exact" else float(x) - float(y))
        if d > worst:
            worst = d
    return worst


# -- the embedding's chain squares ----------------------------------------------

@dataclass(frozen=True)
class EmbeddingCheck:
    level: int
    deviation: object

    @property
    def holds(self) -> bool:
        return self.deviation == 0


def verify_embedding_squares(mixing: AtomicMeasure, depth: int) -> list[EmbeddingCheck]:
    """Exact check that restricting the embedded measure to each depth equals
    pushing its level law through the multinomial embedding.

    For every n <= depth:
      restrict_to_depth(embed(mixing), n)
        = (level-n law of mixing, delta coordinates) . multinomial_embedding(n)
    """
    if not mixing.is_probability:
        raise ValueError("embedding squares are stated for probability mixings")
    alphabet = mixing.alphabet
    image = embed_mixing_measure(mixing, depth)
    checks = []
    for n in range(depth + 1):
        lhs = restrict_to_depth(image, n).coeffs
        level = multiset_space(alphabet, n)
        leg = []
        for counts in level.labels:
            v = ZERO
            for point, w in mixing.atoms:
                term = frac(w)
                for r, c in zip(point.weights, counts):
                    if c:
                        term *= frac(r) ** c
                v += term
            leg.append(v)
        rhs = matmul((tuple(leg),), multinomial_embedding(alphabet, n).entries)[0]
        dev = max(
            (abs(x - y) for x, y in zip(lhs, rhs)),
            default=ZERO,
        )
        checks.append(EmbeddingCheck(n, dev))
    return checks

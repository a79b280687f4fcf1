"""Mixing measures inside the truncated exponential and the way back.

A probability measure on the simplex embeds into the depth-N exponential as
a finite mixture of promotions, and every such image satisfies the totality
recurrence

    coeffs(mu) = sum_x coeffs(mu + [x])        (and coeffs([]) = 1).

At finite depth the recurrence does not characterise the image.  The depth-2
element of the urn holding one t and one f (coefficient 1/2 at [t], [f] and
[t,f], 0 at [t,t] and [f,f]) is total, but no mixture of promotions has it
as image: E[p^2] >= E[p]^2 keeps the coefficient at [t,t] at 1/4 or more
once the one at [t] is 1/2.

The inverse direction is a truncated moment problem: given a total element,
find an atomic measure on a rational grid of the simplex whose mixture of
promotions reproduces the coefficient table, by a min-max linear program.  A
residual above tolerance means the grid is too coarse or the element is the
image of no mixing measure; the program does not tell the two apart (the urn
above has residual 1/4 at every grid).

Exact tables are checked at tolerance zero and float ones at
`_linalg.FLOAT_TOL`, the package's one exact-versus-float policy.  Exact
arithmetic runs on integer numerators: the embedding of exact atoms is built
by `_exact_mixture` over one common denominator per multiset size,
and the totality recurrence of an exact table runs on the table times the
lcm of its denominators, so its defects are ints until they are reported as
Fractions.  Float inputs keep the float loops, operation for operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from ._linalg import ZERO, _monomial, arithmetic, frac, is_exact
from .chains import Cone, DDChain, SquareCheck, build_dd_chain, pcoh_ground_copointed
from .multiset import Alphabet, enumerate_multisets, multiset_count
from .optim import MAX_CONSTRAINTS, MAX_VARIABLES, feasibility_minmax
from .pcoh import BangElement, PcsVector, multinomial_embedding, restrict_to_depth
from .spaces import bounded_multiset_space, multiset_space, unit_space
from .stoch import AtomicMeasure, ProbVector

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
    atoms = [(point.weights, w) for point, w in mixing.atoms]
    if is_exact(v for point, w in atoms for v in (w, *point)):
        return BangElement.on_web(web, alphabet, depth, _exact_mixture(web, atoms))
    starts = [(point, frac(w) if is_exact((w,)) else w) for point, w in atoms]
    coeffs = tuple(
        sum((_monomial(point, counts, start) for point, start in starts), ZERO)
        for counts in web.labels
    )
    return BangElement.on_web(web, alphabet, depth, coeffs)


def _exact_mixture(web, atoms) -> tuple:
    """The exact table sum_j w_j prod_a r_j(a)^mu(a) over the labels mu of
    `web`, a bounded multiset web, of exact (point r_j, weight w_j) atoms.

    Each point is written over its own common denominator d_j, so that its
    monomial at mu is an integer over d_j^|mu|, built with one int product
    per label: every nonempty label is a smaller label plus its first
    symbol.  At each size s the atoms are summed over the common denominator
    D_s = lcm_j(den(w_j) d_j^s), one Fraction per coefficient.
    """
    labels = web.labels
    # for each nonempty label: the index of the label less its first symbol, and that symbol
    steps = []
    for counts in labels[1:]:
        x = next(x for x, c in enumerate(counts) if c)
        steps.append((web.index(counts[:x] + (counts[x] - 1,) + counts[x + 1 :]), x))
    terms = []
    for point, w in atoms:
        d = lcm(*(v.denominator for v in point))
        nums = [v.numerator * (d // v.denominator) for v in point]
        monomials = [1]
        for parent, x in steps:
            monomials.append(monomials[parent] * nums[x])
        terms.append((w.numerator, w.denominator, d, monomials))
    coeffs = []
    last = None
    for i, counts in enumerate(labels):
        size = sum(counts)
        if size != last:
            last = size
            den = lcm(*(q * d**size for _, q, d, _ in terms))
            scales = [(p * (den // (q * d**size)), monomials) for p, q, d, monomials in terms]
        coeffs.append(Fraction(sum(c * monomials[i] for c, monomials in scales), den))
    return tuple(coeffs)


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
    draw-and-delete chain; the worst-violating multiset is reported.  The
    tolerance defaults to the one `_linalg.arithmetic` gives the table.
    """
    exact = is_exact(b.coeffs)
    if tol is None:
        _, _, tol = arithmetic(exact)
    if exact:
        # the recurrence on ints: the table times the lcm of its denominators
        scale = lcm(*(v.denominator for v in b.coeffs))
        values = [v.numerator * (scale // v.denominator) for v in b.coeffs]
        worst, witness, lhs, rhs = _worst_defect(b, values, scale, 0)
        worst, lhs, rhs = (v if v is None else Fraction(v, scale) for v in (worst, lhs, rhs))
    else:
        worst, witness, lhs, rhs = _worst_defect(b, b.coeffs, 1, ZERO)
    if worst > tol:
        return TotalityReport(False, worst, witness, lhs, rhs)
    return TotalityReport(True, worst, None)


def _worst_defect(b: BangElement, values, one, zero):
    """(defect, witness, lhs, rhs) of the first of the worst violations of
    values[empty] = one and of the recurrence, for `values` aligned with
    b.web; witness, lhs and rhs are None when no defect exceeds `zero`."""
    web = b.web
    k = len(b.alphabet)
    worst = zero
    witness = lhs_w = rhs_w = None
    empty = (0,) * k
    norm = values[web.index(empty)]
    defect = abs(norm - one)
    if defect > worst:
        worst, witness, lhs_w, rhs_w = defect, empty, norm, one
    for i, counts in enumerate(web.labels):
        if sum(counts) >= b.depth:
            continue
        lhs = values[i]
        rhs = zero
        for x in range(k):
            rhs += values[web.index(counts[:x] + (counts[x] + 1,) + counts[x + 1 :])]
        defect = abs(lhs - rhs)
        if defect > worst:
            worst, witness, lhs_w, rhs_w = defect, counts, lhs, rhs
    return worst, witness, lhs_w, rhs_w


def _require_total(report: TotalityReport) -> None:
    if not report.total:
        raise MomentProblemError(f"element is {report}")


def damp(b: BangElement, p) -> BangElement:
    """Scale the coefficient at mu by p^|mu|; models a behaviour that keeps
    refusing to answer with probability 1-p at every call.  Damping a total
    element by p < 1 breaks totality with defect (1-p) times the damped
    coefficient."""
    p = frac(p)
    coeffs = tuple(
        p ** sum(counts) * v for counts, v in zip(b.web.labels, b.coeffs)
    )
    return BangElement.on_web(b.web, b.alphabet, b.depth, coeffs)


def cone_from_total_element(b: BangElement, chain: DDChain | None = None) -> Cone:
    """The level family of a total element on the delta De Finetti chain.

    Leg n is the restriction of the table to multisets of size exactly n;
    the chain compatibility of these legs is the totality recurrence itself,
    so non-total input is rejected with the witnessing multiset.
    """
    _require_total(check_totality(b))
    if chain is None:
        chain = build_dd_chain(pcoh_ground_copointed(b.alphabet), b.depth)
    if chain.depth > b.depth:
        raise MomentProblemError("chain is deeper than the element")
    legs = []
    for n in range(chain.depth + 1):
        space = multiset_space(b.alphabet, n)
        row = {counts: b.at(counts) for counts in space.labels}
        legs.append(chain.backend.matrix.build(unit_space(), space, lambda _: row))
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


def moment_sequence(b: BangElement) -> MomentTable:
    """Read m_a = coeffs([first-symbol^a]) off a total two-symbol element."""
    if len(b.alphabet) != 2:
        raise MomentProblemError("moment tables are for two-symbol alphabets")
    _require_total(check_totality(b))
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
    coeffs = []
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
        coeffs.append(value)
    return BangElement.on_web(web, alphabet, depth, tuple(coeffs))


# -- measure recovery ----------------------------------------------------------

@dataclass(frozen=True)
class Recovery:
    measure: AtomicMeasure
    residual: object
    grid_resolution: int
    diagnostic: str | None = None


def simplex_grid(alphabet: Alphabet, resolution: int) -> list[tuple]:
    """All proper distributions with denominator `resolution`."""
    return [
        tuple(Fraction(c, resolution) for c in counts)
        for counts in enumerate_multisets(alphabet, resolution)
    ]


def refuse_oversized_recovery(symbols: int, depth: int, grid_resolution: int, lower: str) -> None:
    """Refuse, before any work, the recovery LP of a depth-`depth` element
    over `symbols` symbols past the caps of `optim`: one weight per grid point
    plus the epigraph variable, two rows per multiset of size <= depth plus
    the one fixing the total weight (feasibility_minmax)."""
    variables = multiset_count(symbols, grid_resolution) + 1
    constraints = 2 * multiset_count(symbols + 1, depth) + 1
    if variables > MAX_VARIABLES:
        raise ValueError(
            f"--grid {grid_resolution} on {symbols} symbols gives a recovery LP with"
            f" {variables} variables, over the cap of {MAX_VARIABLES}; lower --grid"
        )
    if constraints > MAX_CONSTRAINTS:
        raise ValueError(
            f"depth {depth} gives a recovery LP with {constraints} constraints at any"
            f" --grid, over the cap of {MAX_CONSTRAINTS}; {lower}"
        )


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
    measure.  A residual above tol means this grid is too coarse or b is the
    image of no mixing measure: totality does not rule the latter out at
    finite depth (see the module docstring).
    """
    if grid_resolution < 2:
        raise MomentProblemError("grid resolution must be at least 2")
    _require_total(check_totality(b, totality_tol))
    alphabet = b.alphabet
    grid = simplex_grid(alphabet, grid_resolution)
    columns = [tuple(_monomial(point, counts) for counts in b.web.labels) for point in grid]
    result = feasibility_minmax(columns, b.coeffs, mode=mode)
    if result.status != "optimal":
        raise MomentProblemError(f"recovery program ended {result.status}")
    conv, _, _ = arithmetic(mode == "exact")
    threshold = conv(tol)
    kept = [(point, w) for point, w in zip(grid, result.weights) if w >= threshold]
    total = sum(w for _, w in kept)
    if not kept or total == 0:
        raise MomentProblemError("all weights pruned; lower tol or refine the grid")
    measure = AtomicMeasure(tuple((ProbVector(alphabet, point), conv(w / total)) for point, w in kept))
    image = embed_mixing_measure(measure, b.depth)
    achieved = max(abs(conv(x) - conv(y)) for x, y in zip(image.coeffs, b.coeffs))
    diagnostic = None
    if achieved > threshold:
        diagnostic = (
            f"residual {achieved} above tolerance at resolution {grid_resolution};"
            " increase the grid resolution"
        )
    return Recovery(measure, achieved, grid_resolution, diagnostic)


# -- the embedding's chain squares ----------------------------------------------

def verify_embedding_squares(mixing: AtomicMeasure, depth: int) -> list[SquareCheck]:
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
    atoms = [(tuple(map(frac, point.weights)), frac(w)) for point, w in mixing.atoms]
    checks = []
    for n in range(depth + 1):
        lhs = restrict_to_depth(image, n).coeffs
        level = multiset_space(alphabet, n)
        leg = tuple(
            sum((_monomial(point, counts, w) for point, w in atoms), start=ZERO)
            for counts in level.labels
        )
        rhs = multinomial_embedding(alphabet, n).push(PcsVector(level, leg)).coeffs
        dev = max(abs(x - y) for x, y in zip(lhs, rhs))
        checks.append(
            SquareCheck(n, "restrict(embed(mixing), n) = level law . multinomial embedding", dev)
        )
    return checks

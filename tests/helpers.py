"""Shared test oracles, kept independent of the library's own code paths."""

import math
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import lcm

import numpy as np

from urnchains._linalg import ONE, ZERO, arithmetic, frac, is_exact
from urnchains.jsonio import FormatError, alphabet_from_json
from urnchains.moments import TotalityReport
from urnchains.pcoh import BangElement, refuse_oversized_bang
from urnchains.spaces import bounded_multiset_space, tuple_space
from urnchains.stoch import EmpiricalLaw, FinKernel, _trial_streams, apply_perm


def mm(a, b):
    """Plain-loop exact matrix product (rows of tuples/lists of Fractions)."""
    out = []
    for row in a:
        acc = [Fraction(0)] * len(b[0])
        for t, v in enumerate(row):
            if v:
                for u, w in enumerate(b[t]):
                    acc[u] += v * w
        out.append(tuple(acc))
    return tuple(out)


def dense(rows, width):
    """Dense tuples of sparse {column: value} rows, Fraction(0) in the empty cells."""
    return tuple(tuple(row.get(j, Fraction(0)) for j in range(width)) for row in rows)


def sparse(rows):
    """The {column: value} dicts of the nonzero entries of dense rows."""
    return tuple({j: v for j, v in enumerate(row) if v} for row in rows)


def dense_rows(m):
    """The dense rows of a matrix: its stored values, Fraction(0) in the empty cells."""
    return dense(m.entries, len(m.target))


def entry(m, src_label, tgt_label):
    """The entry of a matrix at (source label, target label)."""
    return m.entries[m.source.index(src_label)].get(m.target.index(tgt_label), Fraction(0))


def dense_kron(a, b):
    """Kronecker product of dense rows, in row-major product order."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def dense_max_abs_diff(a, b):
    return max((abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)), default=Fraction(0))


def dense_permute_columns(rows, labels, perm):
    """Dense rows of f then the symmetry moving entry i of a tuple to position perm[i]."""
    position = {t: j for j, t in enumerate(labels)}
    out = []
    for row in rows:
        new = [Fraction(0)] * len(row)
        for t, v in zip(labels, row):
            moved = [None] * len(t)
            for i, x in enumerate(t):
                moved[perm[i]] = x
            new[position[tuple(moved)]] = v
        out.append(tuple(new))
    return tuple(out)


def dense_solve_right(e, b):
    """The unique m with m . e = b for dense e and b, or "underdetermined"
    when e has dependent rows, or "inconsistent" when no m exists; by
    elimination on the transposed system, one right-hand side at a time."""
    r = len(e)
    cols = len(e[0]) if e else 0
    # rank of e by plain elimination on a copy of its rows
    rows = [list(row) for row in e]
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, r) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(r):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    if rank < r:
        return "underdetermined"
    out = []
    for brow in b:
        # m_row . e = brow: cols equations in r unknowns, of full column rank
        system = [[e[i][c] for i in range(r)] + [brow[c]] for c in range(cols)]
        for k in range(r):
            piv = next(i for i in range(k, cols) if system[i][k] != 0)
            system[k], system[piv] = system[piv], system[k]
            system[k] = [x / system[k][k] for x in system[k]]
            for i in range(cols):
                if i != k and system[i][k] != 0:
                    f = system[i][k]
                    system[i] = [x - f * y for x, y in zip(system[i], system[k])]
        if any(row[r] != 0 for row in system[r:]):
            return "inconsistent"
        out.append(tuple(system[k][r] for k in range(r)))
    return tuple(out)


def state_dicts(hi, lo, inc_hi, inc_lo) -> list[dict]:
    """`PCG64.state` dicts of a block of streams given as uint64 halves."""
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": h << 64 | l, "inc": ih << 64 | il},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for h, l, ih, il in zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist())
    ]


def trial_states(seed, trials):
    """`PCG64.state` dicts of the per-trial streams of `stoch._trial_streams`,
    in trial order."""
    return list(chain.from_iterable(state_dicts(*block) for block in _trial_streams(seed, trials)))


def symmetry_kernel(alphabet, n, perm):
    """The deterministic kernel permuting tuple coordinates along perm: one
    of the n! coordinate symmetries, the oracle of `stoch.verify_equalises`."""
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    space = tuple_space(alphabet, n)
    return FinKernel.build(space, space, lambda t: {apply_perm(perm, t): ONE})


def symmetrization_oracle(k, n):
    """{t: {u: mass}} of (1/n!) times the sum of all n! coordinate
    permutations of the length-n tuples over k symbols, term by term."""
    perms = list(permutations(range(n)))
    table = {}
    for t in product(range(k), repeat=n):
        row = {}
        for perm in perms:
            u = [None] * n
            for i, x in enumerate(t):
                u[perm[i]] = x
            row[tuple(u)] = row.get(tuple(u), Fraction(0)) + Fraction(1, len(perms))
        table[t] = row
    return table


def gauss_solve(a_rows, b_vec):
    """Solve a square exact system; returns None when singular."""
    n = len(a_rows)
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(a_rows, b_vec)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def dual_polytope_vertices(generator_rows):
    """All vertices of {u >= 0 : g . u <= 1 for each generator row g}.

    Brute force: every d-subset of the constraint rows (generators plus the
    coordinate hyperplanes) that is invertible contributes a candidate
    vertex, kept when it satisfies all constraints.
    """
    d = len(generator_rows[0])
    rows = [tuple(map(Fraction, g)) for g in generator_rows]
    bounds = []
    for g in rows:
        bounds.append((g, Fraction(1)))
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        bounds.append((tuple(e), Fraction(0)))
    vertices = set()
    for subset in combinations(range(len(bounds)), d):
        a = [bounds[i][0] for i in subset]
        b = [bounds[i][1] for i in subset]
        sol = gauss_solve(a, b)
        if sol is None:
            continue
        if any(v < 0 for v in sol):
            continue
        if all(sum(g * u for g, u in zip(row, sol)) <= 1 for row in rows):
            vertices.add(tuple(sol))
    return sorted(vertices)


def vertex_oracle_inside(generator_rows, x):
    """Membership verdict by maximising <x, u> over the dual vertices."""
    best = max(
        (sum(a * b for a, b in zip(x, v)) for v in dual_polytope_vertices(generator_rows)),
        default=Fraction(0),
    )
    return best <= 1, best


def promotion_mixture_oracle(atoms, labels):
    """{mu: sum_j w_j prod_a r_j(a)^mu(a)} over the count vectors mu, in
    Fractions, term by term; atoms are (point, weight) pairs."""
    table = {}
    for mu in labels:
        total = Fraction(0)
        for point, w in atoms:
            term = Fraction(w)
            for r, c in zip(point, mu):
                term *= Fraction(r) ** c
            total += term
        table[mu] = total
    return table


def totality_oracle(table, labels, depth):
    """(defect, witness, lhs, rhs) of the first worst violation, in the
    order of `labels`, of table[empty] = 1 and of the recurrence
    table[mu] = sum_x table[mu + [x]] for |mu| < depth, in Fractions;
    witness, lhs and rhs are None when the table is total."""
    k = len(labels[0])
    empty = (0,) * k
    worst, found = abs(table[empty] - 1), (empty, table[empty], Fraction(1))
    if worst == 0:
        found = (None, None, None)
    for mu in labels:
        if sum(mu) >= depth:
            continue
        rhs = sum(
            (table[mu[:x] + (mu[x] + 1,) + mu[x + 1 :]] for x in range(k)), start=Fraction(0)
        )
        if abs(table[mu] - rhs) > worst:
            worst, found = abs(table[mu] - rhs), (mu, table[mu], rhs)
    return (worst, *found)


def law_of_histogram(alphabet, n, histogram):
    """The EmpiricalLaw of a {count vector: tally} histogram, its rows in the
    histogram's order and its trials the tallies' sum."""
    keys = list(histogram)
    rows = np.array(keys, np.int64).reshape(-1, len(alphabet))
    tallies = np.array(list(histogram.values()), np.int64)
    ascending = np.array(sorted(range(len(keys)), key=keys.__getitem__), np.int64)
    return EmpiricalLaw(alphabet, n, int(tallies.sum()), rows, tallies, ascending)


def histogram_of(law):
    """{count vector: tally} of an EmpiricalLaw, in order of first appearance."""
    return dict(zip(map(tuple, law.rows.tolist()), law.tallies.tolist()))


def histogram_csv_rows(law):
    """The histogram CSV of an empirical law, written row by row: one repr
    per cell, rows in descending order of their count vectors."""
    header = ",".join(f"freq_{s}" for s in law.alphabet.symbols)
    n = law.prefix_length
    lines = [f"{header},count"]
    for counts, count in sorted(histogram_of(law).items(), reverse=True):
        freqs = ",".join([repr(c / n) for c in counts])
        lines.append(f"{freqs},{count}")
    return "\n".join(lines) + "\n"


def row_moment(law, symbol, order):
    """The empirical moment of an empirical law, summed row by row in the
    histogram's order."""
    i = law.alphabet.index(symbol)
    n = law.prefix_length
    total = sum(c * (counts[i] / n) ** order for counts, c in histogram_of(law).items())
    return total / law.trials


def parent_step_mixture(web, atoms):
    """The exact table sum_j w_j prod_a r_j(a)^mu(a) over the labels of a
    bounded multiset web, label by label: each nonempty label's monomial is
    its parent's (the label less its first symbol, looked up in the web)
    times that symbol's numerator, over the point's common denominator; the
    atoms are summed over one common denominator per size."""
    labels = web.labels
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


def label_by_label_totality(b, tol=None):
    """check_totality of b, label by label: the recurrence's right-hand side
    at each label is the sum, in symbol order from the zero, of its k
    successors looked up in the web; an exact table runs on the ints of the
    table times the lcm of its denominators."""
    exact = is_exact(b.coeffs)
    if tol is None:
        _, _, tol = arithmetic(exact)
    web, k = b.web, len(b.alphabet)
    scale, values, zero = 1, b.coeffs, ZERO
    if exact:
        scale = lcm(*(v.denominator for v in b.coeffs))
        values, zero = [v.numerator * (scale // v.denominator) for v in b.coeffs], 0
    worst, witness, lhs_w, rhs_w = zero, None, None, None
    empty = (0,) * k
    norm = values[web.index(empty)]
    if abs(norm - scale) > worst:
        worst, witness, lhs_w, rhs_w = abs(norm - scale), empty, norm, scale
    for i, counts in enumerate(web.labels):
        if sum(counts) >= b.depth:
            continue
        rhs = zero
        for x in range(k):
            rhs += values[web.index(counts[:x] + (counts[x] + 1,) + counts[x + 1 :])]
        if abs(values[i] - rhs) > worst:
            worst, witness, lhs_w, rhs_w = abs(values[i] - rhs), counts, values[i], rhs
    if exact:
        worst, lhs_w, rhs_w = (v if v is None else Fraction(v, scale) for v in (worst, lhs_w, rhs_w))
    if worst > tol:
        return TotalityReport(False, worst, witness, lhs_w, rhs_w)
    return TotalityReport(True, worst, None)


def bang_json_oracle(b, mode="exact"):
    """The bang file of b as the dict that json.dump writes: its alphabet,
    its depth and one {"multiset", "value"} entry per nonzero coefficient in
    web order, values as floats in mode "float" and otherwise as ints or
    "p/q" strings (floats read through their decimal repr)."""

    def value(v):
        if mode == "float":
            return float(v)
        f = Fraction(repr(v)) if isinstance(v, float) else Fraction(v)
        return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    return {
        "alphabet": {"symbols": list(b.alphabet.symbols)},
        "depth": b.depth,
        "coeffs": [
            {"multiset": list(counts), "value": value(v)}
            for counts, v in zip(b.web.labels, b.coeffs)
            if v
        ],
    }


def _fraction_value_in(v):
    """A bang file's value as a Fraction, one Fraction per value: "p/q" and
    "p" strings of ASCII digits through int, the rest through Fraction's
    parser."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise FormatError(f"cannot parse value {v!r}")
    try:
        if type(v) is str:
            num, slash, den = v.partition("/")
            if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
                return Fraction(int(num), int(den) if slash else 1)
        return frac(v)
    except ZeroDivisionError:
        raise FormatError(f"value {v!r} has a zero denominator") from None


def bang_from_json_oracle(data):
    """The bang element of a bang file's JSON, read value by value into a
    table of Fractions and floats, with the refusals and messages of
    `jsonio.bang_from_json` for the inputs both read."""
    try:
        alphabet = alphabet_from_json(data["alphabet"])
        depth = data["depth"]
        if type(depth) is not int or depth < 0:
            raise FormatError(f"bad bang element: depth {depth!r} is not a nonnegative integer")
        refuse_oversized_bang(len(alphabet), depth, "rebuild the element with a lower bang iota --depth")
        table = {}
        for entry in data["coeffs"]:
            counts = tuple(entry["multiset"])
            for c in counts:
                if type(c) is not int:
                    raise FormatError(f"multiset {list(counts)} has a count {c!r} that is not an integer")
            if counts in table:
                raise FormatError(f"multiset {list(counts)} is listed twice")
            value = entry["value"]
            table[counts] = value if type(value) is float and math.isfinite(value) else _fraction_value_in(value)
        web = bounded_multiset_space(alphabet, depth)
        coeffs = tuple(table.pop(counts, ZERO) for counts in web.labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad bang element: {exc}") from exc
    if table:
        raise FormatError(
            f"multiset {list(next(iter(table)))} is not a multiset of size <= {depth}"
            f" over {','.join(alphabet.symbols)}"
        )
    return BangElement.of(alphabet, depth, coeffs)

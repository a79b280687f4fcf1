"""Shared test oracles, kept independent of the library's own code paths."""

from fractions import Fraction
from itertools import combinations


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

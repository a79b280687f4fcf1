"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every structural law is checked in exact rational arithmetic (required
deviation: zero); Monte Carlo and float-mode criteria carry the tolerances
stated with them.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from helpers import dense_rows, mm, sparse, vertex_oracle_inside
from urnchains._linalg import compose, identity, max_abs_diff
from urnchains.chains import (
    build_dd_chain,
    cone_from_top,
    expand_dd_cone,
    factor_delete_cone,
    lift_copointed_morphism,
    pad_index_bijection,
    pcoh_free_copointed,
    pcoh_ground_copointed,
    stoch_copointed,
    verify_tensor_parametrized,
)
from urnchains.moments import (
    check_totality,
    damp,
    embed_mixing_measure,
    recover_measure,
    verify_embedding_squares,
)
from urnchains.multiset import BOOL, Alphabet
from urnchains.optim import LinearProgram, solve
from urnchains.pcoh import (
    PcsMatrix,
    PcsVector,
    biorthogonal_membership,
    bool_pcs,
    ground_pcs,
    multinomial_embedding,
)
from urnchains.spaces import symbol_space
from urnchains.stoch import (
    AtomicMeasure,
    ProbVector,
    coeq_kernel,
    empirical_law,
    eq_kernel,
    mixing_moment,
    multinomial_law,
    symmetrization_average,
    verify_equalises,
)

F = Fraction

ALPHABETS = {1: Alphabet.of("a"), 2: BOOL, 3: Alphabet.of("a", "b", "c")}


def _report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {tag}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_chain_squares_both_backends():
    t0 = time.time()
    worst = F(0)
    for k in (1, 2, 3):
        alphabet = ALPHABETS[k]
        for cop in (
            stoch_copointed(alphabet),
            pcoh_ground_copointed(alphabet),
            pcoh_free_copointed(ground_pcs(alphabet)),
        ):
            chain = build_dd_chain(cop, 4)
            worst = max(worst, max(chain.validate(), default=F(0)))
    elapsed = time.time() - t0
    _report(
        1,
        "chain squares commute exactly for k <= 3, N <= 4, both backends",
        worst == 0 and elapsed < 10,
        f"deviation {worst}, {elapsed:.2f}s",
    )


def test_criterion_02_multinomial_chain_morphism():
    worst = F(0)
    for k in (1, 2, 3):
        alphabet = ALPHABETS[k]
        chg = build_dd_chain(pcoh_ground_copointed(alphabet), 4)
        chb = build_dd_chain(pcoh_free_copointed(ground_pcs(alphabet)), 4)
        rows = []
        for i in range(k):
            row = [F(0)] * (k + 1)
            row[i] = F(1)
            row[k] = F(1)
            rows.append(tuple(row))
        alpha = PcsMatrix(chg.backend.carrier, chb.backend.carrier, sparse(rows))
        lift = lift_copointed_morphism(alpha, chg, chb)
        for n in range(5):
            emb = dense_rows(multinomial_embedding(alphabet, n))
            bounded, full, mapping = pad_index_bijection(alphabet, n)
            comp = dense_rows(lift.components[n])
            for i in range(len(emb)):
                for j in range(len(bounded)):
                    d = abs(emb[i][j] - comp[i][mapping[j]])
                    worst = max(worst, d)
    _report(
        2,
        "closed-form multinomial chain morphism equals the universal solve, n <= 4, k <= 3",
        worst == 0,
        f"deviation {worst}",
    )


def test_criterion_03_equaliser_laws():
    worst = F(0)
    for k in (1, 2, 3):
        alphabet = ALPHABETS[k]
        for n in range(6):
            eq = eq_kernel(alphabet, n)
            coeq = coeq_kernel(alphabet, n)
            worst = max(worst, verify_equalises(eq, n).max_deviation)
            worst = max(worst, max_abs_diff(compose(eq, coeq).entries, identity(len(eq.source))))
            worst = max(
                worst,
                compose(coeq, eq).deviation(symmetrization_average(alphabet, n)),
            )
    _report(
        3,
        "equaliser laws exact (invariance, retraction, symmetrization average), n <= 5, k <= 3",
        worst == 0,
        f"deviation {worst}",
    )


def test_criterion_04_two_formulation_equivalence():
    rng = random.Random(2718)
    worst = F(0)
    cones = 0
    for k, depth in ((2, 4), (3, 3)):
        alphabet = ALPHABETS[k]
        for chain in (
            build_dd_chain(stoch_copointed(alphabet), depth),
            build_dd_chain(pcoh_ground_copointed(alphabet), depth),
        ):
            for _ in range(25):
                size = len(chain.backend.level(depth))
                vals = [F(rng.randint(0, 9)) for _ in range(size)]
                total = sum(vals) or F(1)
                top = (tuple(v / total for v in vals),)
                dd_cone = cone_from_top(chain, sparse(top), "dd")
                back = factor_delete_cone(expand_dd_cone(dd_cone))
                worst = max(
                    worst,
                    max(max_abs_diff(a, b) for a, b in zip(back.legs, dd_cone.legs)),
                )
                sym_top = sparse(mm(top, dense_rows(chain.eqs[depth])))
                del_cone = cone_from_top(chain, sym_top, "delete")
                expanded = expand_dd_cone(factor_delete_cone(del_cone))
                worst = max(
                    worst,
                    max(max_abs_diff(a, b) for a, b in zip(expanded.legs, del_cone.legs)),
                )
                cones += 2
    # parametrized variants with Y = Bool
    chain = build_dd_chain(stoch_copointed(BOOL), 3)
    checks = verify_tensor_parametrized(chain, symbol_space(BOOL), samples=10, seed=31)
    worst = max([worst] + checks)
    _report(
        4,
        "factor/expand mutually inverse on randomized cones, parametrized variants included",
        worst == 0 and cones >= 100,
        f"{cones} cones, deviation {worst}",
    )


def test_criterion_05_iid_limit_cone():
    worst = F(0)
    for alphabet, r in (
        (BOOL, ProbVector.of(BOOL, F(1, 3), F(2, 3))),
        (
            ALPHABETS[3],
            ProbVector.of(ALPHABETS[3], F(1, 6), F(1, 3), F(1, 2)),
        ),
    ):
        cop = stoch_copointed(alphabet)
        for n in range(6):
            dd = cop.backend.dd_closed_form(cop.weaken, n)
            lhs = mm(dense_rows(multinomial_law(r, n + 1)), dense_rows(dd))
            worst = max(worst, max_abs_diff(sparse(lhs), multinomial_law(r, n).entries))
    _report(
        5,
        "iid urn laws form an exact cone on the draw-and-delete chain, n <= 5",
        worst == 0,
        f"deviation {worst}",
    )


def test_criterion_06_embedding_diagram():
    rng = random.Random(161803)
    worst = F(0)
    for k in (2, 3):
        alphabet = ALPHABETS[k]
        for _ in range(5):
            atoms = []
            for _ in range(rng.randint(1, 3)):
                cuts = sorted(rng.randint(0, 12) for _ in range(k - 1))
                parts, prev = [], 0
                for c in cuts:
                    parts.append(F(c - prev, 12))
                    prev = c
                parts.append(F(12 - prev, 12))
                atoms.append((ProbVector(alphabet, tuple(parts)), F(1, rng.randint(1, 3))))
            total = sum(w for _, w in atoms)
            atoms = tuple((p, w / total) for p, w in atoms)
            mixing = AtomicMeasure(atoms)
            checks = verify_embedding_squares(mixing, 4)
            worst = max(worst, max(checks))
    _report(
        6,
        "embedding squares exact for atomic rational mixings, n <= 4",
        worst == 0,
        f"deviation {worst}",
    )


def test_criterion_07_totality_characterisation():
    t0 = time.time()
    # (a) probability mixings embed to total elements, defect 0
    rng = random.Random(424242)
    defects = []
    for _ in range(8):
        a = F(rng.randint(0, 16), 16)
        b = F(rng.randint(0, 16), 16)
        mixing = AtomicMeasure.of(
            (ProbVector.of(BOOL, a, 1 - a), F(1, 4)),
            (ProbVector.of(BOOL, b, 1 - b), F(3, 4)),
        )
        rep = check_totality(embed_mixing_measure(mixing, 6))
        defects.append((rep.total, rep.defect))
    part_a = all(t and d == 0 for t, d in defects)
    # (b) damping fails with the predicted defect at the empty multiset
    base = embed_mixing_measure(
        AtomicMeasure.dirac(ProbVector.of(BOOL, F(1, 2), F(1, 2))), 6
    )
    p = F(1, 2)
    rep = check_totality(damp(base, p))
    part_b = (not rep.total) and rep.defect == (1 - p) and rep.witness == (0, 0)
    # (c) recovery round trip at grid 64, depth 6, mixings with <= 3 atoms
    mixings = [
        AtomicMeasure.dirac(ProbVector.of(BOOL, F(1, 2), F(1, 2))),
        AtomicMeasure.of(
            (ProbVector.of(BOOL, 1, 0), F(1, 3)),
            (ProbVector.of(BOOL, 0, 1), F(2, 3)),
        ),
        AtomicMeasure.of(
            (ProbVector.of(BOOL, F(1, 4), F(3, 4)), F(3, 10)),
            (ProbVector.of(BOOL, F(5, 8), F(3, 8)), F(1, 2)),
            (ProbVector.of(BOOL, 1, 0), F(1, 5)),
        ),
    ]
    residuals = []
    for mixing in mixings:
        rec = recover_measure(embed_mixing_measure(mixing, 6), 64, mode="float")
        residuals.append(rec.residual)
    part_c = all(r <= 1e-6 for r in residuals)
    elapsed = time.time() - t0
    _report(
        7,
        "totality: embeds total (a); damped defect predicted (b); recovery residual <= 1e-6 (c)",
        part_a and part_b and part_c and elapsed < 30,
        f"worst residual {max(residuals):.2e}, {elapsed:.2f}s",
    )


def test_criterion_08_monte_carlo_definetti():
    mixing = AtomicMeasure.of(
        (ProbVector.of(BOOL, F(1, 5), F(4, 5)), F(1, 2)),
        (ProbVector.of(BOOL, F(9, 10), F(1, 10)), F(1, 2)),
    )
    law = empirical_law(mixing, 1000, trials=10_000, seed=20240810)
    errors = []
    for order in (1, 2, 3):
        exact = float(mixing_moment(mixing, "t", order))
        errors.append(abs(law.moment("t", order) - exact))
    _report(
        8,
        "first three empirical moments of the prefix law within 0.02 of the mixing moments",
        all(e <= 0.02 for e in errors),
        "errors " + ", ".join(f"{e:.4f}" for e in errors),
    )


def test_criterion_09_lp_oracle():
    rng = random.Random(90001)
    worst_gap_exact = F(0)
    worst_gap_float = 0.0
    worst_agree = 0.0
    for _ in range(50):
        n = rng.randint(2, 6)
        m = rng.randint(1, 5)
        c = [F(rng.randint(-4, 8), 4) for _ in range(n)]
        rows = [[F(rng.randint(0, 6), 3) for _ in range(n)] for _ in range(m)]
        rows.append([F(1)] * n)
        b = [F(rng.randint(1, 9), 3) for _ in range(m)] + [F(rng.randint(1, 6))]
        exact = solve(
            LinearProgram(tuple(c), tuple(map(tuple, rows)), tuple(b), mode="exact")
        )
        approx = solve(
            LinearProgram(
                tuple(map(float, c)),
                tuple(tuple(map(float, row)) for row in rows),
                tuple(map(float, b)),
                mode="float",
            )
        )
        worst_gap_exact = max(worst_gap_exact, abs(exact.duality_gap))
        worst_gap_float = max(worst_gap_float, abs(approx.duality_gap))
        worst_agree = max(worst_agree, abs(float(exact.value) - approx.value))
    ok = worst_gap_exact == 0 and worst_gap_float <= 1e-8 and worst_agree <= 1e-7
    _report(
        9,
        "weak duality certified on every solve; exact and float modes agree",
        ok,
        f"gaps {worst_gap_exact}/{worst_gap_float:.1e}, agreement {worst_agree:.1e}",
    )


def test_criterion_10_biorthogonality_oracle():
    rng = random.Random(1010)
    # the tensor square of bool_pcs() is the ground space on the four pairs
    spaces = [bool_pcs(), ground_pcs(Alphabet.of("tt", "tf", "ft", "ff"))]
    checked = 0
    for space in spaces:
        gen_rows = [g.coeffs for g in space.generators]
        for _ in range(100):
            x = tuple(F(rng.randint(0, 8), 8) for _ in space.web.labels)
            lib = biorthogonal_membership(space.generators, PcsVector(space.web, x))
            oracle_inside, oracle_best = vertex_oracle_inside(gen_rows, x)
            assert lib.inside == oracle_inside and lib.optimum == oracle_best
            checked += 1
    _report(
        10,
        "membership agrees with the vertex-enumeration oracle on 200 randomized vectors",
        checked == 200,
        f"{checked} vectors",
    )

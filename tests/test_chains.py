import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense, dense_rows, entry, mm, sparse
from urnchains._linalg import matmul, max_abs_diff
from urnchains.chains import (
    Backend,
    ChainError,
    Cone,
    CopointedObject,
    build_dd_chain,
    bang_cone,
    bang_from_cone,
    cone_from_top,
    expand_dd_cone,
    factor_delete_cone,
    lift_copointed_morphism,
    multinomial_cone,
    multinomial_diagonal,
    pad_index_bijection,
    pcoh_free_copointed,
    pcoh_ground_copointed,
    stoch_copointed,
    verify_tensor_parametrized,
)
from urnchains.multiset import BOOL, Alphabet
from urnchains.pcoh import PcsMatrix, PcsVector, bool_pcs, promotion
from urnchains.spaces import IndexSet, multiset_space, symbol_space, unit_space
from urnchains.stoch import FinKernel, ProbVector, multinomial_law, verify_equalises

F = Fraction
ABC = Alphabet.of("a", "b", "c")


# -- construction ----------------------------------------------------------------

@pytest.mark.parametrize("alphabet", [BOOL, ABC])
def test_stoch_chain_steps_equal_uniform_kernel(alphabet):
    chain = build_dd_chain(stoch_copointed(alphabet), 3)
    for n in range(3):
        # remove one element uniformly: entry (mu, mu - [b]) is mu(b)/(n+1)
        dd = chain.dds[n]
        rows = dense_rows(dd)
        for i, mu in enumerate(dd.source.labels):
            for j, nu in enumerate(dd.target.labels):
                diff = [x - y for x, y in zip(mu, nu)]
                removed_one = sorted(diff) == [0] * (len(diff) - 1) + [1]
                expected = F(mu[diff.index(1)], n + 1) if removed_one else 0
                assert rows[i][j] == expected
    assert all(d == 0 for d in chain.validate())


def test_bang_chain_steps_equal_restrictions():
    chain = build_dd_chain(pcoh_free_copointed(bool_pcs()), 3)
    for n in range(3):
        # in bounded coordinates the step keeps each multiset of size <= n
        b_src, full_src, map_src = pad_index_bijection(BOOL, n + 1)
        b_tgt, full_tgt, map_tgt = pad_index_bijection(BOOL, n)
        rows = dense_rows(chain.dds[n])
        for i, mu in enumerate(b_src.labels):
            for j, nu in enumerate(b_tgt.labels):
                assert rows[map_src[i]][map_tgt[j]] == (1 if mu == nu else 0)


def test_depth_zero_chain():
    chain = build_dd_chain(stoch_copointed(BOOL), 0)
    assert chain.dds == [] and len(chain.eqs) == 1
    assert chain.validate() == []


def test_substochastic_weakening_chain():
    backend = Backend.stoch(BOOL)
    weaken = FinKernel(backend.carrier, unit_space(), ({0: F(1, 2)}, {0: F(1, 3)}))
    cop = CopointedObject(backend, weaken)
    chain = build_dd_chain(cop, 3)
    assert all(d == 0 for d in chain.validate())
    # step mass reflects the weakening: remove-one weighted by w
    dd0 = chain.dds[0]
    assert entry(dd0, (1, 0), (0, 0)) == F(1, 2)
    assert entry(dd0, (0, 1), (0, 0)) == F(1, 3)


def test_square_unsatisfiable_signals_backend_bug(monkeypatch):
    cop = stoch_copointed(BOOL)

    def broken(weaken, n):
        good = cop.backend.__class__.dd_closed_form(cop.backend, weaken, n)
        rows = [list(r) for r in dense_rows(good)]
        rows[0] = list(reversed(rows[0]))
        return FinKernel(good.source, good.target, sparse(rows))

    monkeypatch.setattr(cop.backend, "dd_closed_form", broken)
    with pytest.raises(ChainError):
        build_dd_chain(cop, 2)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_closed_form_breaking_one_square_is_refused_naming_its_level(monkeypatch, level):
    cop = stoch_copointed(BOOL)
    closed_form = Backend.dd_closed_form

    def halved_at_level(weaken, n):
        step = closed_form(cop.backend, weaken, n)
        if n != level:
            return step
        first = {j: v / 2 for j, v in step.entries[0].items()}
        return FinKernel(step.source, step.target, (first,) + step.entries[1:])

    monkeypatch.setattr(cop.backend, "dd_closed_form", halved_at_level)
    with pytest.raises(ChainError, match=f"square fails at level {level}:"):
        build_dd_chain(cop, 3)


def test_square_without_a_solution_is_refused_naming_its_level(monkeypatch):
    # redirecting (t,t,f) -> (t,t) to (f,t) at level 2 makes eq_3 . d_2
    # asymmetric, so no X solves X . eq_2 = eq_3 . d_2: the square cannot be
    # solved at all, which no change to the closed form can bring about
    cop = stoch_copointed(BOOL)
    delete_map = Backend.delete_map

    def redirected_at_level_2(weaken, n):
        d = delete_map(cop.backend, weaken, n)
        if n != 2:
            return d
        row = d.source.index((0, 0, 1))
        rows = d.entries[:row] + ({d.target.index((1, 0)): F(1)},) + d.entries[row + 1:]
        return FinKernel(d.source, d.target, rows)

    monkeypatch.setattr(cop.backend, "delete_map", redirected_at_level_2)
    with pytest.raises(ChainError, match="defining square unsolvable at level 2: "):
        build_dd_chain(cop, 3)


def test_section_that_does_not_split_is_refused_naming_its_level(monkeypatch):
    from urnchains import chains

    coeq_kernel = chains.coeq_kernel

    def swapped_from_level_2(alphabet, n):
        section = coeq_kernel(alphabet, n)
        if n < 2:
            return section
        rows = (section.entries[1], section.entries[0]) + section.entries[2:]
        return FinKernel(section.source, section.target, rows)

    monkeypatch.setattr(chains, "coeq_kernel", swapped_from_level_2)
    with pytest.raises(ChainError, match="does not split the equaliser at level 2$"):
        build_dd_chain(stoch_copointed(BOOL), 3)


# -- copointed structure ------------------------------------------------------------

def test_lift_identity_gives_identity_components():
    chain = build_dd_chain(pcoh_ground_copointed(BOOL), 3)
    ident = PcsMatrix(chain.backend.carrier, chain.backend.carrier, ({0: F(1)}, {1: F(1)}))
    lift = lift_copointed_morphism(ident, chain, chain)
    for n, comp in enumerate(lift.components):
        size = len(multiset_space(BOOL, n))
        assert dense_rows(comp) == tuple(
            tuple(F(1) if i == j else F(0) for j in range(size)) for i in range(size)
        )


def test_lift_rejects_non_copointed_morphism():
    chg = build_dd_chain(pcoh_ground_copointed(BOOL), 2)
    chb = build_dd_chain(pcoh_free_copointed(bool_pcs()), 2)
    # alpha with a zero weakening column: weakenings disagree at 't'
    bad = PcsMatrix(chg.backend.carrier, chb.backend.carrier, ({0: F(1)}, {1: F(1)}))
    with pytest.raises(ChainError, match="'t'"):
        lift_copointed_morphism(bad, chg, chb)


# -- coordinate change -----------------------------------------------------------------

def test_multinomial_diagonal_values():
    assert dense_rows(multinomial_diagonal(BOOL, 1)) == ((F(1), F(0)), (F(0), F(1)))
    d2 = dense_rows(multinomial_diagonal(BOOL, 2))
    assert [d2[i][i] for i in range(3)] == [F(1), F(2), F(1)]


@pytest.mark.parametrize("alphabet", [BOOL, ABC])
def test_conjugation_intertwines_the_two_chains(alphabet):
    stoch_chain = build_dd_chain(stoch_copointed(alphabet), 4)
    delta_chain = build_dd_chain(pcoh_ground_copointed(alphabet), 4)
    for n in range(4):
        d_n = dense_rows(multinomial_diagonal(alphabet, n))
        d_n1 = dense_rows(multinomial_diagonal(alphabet, n + 1))
        inv = tuple(
            tuple(F(1, v) if v else F(0) for v in row) for row in d_n1
        )
        conj = mm(mm(inv, dense_rows(delta_chain.dds[n])), d_n)
        assert conj == dense_rows(stoch_chain.dds[n])


# -- cones ---------------------------------------------------------------------------------

def test_multinomial_cone_and_round_trip():
    chain = build_dd_chain(stoch_copointed(BOOL), 4)
    r = ProbVector.of(BOOL, F(1, 3), F(2, 3))
    cone = multinomial_cone(r, chain)
    assert cone.deviation() == 0
    expanded = expand_dd_cone(cone)
    assert expanded.deviation() == 0
    back = factor_delete_cone(expanded)
    for a, b in zip(back.legs, cone.legs):
        assert max_abs_diff(a, b) == 0


def test_factor_returns_original_when_legs_factor_through_eq():
    chain = build_dd_chain(stoch_copointed(BOOL), 3)
    r = ProbVector.of(BOOL, F(1, 4), F(3, 4))
    cone = multinomial_cone(r, chain)
    # delete-cone legs defined as multinomial law then equaliser
    legs = [
        sparse(mm(dense_rows(multinomial_law(r, n)), dense_rows(chain.eqs[n])))
        for n in range(4)
    ]
    delete_cone = Cone(chain, legs, "delete")
    assert delete_cone.deviation() == 0
    dagger = factor_delete_cone(delete_cone)
    for a, b in zip(dagger.legs, cone.legs):
        assert max_abs_diff(a, b) == 0


def test_factor_rejects_asymmetric_leg_naming_the_swap():
    chain = build_dd_chain(stoch_copointed(BOOL), 2)
    point = ({1: F(1)},)
    legs = [({0: F(1)},), ({0: F(1)},), point]
    cone = Cone(chain, legs, "delete")
    with pytest.raises(ChainError, match=r"\(1, 0\)"):
        factor_delete_cone(cone)


@pytest.mark.parametrize("n, i", [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)])
def test_factor_rejects_leg_moved_by_one_transposition_only(n, i):
    # a point mass on 1^(i+1) 0^(n-i-1) is fixed by every adjacent swap but (i, i+1)
    chain = build_dd_chain(stoch_copointed(BOOL), n)
    legs = []
    for m in range(n):
        space = chain.backend.power(m)
        legs.append(sparse(((F(1, len(space)),) * len(space),)))
    top = chain.backend.power(n)
    row = [F(0)] * len(top)
    row[top.index((1,) * (i + 1) + (0,) * (n - i - 1))] = F(1)
    legs.append(sparse((row,)))
    swap = list(range(n))
    swap[i], swap[i + 1] = i + 1, i
    with pytest.raises(ChainError, match=rf"level {n} .*{re.escape(str(tuple(swap)))}"):
        factor_delete_cone(Cone(chain, legs, "delete"))


# the stoch and pcoh-definetti chains on t,f and a,b,c, to level 3
_FACTOR_CHAINS = [
    build_dd_chain(copointed(alphabet), 3)
    for copointed in (stoch_copointed, pcoh_ground_copointed)
    for alphabet in (BOOL, ABC)
]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_factor_refuses_exactly_the_rows_a_symmetry_moves(data):
    # factor_delete_cone accepts a leg by the round trip of DDChain.factor
    # alone; this pins that the round trip refuses rows iff a symmetry moves them
    chain = data.draw(st.sampled_from(_FACTOR_CHAINS))
    n = data.draw(st.integers(0, 3))
    space = chain.backend.power(n)
    values = st.builds(F, st.integers(1, 9), st.integers(1, 4))
    row = st.dictionaries(st.integers(0, len(space) - 1), values, max_size=6)
    drawn = data.draw(st.lists(row, min_size=1, max_size=2))
    # stochastic rows, so that a kernel holds them too
    rows = tuple({j: v / sum(r.values()) for j, v in sorted(r.items())} for r in drawn)
    if data.draw(st.booleans()):
        rows = matmul(matmul(rows, chain.sections[n].entries), chain.eqs[n].entries)
    apex = IndexSet("apex", tuple(range(len(rows))))
    moved = verify_equalises(chain.backend.matrix(apex, space, rows), n).max_deviation != 0
    try:
        chain.factor(rows, n)
        refused = False
    except ChainError:
        refused = True
    assert refused == moved


def test_trivial_unit_cone_is_fixed_by_both_maps():
    chain = build_dd_chain(stoch_copointed(BOOL), 3)
    # all legs through the point urn [t^n]
    legs = []
    for n in range(4):
        space = chain.backend.level(n)
        row = [F(0)] * len(space)
        row[space.index((n, 0))] = F(1)
        legs.append(sparse((row,)))
    cone = Cone(chain, legs, "dd")
    assert cone.deviation() == 0
    back = factor_delete_cone(expand_dd_cone(cone))
    for a, b in zip(back.legs, cone.legs):
        assert max_abs_diff(a, b) == 0


@pytest.mark.parametrize("backend", ["stoch", "pcoh"])
def test_randomized_round_trips_both_directions(backend):
    if backend == "stoch":
        chain = build_dd_chain(stoch_copointed(BOOL), 4)
    else:
        chain = build_dd_chain(pcoh_ground_copointed(BOOL), 4)
    rng = random.Random(17)
    for _ in range(25):
        top_len = len(chain.backend.level(4))
        vals = [F(rng.randint(0, 9)) for _ in range(top_len)]
        total = sum(vals) or F(1)
        top = (tuple(v / total for v in vals),)
        cone = cone_from_top(chain, sparse(top), "dd")
        assert cone.deviation() == 0
        back = factor_delete_cone(expand_dd_cone(cone))
        assert all(max_abs_diff(a, b) == 0 for a, b in zip(back.legs, cone.legs))
        sym_top = sparse(mm(top, dense_rows(chain.eqs[4])))
        delete_cone = cone_from_top(chain, sym_top, "delete")
        expanded = expand_dd_cone(factor_delete_cone(delete_cone))
        assert all(max_abs_diff(a, b) == 0 for a, b in zip(expanded.legs, delete_cone.legs))


# -- parametrized variants ---------------------------------------------------------------------

def test_tensor_parametrized_unit_reduces_to_plain():
    chain = build_dd_chain(stoch_copointed(BOOL), 3)
    checks = verify_tensor_parametrized(chain, unit_space(), samples=4, seed=0)
    assert checks and max(checks) == 0


def test_tensor_parametrized_with_bool():
    chain = build_dd_chain(stoch_copointed(BOOL), 3)
    checks = verify_tensor_parametrized(chain, symbol_space(BOOL), samples=6, seed=1)
    assert checks and max(checks) == 0


def test_tensor_parametrized_broken_map_reports_deviation():
    chain = build_dd_chain(stoch_copointed(BOOL), 2)
    y = symbol_space(BOOL)
    n = 2
    level_y = len(chain.backend.level(n)) * len(y)
    # symmetric map, then a deliberate asymmetry
    h = sparse(((F(1, level_y),) * level_y,))
    from urnchains._linalg import kron, identity, matmul

    f_rows = matmul(h, kron(chain.eqs[n].entries, identity(len(y)), len(y)))
    broken = [list(r) for r in dense(f_rows, len(chain.backend.power(n)) * len(y))]
    # bump the ((t,f), t) column; its swap image ((f,t), t) stays put
    broken[0][2] += F(1, 7)
    with pytest.raises(ChainError, match=r"fails at level 2 \(x\) X\(t,f\)"):
        chain.factor(sparse(broken), n, y)


# -- reified truncation limits ----------------------------------------------------------------------

def test_bang_cone_round_trip():
    chain = build_dd_chain(pcoh_free_copointed(bool_pcs()), 3)
    b = promotion(PcsVector.of(symbol_space(BOOL), "1/3", "1/3"), 3)
    cone = bang_cone(b, chain)
    assert cone.deviation() == 0
    assert bang_from_cone(cone).coeffs == b.coeffs


def test_every_depth_table_is_a_coherent_family():
    # coherent families on the restriction chain are exactly the depth-N
    # tables: any complete table already satisfies the compatibility squares
    from urnchains.pcoh import BangElement

    from urnchains.spaces import bounded_multiset_space

    chain = build_dd_chain(pcoh_free_copointed(bool_pcs()), 2)
    rng = random.Random(23)
    for _ in range(5):
        table = [F(rng.randint(0, 9), 9) for _ in bounded_multiset_space(BOOL, 2).labels]
        b = BangElement.of(BOOL, 2, table)
        cone = bang_cone(b, chain)
        assert cone.deviation() == 0
        assert bang_from_cone(cone).coeffs == b.coeffs

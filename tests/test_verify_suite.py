import ast
import inspect
import random
from collections import Counter

import pytest

from urnchains import chains, optim, pcoh, verify
from urnchains._linalg import matmul
from urnchains.multiset import Alphabet
from urnchains.verify import Config, run_all_checks


def test_default_suite_is_green():
    report = run_all_checks(Config())
    assert report.passed
    names = {c.name for c in report.checks}
    assert "defining-square" in names
    assert "cone-round-trip" in names
    assert "grid-recovery" in names


def test_depth_8_moment_checks_pass_on_two_symbols():
    # the float grid-recovery LP at this depth once ended on "duality gap
    # 4.09e-08 beyond tolerance"
    rows = verify.moment_checks(Config(depth=8))
    assert rows and all(row.passed for row in rows), [row.deviation for row in rows]


@pytest.mark.parametrize(
    "config",
    [Config(), Config(alphabet=Alphabet.of("a", "b", "c"), depth=3, eq_depth=2, grid=8)],
    ids=["defaults", "three-symbols"],
)
def test_every_exact_lp_is_answered_by_its_certified_float_basis(monkeypatch, config):
    # a fall to the cold exact solve, and so to the Fraction tableau, would
    # be silent in the report
    answers, modes = [], []

    def recording(lp, solve=optim.solve):
        sol = solve(lp)
        if lp.mode == "exact":
            answers.append(sol)
        return sol

    def building(self, lp, build=optim._Tableau.__init__):
        modes.append(lp.mode)
        build(self, lp)

    for module in (verify, pcoh, optim):
        monkeypatch.setattr(module, "solve", recording)
    monkeypatch.setattr(optim._Tableau, "__init__", building)
    assert run_all_checks(config).passed
    assert answers and all(sol.optimal and sol.from_float_basis for sol in answers)
    assert modes and "exact" not in modes


def test_lp_mode_agreement_fails_on_a_status_disagreement(monkeypatch):
    def infeasible_in_floats(lp, solve=verify.solve):
        return optim.LpSolution(status="infeasible") if lp.mode == "float" else solve(lp)

    monkeypatch.setattr(verify, "solve", infeasible_in_floats)
    row = verify.membership_checks(Config())[-1]
    assert row.name == "lp-mode-agreement" and not row.passed
    assert row.deviation == "exact solve optimal, float solve infeasible"


def test_every_check_carries_a_law_string():
    report = run_all_checks(Config(depth=3, eq_depth=3, cone_samples=3, tensor_samples=2, grid=8))
    for check in report.checks:
        assert check.law and check.name
        data = check.to_json()
        assert set(data) >= {"check", "law", "params", "deviation", "passed"}


def test_the_law_table_has_no_dead_or_duplicate_entry():
    # each law is written once: its name is a key of the table literal once,
    # no two names share a law, every name is reported at two symbols or
    # three, and every row reads its law from the table, in report order
    module = ast.parse(inspect.getsource(verify))
    table = next(
        node.value
        for node in module.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_LAWS"
    )
    names = [key.value for key in table.keys]
    assert len(names) == len(set(names)) == len(set(verify._LAWS.values())) == 23
    default = run_all_checks(Config())
    three = run_all_checks(
        Config(alphabet=Alphabet.of("a", "b", "c"), depth=3, eq_depth=3, cone_samples=3, tensor_samples=2, grid=9)
    )
    rows = default.checks + three.checks
    assert {row.name for row in rows} == set(names)
    assert all(row.law == verify._LAWS[row.name] for row in rows)
    assert list(dict.fromkeys(row.name for row in default.checks)) == names


def test_fault_injection_fails_exactly_one_square():
    report = run_all_checks(
        Config(depth=3, eq_depth=3, cone_samples=3, tensor_samples=2, grid=8, inject_fault=True)
    )
    bad = report.failures()
    assert len(bad) == 1
    assert bad[0].name == "defining-square"
    assert bad[0].params == {"backend": "stoch", "level": 1}


def test_three_symbol_suite():
    from urnchains.multiset import Alphabet

    report = run_all_checks(
        Config(
            alphabet=Alphabet.of("a", "b", "c"),
            depth=3,
            eq_depth=3,
            cone_samples=3,
            tensor_samples=2,
            grid=9,
        )
    )
    assert report.passed


def test_depth_zero_config_is_refused():
    # a depth-0 bang element has no recurrence, so damped-defect would fail falsely
    with pytest.raises(ValueError, match="depth at least 1"):
        run_all_checks(Config(depth=0, eq_depth=2, grid=4))


def test_negative_eq_depth_config_is_refused():
    # at eq_depth -1 no equaliser check would run and the report would pass
    with pytest.raises(ValueError, match="--eq-depth at least 0, not -1"):
        run_all_checks(Config(depth=2, eq_depth=-1, grid=4))


@pytest.mark.parametrize("grid", [0, 1])
def test_grid_below_two_config_is_refused(grid):
    # grid 0 divided by zero in moment_checks; grid 1 failed grid-recovery falsely
    config = dict(depth=1, eq_depth=0, cone_samples=0, tensor_samples=0, grid=grid)
    with pytest.raises(ValueError, match=f"--grid at least 2, not {grid}"):
        run_all_checks(Config(**config))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0], ids=repr)
def test_recovery_tolerance_that_is_not_finite_and_positive_is_refused(tol):
    # nan used to fail vertex-recovery with "Invalid literal for Fraction",
    # and -1.0 to fail grid-recovery at deviation 0.0
    config = dict(depth=1, eq_depth=0, cone_samples=0, tensor_samples=0, recovery_tol=tol)
    with pytest.raises(ValueError, match=f"--tol to be a finite positive number, not {tol}"):
        run_all_checks(Config(**config))


def test_each_chain_builds_its_sections_once_and_validates_once(monkeypatch):
    # factorisations read the sections a chain was built with, and each
    # square is checked by the one validate() pass of the chain checks
    sections, validated = Counter(), Counter()
    for name in ("coeq_kernel", "canonical_section"):

        def counted(alphabet, n, name=name, original=getattr(chains, name)):
            sections[name, alphabet.symbols, n] += 1
            return original(alphabet, n)

        monkeypatch.setattr(chains, name, counted)
    validate = chains.DDChain.validate

    def counted_validate(chain):
        validated[id(chain)] += 1
        return validate(chain)

    monkeypatch.setattr(chains.DDChain, "validate", counted_validate)
    report = run_all_checks(Config(depth=2, eq_depth=1, cone_samples=2, tensor_samples=2, grid=4))
    assert report.passed
    # levels 0..2 of the stoch chain, the delta chain and the padded bang chain
    assert len(sections) == 9 and set(sections.values()) == {1}
    assert sorted(validated.values()) == [1, 1, 1]


def test_equaliser_checks_above_the_chain_depth_build_each_section_once(monkeypatch):
    # up to the depth the equaliser checks read the chains' sections; above
    # it each coordinate system's backend builds the level's section once
    sections = Counter()
    for name in ("coeq_kernel", "canonical_section"):

        def counted(alphabet, n, name=name, original=getattr(chains, name)):
            sections[name, alphabet.symbols, n] += 1
            return original(alphabet, n)

        monkeypatch.setattr(chains, name, counted)
    report = run_all_checks(Config(depth=2, eq_depth=3, cone_samples=2, tensor_samples=2, grid=4))
    assert report.passed
    # levels 0..3 of the stoch and delta coordinates, levels 0..2 of the padded bang chain
    assert len(sections) == 11 and set(sections.values()) == {1}
    assert {n for _, symbols, n in sections if symbols == ("t", "f")} == {0, 1, 2, 3}


def _cone_rows(config):
    _, built = verify.chain_checks(config)
    rows = verify.cone_checks(config, built)
    return [row for row in rows if row.name == "cone-round-trip"], built


def test_cone_round_trip_makes_one_expand_and_one_factor_per_sample(monkeypatch):
    calls = Counter()
    for name in ("expand_dd_cone", "factor_delete_cone"):

        def counted(cone, name=name, original=getattr(verify, name)):
            calls[name, id(cone.chain)] += 1
            return original(cone)

        monkeypatch.setattr(verify, name, counted)
    rows, built = _cone_rows(Config(depth=3, cone_samples=3, tensor_samples=1))
    assert [row.passed for row in rows] == [True, True]
    names = ("expand_dd_cone", "factor_delete_cone")
    per_chain = [id(built[label]) for label in ("stoch", "pcoh-definetti")]
    assert calls == {(name, c): 3 for name in names for c in per_chain}


@pytest.mark.parametrize("name", ["expand_dd_cone", "factor_delete_cone"])
def test_cone_round_trip_checks_the_output_of_each_direction(monkeypatch, name):
    # doubling one entry of one returned leg must show in both chains' rows
    original = getattr(verify, name)

    def skewed(cone):
        out = original(cone)
        top = out.legs[-1]
        first = dict(top[0])
        j = next(iter(first))
        first[j] *= 2
        return chains.Cone(out.chain, out.legs[:-1] + [(first,) + top[1:]], out.kind)

    monkeypatch.setattr(verify, name, skewed)
    rows, _ = _cone_rows(Config(depth=3, cone_samples=2, tensor_samples=1))
    assert len(rows) == 2
    assert not any(row.passed or isinstance(row.deviation, str) for row in rows)
    assert all(row.deviation > 0 for row in rows)


@pytest.mark.parametrize(
    "symbols, depth", [(("t", "f"), 4), (("a", "b", "c"), 3)], ids=["two-symbols", "three-symbols"]
)
@pytest.mark.parametrize("label", ["stoch", "pcoh-definetti"])
def test_expanding_a_dd_cone_gives_the_delete_cone_of_its_top(symbols, depth, label):
    # the premise of the one-pass round trip: by the defining squares,
    # expand(cone of T) is the delete-cone of T . eq_N, exactly
    chain = chains.build_dd_chain(verify._COPOINTED[label](Alphabet.of(*symbols)), depth)
    rng = random.Random(f"{label}:{depth}")
    top_eq = chain.eqs[depth].entries
    for apex in (1, 2, 3):
        top = chains._random_stochastic_rows(rng, apex, len(top_eq))
        expanded = chains.expand_dd_cone(chains.cone_from_top(chain, top, "dd"))
        assert expanded.legs == chains.cone_from_top(chain, matmul(top, top_eq), "delete").legs

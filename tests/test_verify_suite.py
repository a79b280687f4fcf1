import pytest

from urnchains.verify import Config, run_all_checks


def test_default_suite_is_green():
    report = run_all_checks(Config())
    assert report.passed
    names = {c.name for c in report.checks}
    assert "defining-square" in names
    assert "cone-round-trip" in names
    assert "grid-recovery" in names


def test_every_check_carries_a_law_string():
    report = run_all_checks(Config(depth=3, eq_depth=3, cone_samples=3, tensor_samples=2, grid=8))
    for check in report.checks:
        assert check.law and check.name
        data = check.to_json()
        assert set(data) >= {"check", "law", "params", "deviation", "passed"}


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

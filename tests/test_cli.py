import json

import pytest

from urnchains.cli import main


@pytest.fixture
def dirac_mixing(tmp_path):
    path = tmp_path / "dirac.json"
    path.write_text(
        json.dumps(
            {
                "alphabet": {"symbols": ["t", "f"]},
                "atoms": [{"point": ["1/2", "1/2"], "weight": 1}],
            }
        )
    )
    return str(path)


@pytest.fixture
def sub_mixing(tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(
        json.dumps(
            {
                "alphabet": {"symbols": ["t", "f"]},
                "atoms": [{"point": ["1/2", "1/2"], "weight": "1/2"}],
            }
        )
    )
    return str(path)


def _small_verify_args(out):
    return [
        "verify-all",
        "--depth",
        "3",
        "--eq-depth",
        "3",
        "--cone-samples",
        "4",
        "--tensor-samples",
        "2",
        "--grid",
        "8",
        "--out",
        out,
    ]


def test_verify_all_passes(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(_small_verify_args(out)) == 0
    report = json.loads(open(out).read())
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    assert any(c["check"] == "defining-square" for c in report["checks"])
    assert "PASS" in capsys.readouterr().out


def test_verify_all_fault_injection_names_the_square(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(_small_verify_args(out) + ["--inject-fault"]) == 1
    report = json.loads(open(out).read())
    bad = [c for c in report["checks"] if not c["passed"]]
    assert len(bad) == 1
    assert bad[0]["check"] == "defining-square"
    assert bad[0]["params"]["level"] == 1
    assert "defining-square" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["bang", "totality", "--bang", "/nonexistent.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_bad_flag_values_are_input_errors(dirac_mixing, capsys):
    assert main(["definetti", "recover", "--bang", dirac_mixing, "--grid", "1"]) == 2
    for length in ("0", "-1"):
        argv = ["definetti", "simulate", "--mixing", dirac_mixing, "--prefix-len", length]
        assert main(argv) == 2
        assert "--prefix-len must be at least 1" in capsys.readouterr().err


def test_recover_reports_a_failed_float_solve(tmp_path, capsys):
    # float phase 1 loses feasibility on this mixture; exit 1, no traceback
    mixing = tmp_path / "mixing.json"
    mixing.write_text(
        json.dumps(
            {
                "alphabet": {"symbols": ["a", "b", "c"]},
                "atoms": [
                    {"point": ["1/4", "1/4", "1/2"], "weight": "1/3"},
                    {"point": ["1/2", "3/8", "1/8"], "weight": "2/3"},
                ],
            }
        )
    )
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", str(mixing), "--depth", "4", "--out", bang]) == 0
    argv = ["definetti", "recover", "--bang", bang, "--grid", "16", "--mode", "float"]
    assert main(argv) == 1
    assert "phase 1" in capsys.readouterr().err


def test_iota_totality_recover_round_trip(tmp_path, dirac_mixing, capsys):
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", dirac_mixing, "--depth", "6", "--out", bang]) == 0
    assert main(["bang", "totality", "--bang", bang]) == 0
    out = str(tmp_path / "measure.json")
    assert (
        main(["definetti", "recover", "--bang", bang, "--grid", "64", "--out", out]) == 0
    )
    measure = json.loads(open(out).read())
    assert measure["residual"] <= 1e-6
    assert measure["grid_resolution"] == 64
    big = [a for a in measure["atoms"] if a["weight"] > 0.5]
    assert len(big) == 1 and abs(big[0]["point"][0] - 0.5) <= 1 / 64


def test_embed_alias_for_iota(tmp_path, dirac_mixing):
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "embed", "--mixing", dirac_mixing, "--out", bang]) == 0


def test_subprobability_iota_reported_not_total(tmp_path, sub_mixing, capsys):
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", sub_mixing, "--out", bang]) == 0
    assert "substochastic" in capsys.readouterr().out
    assert main(["bang", "totality", "--bang", bang]) == 1
    assert "substochastic" in capsys.readouterr().out


def test_recover_rejects_non_total(tmp_path, sub_mixing, capsys):
    bang = str(tmp_path / "bang.json")
    main(["bang", "iota", "--mixing", sub_mixing, "--out", bang])
    assert main(["definetti", "recover", "--bang", bang]) == 1
    assert "not total" in capsys.readouterr().err


def test_simulate_dirac_and_determinism(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(
        json.dumps(
            {
                "alphabet": {"symbols": ["t", "f"]},
                "atoms": [{"point": [1, 0], "weight": 1}],
            }
        )
    )
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = [
        "definetti",
        "simulate",
        "--mixing",
        str(point),
        "--prefix-len",
        "100",
        "--trials",
        "50",
        "--seed",
        "3",
    ]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    a, b = open(out1, "rb").read(), open(out2, "rb").read()
    assert a == b  # byte-identical for a fixed seed
    lines = a.decode().strip().split("\n")
    assert len(lines) == 2  # single spike for a point mass
    assert lines[1].startswith("1.0,0.0,")
    moments = open(out1[:-4] + "-moments.csv").read()
    assert "t,1," in moments


def test_simulate_rejects_subprobability(sub_mixing):
    assert main(["definetti", "simulate", "--mixing", sub_mixing]) == 2

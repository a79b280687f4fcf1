import hashlib
import json
import time

import pytest

from urnchains.cli import _build_parser, _validate, main


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
    argv = ["definetti", "simulate", "--mixing", dirac_mixing, "--seed", "-1"]
    assert main(argv) == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err
    # verify-all keeps accepting negative seeds
    _validate(_build_parser().parse_args(["verify-all", "--seed", "-1"]))


def _write_mixing(path, symbols, atoms):
    path.write_text(
        json.dumps(
            {
                "alphabet": {"symbols": symbols},
                "atoms": [{"point": p, "weight": w} for p, w in atoms],
            }
        )
    )
    return str(path)


@pytest.mark.parametrize(
    "depth, grid, symbols, words",
    [
        # C(64 + 3, 3) + 1 = 47,906 LP variables
        (3, 64, ["a", "b", "c", "d"], ["--grid 64", "47906", "5000"]),
        # 2 * C(44 + 2, 2) + 1 = 2,071 LP constraints
        (44, 8, ["t", "f"], ["--grid", "depth 44", "2071", "2000"]),
    ],
    ids=["variables", "constraints"],
)
def test_recover_refuses_an_oversized_lp_up_front(tmp_path, capsys, depth, grid, symbols, words):
    point = [f"1/{len(symbols)}"] * len(symbols)
    mixing = _write_mixing(tmp_path / "mixing.json", symbols, [(point, 1)])
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", mixing, "--depth", str(depth), "--out", bang]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["definetti", "recover", "--bang", bang, "--grid", str(grid)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    for word in words:
        assert word in err


_README_MIXING = ["t", "f"], [(["1/5", "4/5"], "1/2"), (["9/10", "1/10"], "1/2")]
_THREE_SYMBOL_MIXING = ["a", "b", "c"], [
    (["1/2", "1/3", "1/6"], "1/4"),
    (["1/10", "3/10", "3/5"], "1/3"),
    (["1/3", "1/3", "1/3"], "1/6"),
    (["7/8", "1/16", "1/16"], "1/4"),
]


# SHA-256 of the histogram and moments CSVs, recorded with a fresh
# default_rng(SeedSequence(entropy=seed, spawn_key=(trial,))) per trial
@pytest.mark.parametrize(
    "mixing, prefix, trials, seed, hist_digest, moments_digest",
    [
        (
            _README_MIXING, 1000, 10_000, 1,
            "8b0edd5e3f04a9c1a1dd150685fb707ce4f732db69344029fa4fb82b84e724d1",
            "40c6607bb3d1ae13e50f0d0ba033436a31fec3423eafaea652a5a01d7e1c6802",
        ),
        (
            _THREE_SYMBOL_MIXING, 100_000, 2000, 7,
            "f3833d56e44c52b6ec56533625b156a1016f7db65f08be798b1721580695e1fd",
            "7953d78900c7b9ab6ce69b7c494e18654e795a25c5b8c9d3761ae360a2f5b52e",
        ),
        (
            _README_MIXING, 50, 600, 2**64 + 7,
            "cebe2afba2090860c369b6942dd3e3e3f7d33eb3e56a45deeef2953ebf12f65f",
            "44cfcf1b8e3a522792cf4ad85c8b665e5b2fd06b454cc3c494dfaf21660d57ae",
        ),
        (
            _THREE_SYMBOL_MIXING, 40, 2500, 2**32 - 1,
            "2b89d651ff52af7ca37dd78bd0a15b0523dd02da656703e8b99ba1a065a0eca5",
            "b557a0aeb69cd38d85f72025320ddfbe1f8bf9ed38f987b4e0d439db73795bf3",
        ),
    ],
    ids=["readme", "three-symbols", "seed-above-2**64", "2500-trials"],
)
def test_simulate_output_digests(tmp_path, mixing, prefix, trials, seed, hist_digest, moments_digest):
    path = _write_mixing(tmp_path / "mixing.json", *mixing)
    hist = str(tmp_path / "hist.csv")
    argv = ["definetti", "simulate", "--mixing", path, "--prefix-len", str(prefix),
            "--trials", str(trials), "--seed", str(seed), "--out", hist]
    assert main(argv) == 0
    digests = [
        hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in (hist, str(tmp_path / "hist-moments.csv"))
    ]
    assert digests == [hist_digest, moments_digest]


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

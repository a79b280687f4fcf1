import cProfile
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from helpers import dense_rows, sparse
from urnchains import multiset, spaces
from urnchains.cli import _build_parser, _validate, main


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only oracle: importing scipy.optimize adds tens of MiB
    # of resident memory and its load time to every command
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, urnchains.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_builds_no_parser():
    # the parser is built on the first main() call, so it costs nothing at import
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, urnchains.cli as cli; sys.exit(cli._build_parser.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("symbols", [["a"], ["a", "b"], ["a", "b", "c"]], ids=len)
def test_fault_injection_breaks_one_square_at_every_size(tmp_path, symbols, depth):
    # on one symbol, and at depth 1 where the step maps into the one-point
    # M0, the tampered row has a single entry that reversing leaves alone
    alphabet = tmp_path / "alphabet.json"
    alphabet.write_text(json.dumps({"symbols": symbols}))
    out = str(tmp_path / "report.json")
    argv = [
        "verify-all", "--alphabet", str(alphabet), "--depth", str(depth), "--eq-depth", "2",
        "--cone-samples", "2", "--tensor-samples", "2", "--grid", "4", "--out", out,
    ]
    assert main(argv + ["--inject-fault"]) == 1
    report = json.loads(open(out).read())
    assert [c["check"] for c in report["checks"] if not c["passed"]] == ["defining-square"]


@pytest.mark.parametrize("extra", [[], ["--inject-fault"]], ids=["plain", "inject-fault"])
def test_verify_all_refuses_depth_zero(tmp_path, capsys, extra):
    out = str(tmp_path / "report.json")
    assert main(["verify-all", "--depth", "0", "--out", out] + extra) == 2
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tol, failed", [("0.9", ["vertex-recovery"]), ("2", ["vertex-recovery", "grid-recovery"])]
)
def test_recovery_that_raises_is_a_failed_check(tmp_path, capsys, tol, failed):
    # a --tol this large prunes every recovered weight; the recovery error is
    # the failed check's deviation, not a traceback
    out = str(tmp_path / "report.json")
    argv = ["verify-all", "--tol", tol, "--depth", "2", "--eq-depth", "2", "--out", out]
    assert main(argv) == 1
    report = json.loads(open(out).read())
    bad = [c for c in report["checks"] if not c["passed"]]
    assert [c["check"] for c in bad] == failed
    assert all("all weights pruned" in c["deviation"] for c in bad)
    assert "all weights pruned" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-all", "bang iota"])
def test_non_string_alphabet_symbols_are_input_errors(tmp_path, capsys, command):
    if command == "verify-all":
        alphabet = tmp_path / "alphabet.json"
        alphabet.write_text(json.dumps({"symbols": [1, 2]}))
        argv = ["verify-all", "--alphabet", str(alphabet)]
    else:
        mixing = _write_mixing(tmp_path / "mixing.json", [1, 2], [(["1/2", "1/2"], 1)])
        argv = ["bang", "iota", "--mixing", mixing]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "symbol 1 is not a string" in err


def test_string_alphabet_is_an_input_error(tmp_path, capsys):
    # a string is not read as the list of its characters
    alphabet = tmp_path / "alphabet.json"
    alphabet.write_text(json.dumps({"symbols": "tf"}))
    assert main(["verify-all", "--alphabet", str(alphabet)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "JSON list" in err


@pytest.mark.parametrize("flag", ["--cone-samples", "--tensor-samples", "--eq-depth"])
def test_verify_all_refuses_negative_sample_counts(tmp_path, capsys, flag):
    out = tmp_path / "report.json"
    assert main(["verify-all", flag, "-3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and flag in err
    assert not out.exists()


def test_iota_accepts_depth_zero(tmp_path, dirac_mixing):
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", dirac_mixing, "--depth", "0", "--out", bang]) == 0


def test_pcoh_chain_that_fails_to_build_is_a_check_failure(tmp_path, capsys, monkeypatch):
    # a wrong delta-coordinate closed form must read as a failed check (exit
    # 1), not as bad input (exit 2)
    from urnchains.chains import Backend

    closed_form = Backend.dd_closed_form

    def reversed_first_row(self, weaken, n):
        step = closed_form(self, weaken, n)
        if self.uniform:
            return step
        first = dense_rows(step)[0][::-1]
        return type(step)(step.source, step.target, sparse((first,)) + step.entries[1:])

    monkeypatch.setattr(Backend, "dd_closed_form", reversed_first_row)
    out = str(tmp_path / "report.json")
    assert main(_small_verify_args(out)) == 1
    report = json.loads(open(out).read())
    failed = {c["check"] for c in report["checks"] if not c["passed"]}
    assert failed == {"dd-universal-solve"}
    assert "dd-universal-solve" in capsys.readouterr().err


def test_tensor_map_that_does_not_factor_is_a_check_failure(tmp_path, capsys, monkeypatch):
    # a refusal inside the (x) Y round trips reads as a failed check (exit 1),
    # with the refusal as its deviation, not as a traceback
    from urnchains.chains import DDChain

    tensored = DDChain.tensored

    def halved_sections(self, y=None):
        eqs, sections, dds = tensored(self, y)
        if y is None:
            return eqs, sections, dds
        return eqs, [tuple({j: v / 2 for j, v in row.items()} for row in s) for s in sections], dds

    monkeypatch.setattr(DDChain, "tensored", halved_sections)
    out = str(tmp_path / "report.json")
    assert main(_small_verify_args(out)) == 1
    report = json.loads(open(out).read())
    bad = [c for c in report["checks"] if not c["passed"]]
    assert {c["check"] for c in bad} == {"tensor-parametrized"} and len(bad) == 2
    assert all("fails at level 1 (x) X(t,f)" in c["deviation"] for c in bad)
    assert "tensor-parametrized" in capsys.readouterr().err


def test_section_that_does_not_split_is_a_check_failure(tmp_path, capsys, monkeypatch):
    # a wrong stoch section is refused when its chain is built, and the
    # equaliser checks find it on the maps the stoch backend builds
    from urnchains import chains
    from urnchains.stoch import FinKernel

    coeq_kernel = chains.coeq_kernel

    def swapped_from_level_2(alphabet, n):
        section = coeq_kernel(alphabet, n)
        if n < 2:
            return section
        rows = (section.entries[1], section.entries[0]) + section.entries[2:]
        return FinKernel(section.source, section.target, rows)

    monkeypatch.setattr(chains, "coeq_kernel", swapped_from_level_2)
    out = str(tmp_path / "report.json")
    assert main(_small_verify_args(out)) == 1
    bad = [c for c in json.loads(open(out).read())["checks"] if not c["passed"]]
    built = [c for c in bad if c["check"] == "dd-universal-solve"]
    assert [c["params"]["backend"] for c in built] == ["stoch"]
    assert "does not split the equaliser at level 2" in built[0]["deviation"]
    assert [c["params"]["n"] for c in bad if c["check"] == "eq-coeq-identity"] == [2, 3]
    assert "dd-universal-solve" in capsys.readouterr().err


@pytest.mark.parametrize(
    "site, check",
    [
        ("lift_copointed_morphism", "chain-morphism-square"),
        ("multinomial_cone", "iid-urn-cone"),
        ("factor_delete_cone", "cone-round-trip"),
    ],
)
def test_refusal_inside_a_check_is_a_check_failure(tmp_path, capsys, monkeypatch, site, check):
    # a refusal reads as a failed check with the refusal as its deviation
    # (exit 1), never as a traceback
    from urnchains import verify
    from urnchains.chains import ChainError

    def refuse(*args, **kwargs):
        raise ChainError("boom")

    monkeypatch.setattr(verify, site, refuse)
    out = str(tmp_path / "report.json")
    assert main(_small_verify_args(out)) == 1
    bad = [c for c in json.loads(open(out).read())["checks"] if not c["passed"]]
    assert bad and {c["check"] for c in bad} == {check}
    assert all(c["deviation"] == "boom" for c in bad)
    assert check in capsys.readouterr().err


# SHA-256 of the verify-all reports and of the fault run's stderr, recorded
# before the two chain backends were merged into one
@pytest.mark.parametrize(
    "symbols, extra, code, report_digest, stderr_digest",
    [
        (None, [], 0,
         "0fe21e6ec884eebba8c06adaf28acb3aafac1c8187e0334f1c1e7cd7a2799137",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (["a", "b", "c"], [], 0,
         "39e3dab2f85c76646d6ea7f8a358e33504ba179d095dce719acf49cec52ff84e",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (None, ["--inject-fault"], 1,
         "9ea69385f42ee42350696fdc32288859ff77a18133a53efec338d1b8a54c50d7",
         "a9f4c01154037fd26675bf1bb8d555519b3b6afda060623261e3184c0ba4a914"),
        (None, ["--depth", "5", "--eq-depth", "6", "--seed", "1"], 0,
         "e60bf805d3809e8bd239c9794447c1c54fd64018d058ad7145cd593a1b40456a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (["a", "b", "c"], ["--depth", "3", "--eq-depth", "4", "--grid", "8"], 0,
         "ba0e64044e7f47e463fa6d76168cc7b389e42fe1345b4d32ab741ba125f1e65a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ],
    ids=["defaults", "three-symbols", "inject-fault", "two-symbols-deep", "three-symbols-small"],
)
def test_verify_all_report_digests(tmp_path, capsys, symbols, extra, code, report_digest, stderr_digest):
    out = str(tmp_path / "report.json")
    argv = ["verify-all", "--out", out] + extra
    if symbols is not None:
        alphabet = tmp_path / "alphabet.json"
        alphabet.write_text(json.dumps({"symbols": symbols}))
        argv += ["--alphabet", str(alphabet)]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == report_digest
    assert hashlib.sha256(err.encode()).hexdigest() == stderr_digest


def test_missing_file_is_input_error(capsys):
    assert main(["bang", "totality", "--bang", "/nonexistent.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_bad_flag_values_are_input_errors(dirac_mixing, capsys, tmp_path):
    assert main(["definetti", "recover", "--bang", dirac_mixing, "--grid", "1"]) == 2
    for length in ("0", "-1"):
        argv = ["definetti", "simulate", "--mixing", dirac_mixing, "--prefix-len", length]
        assert main(argv) == 2
        assert "--prefix-len must be at least 1" in capsys.readouterr().err
    for trials in ("0", "-1"):
        argv = ["definetti", "simulate", "--mixing", dirac_mixing, "--trials", trials]
        assert main(argv) == 2
        assert "--trials must be at least 1" in capsys.readouterr().err
    argv = ["definetti", "simulate", "--mixing", dirac_mixing, "--seed", "-1"]
    assert main(argv) == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err
    # verify-all keeps accepting negative seeds
    _validate(_build_parser().parse_args(["verify-all", "--seed", "-1"]))
    # sizes past a cap are refused before any work, naming the flag to lower
    for flag, value in (("--depth", "12"), ("--depth", "40"), ("--eq-depth", "30"), ("--grid", "100000")):
        assert main(["verify-all", flag, value]) == 2
        assert f"lower {flag}" in capsys.readouterr().err
    mixing = _write_mixing(tmp_path / "mixing4.json", ["a", "b", "c", "d"], [(["1/4"] * 4, 1)])
    assert main(["bang", "iota", "--mixing", mixing, "--depth", "300"]) == 2
    assert "lower --depth" in capsys.readouterr().err


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


_FOUR_SYMBOL_MIXING = ["w", "x", "y", "z"], [
    (["1/4", "0", "3/4", "0"], "2/7"),
    (["1/7", "2/7", "3/7", "1/7"], "3/7"),
    ([1, 0, 0, 0], "2/7"),
]


# SHA-256 of the bang iota output files, recorded with the writer that
# called json.dump(indent=2, sort_keys=True); they pin its bytes
@pytest.mark.parametrize(
    "mixing, depth, digest",
    [
        (_README_MIXING, 16, "e7f9532f099b06e52b5535d2c22a8476bb5f0a6997b7a8e29f009a18f83d7d87"),
        (_THREE_SYMBOL_MIXING, 8, "a8b319bd6d10f40dd2453a3b7d8ea31d9c2aa71d4dc2a6c82a2b23168446f998"),
        (_FOUR_SYMBOL_MIXING, 5, "4ee0d945460feb2244a276cc91bfe126a56223de7e7110d3c13e7ce882770f0e"),
    ],
    ids=["two-symbols", "three-symbols", "four-symbols"],
)
def test_iota_output_digests(tmp_path, mixing, depth, digest):
    path = _write_mixing(tmp_path / "mixing.json", *mixing)
    out = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", path, "--depth", str(depth), "--out", out]) == 0
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == digest


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
    err = capsys.readouterr().err
    assert err.startswith("element is not total: at (0, 0)") and err.count("not total") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
@pytest.mark.parametrize(
    "command, flag",
    [
        (["bang", "totality"], "--tol"),
        (["definetti", "recover"], "--totality-tol"),
        (["verify-all"], "--tol"),
    ],
    ids=["totality", "recover", "verify-all"],
)
def test_tolerance_that_is_not_finite_and_positive_is_an_input_error(tmp_path, capsys, command, flag, value):
    # the table is not total at any tolerance below 1/2: a nan tolerance
    # used to print "total" and exit 0 on it
    path = tmp_path / "bang.json"
    coeffs = [{"multiset": [0, 0], "value": 1}, {"multiset": [1, 0], "value": "1/2"}]
    path.write_text(json.dumps({"alphabet": {"symbols": ["t", "f"]}, "depth": 1, "coeffs": coeffs}))
    inputs = [] if command == ["verify-all"] else ["--bang", str(path)]
    assert main(command + inputs + [f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error") and f"{flag} must be a finite positive number" in captured.err
    assert captured.out == ""


def test_alphabet_holding_the_pad_symbol_passes_verify_all(tmp_path, capsys):
    # the pcoh-bang chain pads with a fresh symbol, "**" here
    alphabet = tmp_path / "alphabet.json"
    alphabet.write_text(json.dumps({"symbols": ["*", "a"]}))
    out = str(tmp_path / "report.json")
    argv = ["verify-all", "--alphabet", str(alphabet), "--depth", "2", "--eq-depth", "2"]
    assert main(argv + ["--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["passed"] and report["config"]["alphabet"] == ["*", "a"]


def test_recover_checks_totality_at_the_flag_tolerance(tmp_path, capsys):
    # the bang file is off total by 1e-10 in its [f] entry
    path = tmp_path / "bang.json"
    coeffs = [
        {"multiset": [0, 0], "value": 1},
        {"multiset": [1, 0], "value": 0.3},
        {"multiset": [0, 1], "value": 0.7000000001},
    ]
    path.write_text(json.dumps({"alphabet": {"symbols": ["t", "f"]}, "depth": 1, "coeffs": coeffs}))
    recover = ["definetti", "recover", "--bang", str(path), "--grid", "8"]
    assert main(recover) == 0
    assert "atoms: 2," in capsys.readouterr().out
    assert main(recover + ["--totality-tol", "1e-11"]) == 1
    assert "not total" in capsys.readouterr().err


_BANG_TF_DEPTH_1 = [
    {"multiset": [0, 0], "value": 1},
    {"multiset": [1, 0], "value": "1/2"},
    {"multiset": [0, 1], "value": "1/2"},
]


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"multiset": [5, 0, 0], "value": 7}, "[5, 0, 0]"),
        ({"multiset": [3, 0], "value": 9}, "[3, 0]"),
        ({"multiset": [2, -1], "value": 9}, "[2, -1]"),
        ({"multiset": [0.5, 0], "value": 9}, "[0.5, 0]"),
        ({"multiset": [1, 0], "value": "1/3"}, "[1, 0] is listed twice"),
    ],
    ids=["wrong-arity", "beyond-depth", "negative-count", "fractional-count", "duplicate"],
)
def test_bang_entries_off_the_web_are_input_errors(tmp_path, capsys, extra, named):
    path = tmp_path / "bang.json"
    path.write_text(
        json.dumps(
            {"alphabet": {"symbols": ["t", "f"]}, "depth": 1, "coeffs": _BANG_TF_DEPTH_1 + [extra]}
        )
    )
    for argv in (["bang", "totality"], ["definetti", "recover", "--grid", "4"]):
        assert main(argv + ["--bang", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and named in err


@pytest.mark.parametrize("point, weight", [(["1/0", "1/2"], 1), (["1/2", "1/2"], "1/0")], ids=["point", "weight"])
def test_zero_denominator_in_a_mixing_is_an_input_error(tmp_path, capsys, point, weight):
    mixing = _write_mixing(tmp_path / "mixing.json", ["t", "f"], [(point, weight)])
    simulate = ["definetti", "simulate", "--trials", "10", "--prefix-len", "10"]
    for argv in (["bang", "iota"], simulate):
        assert main(argv + ["--mixing", mixing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and "'1/0'" in err


def test_zero_denominator_in_a_bang_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bang.json"
    coeffs = _BANG_TF_DEPTH_1[:2] + [{"multiset": [0, 1], "value": "1/0"}]
    path.write_text(json.dumps({"alphabet": {"symbols": ["t", "f"]}, "depth": 1, "coeffs": coeffs}))
    assert main(["bang", "totality", "--bang", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "'1/0'" in err


@pytest.mark.parametrize("depth", [1.5, True, -1, "1"], ids=["fraction", "bool", "negative", "string"])
def test_bang_depth_that_is_not_a_nonnegative_integer_is_an_input_error(tmp_path, capsys, depth):
    path = tmp_path / "bang.json"
    path.write_text(
        json.dumps({"alphabet": {"symbols": ["t", "f"]}, "depth": depth, "coeffs": _BANG_TF_DEPTH_1})
    )
    for argv in (["bang", "totality"], ["definetti", "recover", "--grid", "4"]):
        assert main(argv + ["--bang", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and f"depth {depth!r}" in err


# JSON true was read as 1 and [1.0, 0] as the multiset [1, 0], so each of
# these tables was called total
@pytest.mark.parametrize(
    "coeffs, named",
    [
        ([{"multiset": [0, 0], "value": True}] + _BANG_TF_DEPTH_1[1:], "value True"),
        (
            [_BANG_TF_DEPTH_1[0], {"multiset": [True, False], "value": "1/2"}, _BANG_TF_DEPTH_1[2]],
            "multiset [True, False] has a count True",
        ),
        (
            [_BANG_TF_DEPTH_1[0], {"multiset": [1.0, 0], "value": "1/2"}, _BANG_TF_DEPTH_1[2]],
            "multiset [1.0, 0] has a count 1.0",
        ),
    ],
    ids=["boolean-value", "boolean-counts", "float-count"],
)
def test_booleans_and_float_counts_in_a_bang_file_are_input_errors(tmp_path, capsys, coeffs, named):
    path = tmp_path / "bang.json"
    path.write_text(json.dumps({"alphabet": {"symbols": ["t", "f"]}, "depth": 1, "coeffs": coeffs}))
    for argv in (["bang", "totality"], ["definetti", "recover", "--grid", "4"]):
        assert main(argv + ["--bang", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and named in err


@pytest.mark.parametrize("point, weight", [([True, False], 1), (["1/2", "1/2"], True)], ids=["point", "weight"])
def test_booleans_in_a_mixing_are_input_errors(tmp_path, capsys, point, weight):
    mixing = _write_mixing(tmp_path / "mixing.json", ["t", "f"], [(point, weight)])
    simulate = ["definetti", "simulate", "--trials", "10", "--prefix-len", "10"]
    for argv in (["bang", "iota"], simulate):
        assert main(argv + ["--mixing", mixing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and "value True" in err


def test_recover_prints_its_diagnostic_to_stderr(tmp_path, dirac_mixing, capsys):
    # the depth-2 urn table, two draws without replacement from {t, f}, is
    # total but no mixture of promotions; grid 8 leaves residual 1/4
    urn = tmp_path / "urn.json"
    coeffs = _BANG_TF_DEPTH_1 + [{"multiset": [1, 1], "value": "1/2"}]
    urn.write_text(json.dumps({"alphabet": {"symbols": ["t", "f"]}, "depth": 2, "coeffs": coeffs}))
    out = str(tmp_path / "measure.json")
    assert main(["definetti", "recover", "--bang", str(urn), "--grid", "8", "--out", out]) == 0
    diagnostic = json.loads(open(out).read())["diagnostic"]
    assert diagnostic.startswith("residual 0.25 above tolerance")
    assert capsys.readouterr().err == diagnostic + "\n"
    # a recovery within tolerance prints nothing there
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", dirac_mixing, "--depth", "2", "--out", bang]) == 0
    assert main(["definetti", "recover", "--bang", bang, "--grid", "8", "--out", out]) == 0
    assert "diagnostic" not in json.loads(open(out).read())
    assert capsys.readouterr().err == ""


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


def _off_total_by_1e10(tmp_path):
    # an exact t,f depth-1 table whose [t] and [f] entries sum to 1 + 1/10^10
    path = tmp_path / "off-total.json"
    coeffs = [
        {"multiset": [0, 0], "value": 1},
        {"multiset": [1, 0], "value": "3/10"},
        {"multiset": [0, 1], "value": "7000000001/10000000000"},
    ]
    path.write_text(json.dumps({"alphabet": {"symbols": ["t", "f"]}, "depth": 1, "coeffs": coeffs}))
    return str(path)


def test_totality_judges_an_exact_table_at_tolerance_zero(tmp_path, capsys):
    # the default --tol was 1e-9 for every table, which called this one total
    totality = ["bang", "totality", "--bang", _off_total_by_1e10(tmp_path)]
    assert main(totality) == 1
    assert "(defect 1/10000000000)" in capsys.readouterr().out
    assert main(totality + ["--tol", "1e-9"]) == 0
    assert capsys.readouterr().out == "total (worst defect 1/10000000000)\n"


def test_float_mode_table_passes_totality_at_the_float_tolerance(tmp_path, capsys):
    # its float coefficients used to be read as exact decimals, so the table
    # was judged at tolerance zero and failed with a defect of 1/10^16
    mixing = _write_mixing(tmp_path / "mixing.json", ["a", "b"], [(["1/3", "2/3"], "1/2"), ([1, 0], "1/2")])
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", mixing, "--depth", "7", "--mode", "float", "--out", bang]) == 0
    capsys.readouterr()
    assert main(["bang", "totality", "--bang", bang]) == 0
    assert capsys.readouterr().out.startswith("total (worst defect ")


@pytest.mark.parametrize("point", ["10", {"1": "1/2", "0": "1/2"}], ids=["string", "object"])
def test_a_point_that_is_not_a_list_is_an_input_error(tmp_path, capsys, point):
    # a string or object is not read as the list of its characters or keys
    mixing = _write_mixing(tmp_path / "mixing.json", ["a", "b"], [(point, 1)])
    assert main(["bang", "iota", "--mixing", mixing, "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "point must be a JSON list" in err


def test_bang_iota_and_totality_build_no_multiset(tmp_path, monkeypatch):
    # multisets travel as count tuples; the Multiset wrapper is only the
    # argument of multiset.enumerations, which neither command calls
    built = []
    monkeypatch.setattr(multiset.Multiset, "__post_init__", lambda self: built.append(self.counts))
    mixing = _write_mixing(tmp_path / "mixing.json", ["a", "b", "c"], [(["1/3", "1/6", "1/2"], 1)])
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", mixing, "--depth", "4", "--out", bang]) == 0
    assert main(["bang", "totality", "--bang", bang]) == 0
    assert built == []


@pytest.mark.parametrize("command", ["iota", "totality"])
def test_bang_commands_build_the_web_once(tmp_path, dirac_mixing, command):
    bang = str(tmp_path / "bang.json")
    assert main(["bang", "iota", "--mixing", dirac_mixing, "--depth", "5", "--out", bang]) == 0
    argv = {
        "iota": ["bang", "iota", "--mixing", dirac_mixing, "--depth", "5", "--out", bang],
        "totality": ["bang", "totality", "--bang", bang],
    }[command]
    profile = cProfile.Profile()
    assert profile.runcall(main, argv) == 0
    calls = sum(
        e.callcount for e in profile.getstats() if e.code is spaces.bounded_multiset_space.__code__
    )
    assert calls == 1


def test_repeated_main_calls_give_the_same_results(tmp_path, dirac_mixing, capsys):
    # main() reuses one parser; a second run of the same calls must not see the first
    bang = str(tmp_path / "bang.json")
    hist = str(tmp_path / "hist.csv")
    calls = [
        ["verify-all", "--depth", "0"],
        ["verify-all", "--tol", "nan"],
        ["verify-all", "--grid", "1"],
        ["bang", "iota", "--mixing", dirac_mixing, "--depth", "3", "--out", bang],
        ["bang", "iota", "--mixing", dirac_mixing, "--depth", "2"],
        ["bang", "totality", "--bang", bang],
        ["bang", "totality", "--bang", _off_total_by_1e10(tmp_path)],
        ["definetti", "simulate", "--mixing", dirac_mixing, "--trials", "20", "--prefix-len", "10", "--out", hist],
    ]

    def run():
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        written = sorted(p for p in tmp_path.iterdir() if p.suffix == ".csv" or p.name == "bang.json")
        results.append([(p.name, p.read_bytes()) for p in written])
        for p in written:
            p.unlink()
        return results

    first = run()
    assert [r[0] for r in first[:-1]] == [2, 2, 2, 0, 0, 0, 1, 0]
    assert len(first[-1]) == 3
    assert run() == first

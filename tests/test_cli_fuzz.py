"""Generated input files and flag values fed to `cli.main`.

Every command must keep the exit-code contract (0 ok, 1 check failed, 2 bad
input) on whatever it is given, and raise nothing.  The examples are
derandomised and fixed in number, so the suite is a fast, repeatable part of
the tier-1 run.  Sizes stay small through the package's own up-front
refusals: a bang depth is either at most 4 or at least the bang table cap,
which every alphabet exceeds, and a `verify-all` size flag is either at
most 4 or past its cap, so no example builds a large table, chain or LP.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from urnchains.cli import main
from urnchains.pcoh import MAX_BANG_MULTISETS

_FUZZ = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

_EXIT_CODES = {0, 1, 2}

# JSON values a file may hold where a number is expected
_VALUES = st.one_of(
    st.integers(-2, 3),
    st.fractions(min_value=-1, max_value=2).map(str),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/0", "x", "", " 1/2", "0.5", "1e-3", True, None, [], {}]),
)

_SYMBOLS = st.lists(st.sampled_from(["t", "f", "a", "*", "**"]), min_size=1, max_size=3)

_ALPHABETS = st.one_of(
    _SYMBOLS.map(lambda symbols: {"symbols": symbols}),
    st.sampled_from([{"symbols": []}, {"symbols": "tf"}, {"symbols": [1, 2]}, {}, [], "t"]),
)

# small enough to build, or past the bang table cap on every alphabet
_DEPTHS = st.one_of(st.integers(-1, 4), st.integers(MAX_BANG_MULTISETS, 10**6))

_JUNK = st.sampled_from([None, [], {}, "x", 3])

_GOOD_TOLS = st.one_of(st.none(), st.sampled_from(["1e-12", "1e-6", "0.5"]))
_TOLS = st.one_of(_GOOD_TOLS, st.sampled_from(["nan", "-inf", "0"]))


@st.composite
def _probability_mixing(draw):
    """A mixing measure over up to 4 symbols, total weight at most 1, as
    "p/q" strings (a float such as 1/3 reads as its decimal, 0.3333333333333333)."""
    symbols = draw(st.lists(st.sampled_from(["t", "f", "a", "b"]), min_size=1, max_size=4, unique=True))

    def composition(size):
        parts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        parts[draw(st.integers(0, size - 1))] += 1
        return parts

    points = [composition(len(symbols)) for _ in range(draw(st.integers(1, 3)))]
    weights = composition(len(points))
    total = sum(weights) + draw(st.integers(0, 1))
    atoms = [
        {"point": [f"{p}/{sum(point)}" for p in point], "weight": f"{w}/{total}"}
        for point, w in zip(points, weights)
    ]
    return {"alphabet": {"symbols": symbols}, "atoms": atoms}


# mixing files that are not probability mixings, most of them malformed
_MIXINGS = st.one_of(
    st.fixed_dictionaries(
        {
            "alphabet": _ALPHABETS,
            "atoms": st.lists(
                st.fixed_dictionaries({"point": st.one_of(st.lists(_VALUES, max_size=4), _VALUES), "weight": _VALUES}),
                max_size=3,
            ),
        }
    ),
    _JUNK,
)

_BANGS = st.one_of(
    st.fixed_dictionaries(
        {
            "alphabet": _ALPHABETS,
            "depth": st.one_of(_DEPTHS, _VALUES),
            "coeffs": st.lists(
                st.fixed_dictionaries(
                    {"multiset": st.one_of(st.lists(st.integers(-1, 4), max_size=4), _VALUES), "value": _VALUES}
                ),
                max_size=6,
            ),
        }
    ),
    _JUNK,
)


def _write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _flag(name, value) -> list:
    # one word, so that argparse reads a value such as -inf as the flag's
    return [] if value is None else [f"{name}={value}"]


def _totality_and_recover(bang, tol, grid, recover_tol, totality_tol, mode) -> None:
    assert main(["bang", "totality", "--bang", bang] + _flag("--tol", tol)) in _EXIT_CODES
    recover = ["definetti", "recover", "--bang", bang, "--grid", str(grid), "--mode", mode]
    recover += _flag("--tol", recover_tol) + _flag("--totality-tol", totality_tol)
    assert main(recover) in _EXIT_CODES


@_FUZZ
@given(
    mixing=_probability_mixing(),
    depth=st.integers(0, 4),
    iota_mode=st.sampled_from(["exact", "float"]),
    tamper=st.none() | st.tuples(st.integers(0, 99), _VALUES),
    tol=_GOOD_TOLS,
    grid=st.integers(2, 6),
    recover_tol=_GOOD_TOLS,
    totality_tol=_GOOD_TOLS,
    mode=st.sampled_from(["exact", "float"]),
)
def test_iota_tables_through_totality_and_recover_keep_the_exit_codes(
    tmp_path, mixing, depth, iota_mode, tamper, tol, grid, recover_tol, totality_tol, mode
):
    bang = str(tmp_path / "bang.json")
    iota = ["bang", "iota", "--mixing", _write(tmp_path, "mixing.json", mixing), "--depth", str(depth)]
    assert main(iota + ["--mode", iota_mode, "--out", bang]) == 0
    if tamper is not None:
        # one coefficient of the table replaced by a generated value
        data = json.loads(open(bang).read())
        index, value = tamper
        data["coeffs"][index % len(data["coeffs"])]["value"] = value
        bang = _write(tmp_path, "tampered.json", data)
    _totality_and_recover(bang, tol, grid, recover_tol, totality_tol, mode)


@_FUZZ
@given(mixing=_MIXINGS, depth=_DEPTHS, mode=st.sampled_from(["exact", "float"]))
def test_mixing_files_keep_the_exit_codes(tmp_path, mixing, depth, mode):
    path = _write(tmp_path, "mixing.json", mixing)
    iota = ["bang", "iota", "--mixing", path, "--depth", str(depth), "--mode", mode]
    assert main(iota + ["--out", str(tmp_path / "bang.json")]) in {0, 2}
    simulate = ["definetti", "simulate", "--mixing", path, "--trials", "2", "--prefix-len", "5"]
    assert main(simulate + ["--out", str(tmp_path / "hist.csv")]) in {0, 2}


@_FUZZ
@given(
    bang=_BANGS,
    tol=_TOLS,
    grid=st.integers(1, 6),
    recover_tol=_TOLS,
    totality_tol=_TOLS,
    mode=st.sampled_from(["exact", "float"]),
)
def test_bang_files_keep_the_exit_codes(tmp_path, bang, tol, grid, recover_tol, totality_tol, mode):
    _totality_and_recover(_write(tmp_path, "bang.json", bang), tol, grid, recover_tol, totality_tol, mode)


@_FUZZ
@given(
    mixing=_probability_mixing(),
    trials=st.integers(-1, 5),
    prefix_len=st.one_of(st.integers(-1, 50), st.integers(10**6, 10**20)),
    seed=st.one_of(st.integers(-2, 10), st.just(2**70)),
)
def test_simulate_flags_keep_the_exit_codes(tmp_path, mixing, trials, prefix_len, seed):
    argv = ["definetti", "simulate", "--mixing", _write(tmp_path, "mixing.json", mixing)]
    argv += ["--trials", str(trials), "--prefix-len", str(prefix_len), "--seed", str(seed)]
    assert main(argv + ["--out", str(tmp_path / "hist.csv")]) in _EXIT_CODES


# per verify-all flag: values small enough to run at once, and values that
# are invalid or past a cap on every alphabet
_PAST_TUPLE_CAP = st.integers(18, 10**6)
_VERIFY_FLAGS = {
    "--depth": (st.integers(1, 2), st.integers(-1, 0) | _PAST_TUPLE_CAP),
    "--eq-depth": (st.integers(0, 2), st.just(-1) | _PAST_TUPLE_CAP),
    "--cone-samples": (st.integers(0, 2), st.just(-1)),
    "--tensor-samples": (st.integers(0, 2), st.just(-1)),
    "--grid": (st.integers(2, 4), st.integers(-1, 1) | st.integers(5000, 10**30)),
    "--tol": (st.sampled_from(["1e-12", "1e-6", "0.5"]), st.sampled_from(["nan", "-inf", "0"])),
}


@_FUZZ
@given(
    alphabet=st.none() | _ALPHABETS,
    good=st.fixed_dictionaries({flag: good for flag, (good, _) in _VERIFY_FLAGS.items()}),
    bad=st.none() | st.sampled_from(list(_VERIFY_FLAGS)),
    data=st.data(),
    seed=st.one_of(st.integers(-2, 10), st.just(2**70)),
    inject_fault=st.booleans(),
)
def test_verify_all_flags_keep_the_exit_codes(tmp_path, alphabet, good, bad, data, seed, inject_fault):
    # every flag small but at most one, which is invalid or past its cap
    flags = dict(good)
    if bad is not None:
        flags[bad] = data.draw(_VERIFY_FLAGS[bad][1])
    argv = ["verify-all", f"--seed={seed}"] + [f"{flag}={value}" for flag, value in flags.items()]
    argv += ["--inject-fault"] * inject_fault
    if alphabet is not None:
        argv += ["--alphabet", _write(tmp_path, "alphabet.json", alphabet)]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) in _EXIT_CODES

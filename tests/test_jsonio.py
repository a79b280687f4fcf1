import contextlib
import io
import itertools
import json
import math
import os
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import bang_from_json_oracle, bang_json_oracle, histogram_csv_rows, law_of_histogram, row_moment
from urnchains import jsonio
from urnchains._linalg import frac
from urnchains.jsonio import FormatError
from urnchains.multiset import BOOL, Alphabet
from urnchains.pcoh import BangElement
from urnchains.stoch import AtomicMeasure, ProbVector, empirical_law

F = Fraction


def test_alphabet_round_trip():
    data = jsonio.alphabet_to_json(BOOL)
    assert data == {"symbols": ["t", "f"]}
    assert jsonio.alphabet_from_json(data) == BOOL
    with pytest.raises(FormatError):
        jsonio.alphabet_from_json({"symbols": ["t", "t"]})


def test_measure_round_trip_with_mixed_value_styles():
    data = {
        "alphabet": {"symbols": ["t", "f"]},
        "atoms": [
            {"point": ["1/5", "4/5"], "weight": 0.5},
            {"point": [0.9, "1/10"], "weight": "1/2"},
        ],
    }
    measure = jsonio.measure_from_json(data)
    assert measure.atoms[0][0].weights == (F(1, 5), F(4, 5))
    assert measure.atoms[1][0].weights == (F(9, 10), F(1, 10))  # 0.9 means 9/10
    assert measure.total_weight == 1
    again = jsonio.measure_from_json(jsonio.measure_to_json(measure))
    assert again.atoms == measure.atoms


def _written(b, mode="exact"):
    """The bang file dump_json writes for b, read back as JSON."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        jsonio.dump_json(b, None, mode=mode)
    return json.loads(stdout.getvalue())


def test_bang_round_trip_drops_zeros():
    # web order: [], [t], [f], [t,t], [t,f], [f,f]
    b = BangElement.of(BOOL, 2, (1, F(1, 2), 0, F(1, 8), 0, 0))
    data = _written(b)
    assert data == bang_json_oracle(b)
    assert len(data["coeffs"]) == 3  # zero entries are omitted
    back = jsonio.bang_from_json(data)
    assert back.coeffs == b.coeffs


def test_bang_float_mode_values():
    b = BangElement.of(BOOL, 1, (1, F(1, 2), 0))
    data = _written(b, mode="float")
    assert data == bang_json_oracle(b, mode="float")
    values = {tuple(e["multiset"]): e["value"] for e in data["coeffs"]}
    assert values == {(0, 0): 1.0, (1, 0): 0.5}


def test_bang_float_values_stay_floats():
    # a float table read back is a float table, judged at the float tolerance
    b = BangElement.of(BOOL, 1, (1, F(1, 3), F(2, 3)))
    back = jsonio.bang_from_json(_written(b, mode="float"))
    assert back.coeffs == (1.0, 1 / 3, 2 / 3)
    assert all(type(v) is float for v in back.coeffs)
    exact = jsonio.bang_from_json(_written(b))
    assert exact.coeffs == b.coeffs


_coefficients = st.one_of(
    st.just(0),
    st.integers(0, 10**30),
    st.builds(F, st.integers(0, 10**20), st.integers(1, 10**20)),
    st.floats(min_value=0, allow_infinity=False),
)


@st.composite
def _bang_elements(draw):
    """Tables of 1-4 symbols at depths 0-4 whose coefficients are zeros,
    ints, Fractions and floats."""
    k = draw(st.integers(1, 4))
    depth = draw(st.integers(0, 4))
    alphabet = Alphabet(tuple(draw(st.lists(st.text(max_size=3), min_size=k, max_size=k, unique=True))))
    size = math.comb(depth + k, k)
    coeffs = draw(st.lists(_coefficients, min_size=size, max_size=size))
    return BangElement.of(alphabet, depth, coeffs)


@given(_bang_elements(), st.sampled_from(["exact", "float"]))
@settings(max_examples=150, deadline=None)
def test_bang_writer_writes_json_dump_bytes_of_the_oracle(b, mode):
    expected = json.dumps(bang_json_oracle(b, mode), indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bang.json")
        jsonio.dump_json(b, path, mode=mode)
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
    stdout = _CountingStdout()
    with contextlib.redirect_stdout(stdout):
        jsonio.dump_json(b, None, mode=mode)
    assert stdout.getvalue() == expected and stdout.writes == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bang_non_finite_floats_are_refused(value):
    data = {"alphabet": {"symbols": ["t", "f"]}, "depth": 0, "coeffs": [{"multiset": [0, 0], "value": value}]}
    with pytest.raises(FormatError):
        jsonio.bang_from_json(data)


def test_malformed_inputs_raise_format_errors():
    with pytest.raises(FormatError):
        jsonio.measure_from_json({"atoms": []})
    with pytest.raises(FormatError):
        jsonio.bang_from_json({"alphabet": {"symbols": ["t", "f"]}, "coeffs": []})
    with pytest.raises(FormatError):
        jsonio.load_json("/nonexistent/path.json")


def test_histogram_csv_shape():
    mixing = AtomicMeasure.dirac(ProbVector.of(BOOL, F(1, 2), F(1, 2)))
    law = empirical_law(mixing, 10, trials=50, seed=0)
    csv = jsonio.histogram_csv(law)
    lines = csv.strip().split("\n")
    assert lines[0] == "freq_t,freq_f,count"
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == 50


@st.composite
def _laws(draw):
    """Empirical laws of 1-4 symbols whose rows are count vectors summing to
    the prefix length, with small and boundary counts over-represented (so
    that repr gives forms like 1e-05) and, sometimes, a column of zeros."""
    n = draw(st.sampled_from([1, 7, 100_000]))
    k = draw(st.integers(1, 4))
    zero = draw(st.none() | st.integers(0, k - 1)) if k > 1 else None
    cut = st.one_of(st.integers(0, 3), st.integers(0, n), st.integers(max(n - 3, 0), n))
    parts = k - 1 if zero is not None else k

    def row(cuts):
        bounds = [0, *sorted(cuts), n]
        counts = [b - a for a, b in zip(bounds, bounds[1:])]
        return tuple(counts[:zero] + [0] + counts[zero:]) if zero is not None else tuple(counts)

    rows = draw(st.lists(st.lists(cut, min_size=parts - 1, max_size=parts - 1).map(row), min_size=1, max_size=40))
    tallies = draw(st.lists(st.integers(1, 10_000), min_size=len(rows), max_size=len(rows)))
    histogram = Counter()
    for counts, tally in zip(rows, tallies):
        histogram[counts] += tally
    return law_of_histogram(Alphabet.of(*"abcd"[:k]), n, histogram)


_ONE_ROW = law_of_histogram(Alphabet.of("a", "b", "c"), 100_000, Counter({(1, 0, 99_999): 3}))


@settings(max_examples=150, deadline=None)
@given(_laws())
@example(_ONE_ROW)
def test_histogram_csv_and_moments_match_row_by_row_oracles(law):
    assert jsonio.histogram_csv(law) == histogram_csv_rows(law)
    for symbol in law.alphabet.symbols:
        for order in (1, 2, 3):
            assert repr(law.moment(symbol, order)) == repr(row_moment(law, symbol, order))


# -- the writer: json.dump(indent=2, sort_keys=True) bytes ---------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf]),
    st.text(),  # non-ASCII and control characters included
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=24,
)


class _CountingStdout(io.StringIO):
    writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


@given(_json_values)
@settings(max_examples=200, deadline=None)
def test_dump_json_writes_json_dump_bytes_once(data):
    expected = json.dumps(data, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        jsonio.dump_json(data, path)
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
    stdout = _CountingStdout()
    with contextlib.redirect_stdout(stdout):
        jsonio.dump_json(data, None)
    assert stdout.getvalue() == expected and stdout.writes == 1


@pytest.mark.parametrize("value", [F(1, 2), {1, 2}, b"bytes", [1, object()], {"a": F(1)}])
def test_dump_json_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        jsonio.dump_json(value, None)


# -- the reader: "p/q" and "p" strings -----------------------------------------------------

def _outcome(read, v):
    try:
        return read(v)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


def _frac_reader(v):
    # the reference reader: every string through Fraction's parser
    try:
        return frac(v)
    except ZeroDivisionError:
        raise FormatError(f"value {v!r} has a zero denominator") from None


_digits = st.text(alphabet="0123456789", min_size=1, max_size=80)


@given(_digits, st.one_of(st.none(), _digits))
@example("007", "010")  # leading zeros, unreduced
@example("6", "0")
@example("1" * 4000, "3" * 4000)
@settings(max_examples=300, deadline=None)
def test_value_in_reads_digit_strings_as_fraction_does(num, den):
    s = num if den is None else f"{num}/{den}"
    if den is None or int(den):
        assert jsonio._value_in(s) == Fraction(s)
    assert _outcome(jsonio._value_in, s) == _outcome(_frac_reader, s)


@pytest.mark.parametrize(
    "s",
    [
        "1/0", "0/000", "٣/٤", "١٢", "²", "１/2", " 1/2", "1/2 ", "-1/2",
        "+3", "1_0/3", "1/1_0", "0.5", "1.5/2", "1e3", "1/2/3", "3/", "/3", "", "abc",
        "1" * 5000,
    ],
)
def test_value_in_falls_back_to_fraction_on_other_strings(s):
    assert _outcome(jsonio._value_in, s) == _outcome(_frac_reader, s)


# -- the bang reader against the value-by-value Fraction reader ------------------------

_LONG_DENOMINATOR = "1/" + "7" * 200
# strings read as written, strings that take Fraction's parser, and refusals
_EXACT_VALUES = ["6/4", "007/010", "0/5", "0", "1", 3, 0, _LONG_DENOMINATOR]
_PARSED_VALUES = [" 1/2", "1e-3", "-0/3", "0.5"]
_REFUSED_VALUES = ["3/0", "1/000", "-1/2", -1, "abc", True, None]


def _reading(data):
    """What a reader makes of data: each value with its type, or the refusal."""
    def read(reader):
        try:
            b = reader(data)
        except Exception as exc:  # the type and message must match too
            return type(exc), str(exc)
        return b.alphabet, b.depth, [(type(v), v) for v in b.coeffs]

    return read


@st.composite
def _bang_files(draw):
    """Bang file JSON of 1-3 symbols at depths 0-3: exact, float or mixed
    values on some of the web, and sometimes a refused value, a duplicate
    multiset or one off the web."""
    k = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 3))
    labels = [mu for mu in itertools.product(range(depth + 1), repeat=k) if sum(mu) <= depth]
    exact = st.one_of(
        st.sampled_from(_EXACT_VALUES + _PARSED_VALUES),
        st.integers(0, 10**25),
        st.builds("{}/{}".format, st.integers(0, 10**12), st.integers(1, 10**12)),
    )
    floats = st.floats(min_value=0, max_value=1e6)
    values = {"exact": exact, "float": floats, "mixed": exact | floats}[draw(st.sampled_from(["exact", "float", "mixed"]))]
    chosen = draw(st.lists(st.sampled_from(labels), unique=True))
    coeffs = [{"multiset": list(mu), "value": draw(values)} for mu in chosen]
    fault = draw(st.sampled_from(["none", "none", "value", "duplicate", "off-web"]))
    if fault == "value" and coeffs:
        coeffs[draw(st.integers(0, len(coeffs) - 1))]["value"] = draw(st.sampled_from(_REFUSED_VALUES))
    elif fault == "duplicate" and coeffs:
        coeffs.append({"multiset": coeffs[0]["multiset"], "value": "1/2"})
    elif fault == "off-web":
        coeffs.insert(draw(st.integers(0, len(coeffs))), {"multiset": [depth + 1] + [0] * (k - 1), "value": 1})
    return {"alphabet": {"symbols": list("abc"[:k])}, "depth": depth, "coeffs": coeffs}


@given(_bang_files())
@settings(max_examples=300, deadline=None)
def test_bang_reader_reads_what_the_fraction_reader_reads(data):
    read = _reading(data)
    assert read(jsonio.bang_from_json) == read(bang_from_json_oracle)


@pytest.mark.parametrize("value", _EXACT_VALUES + _PARSED_VALUES + _REFUSED_VALUES + [0.25])
def test_each_bang_value_is_read_as_the_fraction_reader_reads_it(value):
    data = {"alphabet": {"symbols": ["t", "f"]}, "depth": 1, "coeffs": [{"multiset": [1, 0], "value": value}]}
    read = _reading(data)
    assert read(jsonio.bang_from_json) == read(bang_from_json_oracle)


def test_exact_bang_files_are_read_over_one_scale():
    data = {
        "alphabet": {"symbols": ["t", "f"]},
        "depth": 1,
        "coeffs": [{"multiset": [0, 0], "value": "6/4"}, {"multiset": [0, 1], "value": _LONG_DENOMINATOR}],
    }
    b = jsonio.bang_from_json(data)
    assert b.scale == 2 * int("7" * 200) and b.table == (3 * int("7" * 200), 0, 2)
    assert b.coeffs == (F(3, 2), F(0), F(1, int("7" * 200)))

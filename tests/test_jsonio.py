import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnchains import jsonio
from urnchains._linalg import frac
from urnchains.jsonio import FormatError
from urnchains.multiset import BOOL
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


def test_bang_round_trip_drops_zeros():
    b = BangElement.from_table(
        BOOL, 2, {(0, 0): 1, (1, 0): F(1, 2), (2, 0): F(1, 8)}
    )
    data = jsonio.bang_to_json(b)
    assert len(data["coeffs"]) == 3  # zero entries are omitted
    back = jsonio.bang_from_json(data)
    assert back.coeffs == b.coeffs


def test_bang_float_mode_values():
    b = BangElement.from_table(BOOL, 1, {(0, 0): 1, (1, 0): F(1, 2)})
    data = jsonio.bang_to_json(b, mode="float")
    values = {tuple(e["multiset"]): e["value"] for e in data["coeffs"]}
    assert values == {(0, 0): 1.0, (1, 0): 0.5}


def test_bang_float_values_stay_floats():
    # a float table read back is a float table, judged at the float tolerance
    b = BangElement.from_table(BOOL, 1, {(0, 0): 1, (1, 0): F(1, 3), (0, 1): F(2, 3)})
    back = jsonio.bang_from_json(jsonio.bang_to_json(b, mode="float"))
    assert back.coeffs == (1.0, 1 / 3, 2 / 3)
    assert all(type(v) is float for v in back.coeffs)
    exact = jsonio.bang_from_json(jsonio.bang_to_json(b))
    assert exact.coeffs == b.coeffs


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

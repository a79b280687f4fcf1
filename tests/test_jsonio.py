from fractions import Fraction

import pytest

from urnchains import jsonio
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

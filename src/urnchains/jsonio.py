"""JSON and CSV formats for alphabets, measures and bang elements.

Rational values travel as "p/q" strings (or plain integers).  Floats in
measures are parsed through their decimal representation, so a file
containing 0.1 means exactly 1/10; a bang element's float coefficients stay
floats, so that its table is judged at the float tolerance.  JSON booleans
are refused as values, and multiset counts must be JSON integers.

Every JSON file and stdout payload is 2-space indented, key-sorted JSON and a
newline, byte-identical to `json.dump(data, fh, indent=2, sort_keys=True)`
followed by "\n"; `dump_json` renders the whole text first and writes it once.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from ._linalg import ZERO, frac
from .multiset import Alphabet
from .pcoh import BangElement
from .spaces import bounded_multiset_space
from .stoch import AtomicMeasure, EmpiricalLaw, ProbVector


class FormatError(Exception):
    pass


def _value_out(v, mode: str = "exact"):
    if mode == "float":
        return float(v)
    f = frac(v)
    return f.numerator if f.denominator == 1 else str(f)


def _value_in(v):
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise FormatError(f"cannot parse value {v!r}")
    try:
        if type(v) is str:
            # "p/q" and "p" in ASCII digits go straight to int; signs, spaces,
            # decimals and the rest take Fraction's parser
            num, slash, den = v.partition("/")
            if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
                return Fraction(int(num), int(den) if slash else 1)
        return frac(v)
    except ZeroDivisionError:
        raise FormatError(f"value {v!r} has a zero denominator") from None


# -- alphabets ---------------------------------------------------------------

def alphabet_to_json(alphabet: Alphabet) -> dict:
    return {"symbols": list(alphabet.symbols)}


def alphabet_from_json(data) -> Alphabet:
    try:
        symbols = data["symbols"]
        if not isinstance(symbols, list):
            raise FormatError(f"bad alphabet: symbols must be a JSON list, not {symbols!r}")
        for symbol in symbols:
            if not isinstance(symbol, str):
                raise FormatError(f"bad alphabet: symbol {symbol!r} is not a string")
        return Alphabet(tuple(symbols))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad alphabet: {exc}") from exc


# -- measures --------------------------------------------------------------------

def measure_to_json(measure: AtomicMeasure, mode: str = "exact", extra: dict | None = None) -> dict:
    data = {
        "alphabet": alphabet_to_json(measure.alphabet) if measure.atoms else None,
        "atoms": [
            {
                "point": [_value_out(w, mode) for w in point.weights],
                "weight": _value_out(w, mode),
            }
            for point, w in measure.atoms
        ],
    }
    if extra:
        data.update(extra)
    return data


def measure_from_json(data) -> AtomicMeasure:
    try:
        alphabet = alphabet_from_json(data["alphabet"])
        atoms = []
        for atom in data["atoms"]:
            if not isinstance(atom["point"], list):
                raise FormatError(f"bad measure: point must be a JSON list, not {atom['point']!r}")
            point = ProbVector(alphabet, tuple(_value_in(v) for v in atom["point"]))
            atoms.append((point, _value_in(atom["weight"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad measure: {exc}") from exc
    return AtomicMeasure(tuple(atoms))


# -- bang elements -----------------------------------------------------------------

def bang_to_json(b: BangElement, mode: str = "exact") -> dict:
    return {
        "alphabet": alphabet_to_json(b.alphabet),
        "depth": b.depth,
        "coeffs": [
            {"multiset": list(counts), "value": _value_out(v, mode)}
            for counts, v in zip(b.web.labels, b.coeffs)
            if v
        ],
    }


def bang_from_json(data) -> BangElement:
    """Read a bang element; every listed multiset must be on its web, once."""
    try:
        alphabet = alphabet_from_json(data["alphabet"])
        depth = data["depth"]
        if type(depth) is not int or depth < 0:
            raise FormatError(f"bad bang element: depth {depth!r} is not a nonnegative integer")
        table = {}
        for entry in data["coeffs"]:
            counts = tuple(entry["multiset"])
            for c in counts:
                if type(c) is not int:
                    raise FormatError(f"multiset {list(counts)} has a count {c!r} that is not an integer")
            if counts in table:
                raise FormatError(f"multiset {list(counts)} is listed twice")
            value = entry["value"]
            # a finite float stays a float; NaN and infinities are refused below
            table[counts] = value if type(value) is float and math.isfinite(value) else _value_in(value)
        web = bounded_multiset_space(alphabet, depth)
        coeffs = tuple(table.pop(counts, ZERO) for counts in web.labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad bang element: {exc}") from exc
    if table:
        raise FormatError(
            f"multiset {list(next(iter(table)))} is not a multiset of size <= {depth}"
            f" over {','.join(alphabet.symbols)}"
        )
    return BangElement.on_web(web, alphabet, depth, coeffs)


# -- files and CSV -------------------------------------------------------------------

def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(data, path: str | None) -> None:
    """Indented, key-sorted JSON and a newline, to path or, without one, to
    stdout, in one write; the bytes json.dump(indent=2, sort_keys=True) gives."""
    text = _render(data, "\n") + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _render(o, newline: str) -> str:
    """o as json's indented, key-sorted text; `newline` is a newline and the
    indent of o's own line.  The type tests follow json.encoder's order."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _FLOAT_SPECIALS.get(text, text)
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        # ints (multiset counts) skip the call, as str values do below
        items = [int.__repr__(v) if type(v) is int else _render(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = []
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            text = encode_basestring_ascii(value) if type(value) is str else _render(value, inner)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def histogram_csv(law: EmpiricalLaw) -> str:
    header = ",".join(f"freq_{s}" for s in law.alphabet.symbols)
    n = law.prefix_length
    lines = [f"{header},count"]
    for counts, count in sorted(law.histogram.items(), reverse=True):
        freqs = ",".join([repr(c / n) for c in counts])
        lines.append(f"{freqs},{count}")
    return "\n".join(lines) + "\n"


def moment_comparison_csv(rows) -> str:
    lines = ["symbol,order,mixing_moment,empirical_moment,abs_error"]
    for symbol, order, exact, emp, err in rows:
        lines.append(f"{symbol},{order},{repr(float(exact))},{repr(emp)},{repr(err)}")
    return "\n".join(lines) + "\n"

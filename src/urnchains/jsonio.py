"""JSON and CSV formats for alphabets, measures and bang elements.

Rational values travel as "p/q" strings (or plain integers).  Floats in
measures are parsed through their decimal representation, so a file
containing 0.1 means exactly 1/10; a bang file holding a float is read as a
float table, its floats kept and its other values as Fractions, so that it
is judged at the float tolerance.  JSON booleans are refused as values, and
multiset counts must be JSON integers.  A list or object of the wrong shape
is refused by name.  An exact bang table is read and written as ints over
one scale, the one form of an exact `pcoh.BangElement`, with no Fraction per
coefficient.

Every JSON file and stdout payload is `json.dumps(data, indent=2,
sort_keys=True)` and a newline, which `dump_json` writes at once.  A bang
element goes to `dump_json` as it is: its coefficient list is formatted
straight from its labels and values, one entry template per multiset width,
with no dict per coefficient, and its alphabet through `json.dumps`; the
bytes are those of its file's dict.  Other payloads are dicts.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import reprlib
import sys
from fractions import Fraction
from itertools import compress, repeat

import numpy as np

from ._linalg import frac
from .multiset import Alphabet
from .pcoh import BangElement, refuse_oversized_bang
from .spaces import bounded_multiset_space
from .stoch import AtomicMeasure, EmpiricalLaw, ProbVector


class FormatError(Exception):
    pass


def _value_out(v, mode: str = "exact"):
    if mode == "float":
        return float(v)
    f = frac(v)
    return f.numerator if f.denominator == 1 else str(f)


def _value_in(v) -> Fraction:
    return Fraction(*_ratio_in(v))


def _ratio_in(v) -> tuple[int, int]:
    """(p, q) with v = p/q: "p/q" and "p" strings of ASCII digits and JSON
    ints unreduced; other values, a zero q too, through Fraction's parser."""
    if type(v) is str:
        num, slash, den = v.partition("/")
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            q = int(den) if slash else 1
            if q:
                return int(num), q
    elif type(v) is int:
        return v, 1
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise FormatError(f"cannot parse value {v!r}")
    try:
        f = frac(v)
    except ZeroDivisionError:
        raise FormatError(f"value {v!r} has a zero denominator") from None
    return f.numerator, f.denominator


def _require(value, kind: type, what: str):
    """value, refused by name unless it is a JSON list or object (`kind`)."""
    if not isinstance(value, kind):
        raise FormatError(f"{what} must be a JSON {'list' if kind is list else 'object'}, not {reprlib.repr(value)}")
    return value


# -- alphabets ---------------------------------------------------------------

def alphabet_to_json(alphabet: Alphabet) -> dict:
    return {"symbols": list(alphabet.symbols)}


def alphabet_from_json(data) -> Alphabet:
    _require(data, dict, "bad alphabet: the alphabet")
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
    _require(data, dict, "bad measure: the top-level value")
    try:
        alphabet = alphabet_from_json(data["alphabet"])
        atoms = []
        for atom in _require(data["atoms"], list, "bad measure: atoms"):
            _require(atom, dict, "bad measure: an atom")
            point = _require(atom["point"], list, "bad measure: point")
            atoms.append((ProbVector(alphabet, tuple(map(_value_in, point))), _value_in(atom["weight"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad measure: {exc}") from exc
    return AtomicMeasure(tuple(atoms))


# -- bang elements -----------------------------------------------------------------

def bang_from_json(data) -> BangElement:
    """Read a bang element; every listed multiset must be on its web, once.
    Values are read as (p, q) int pairs (see `_ratio_in`), and scaled to the
    lcm of the q when none is a float; else the other values are Fractions."""
    _require(data, dict, "bad bang element: the top-level value")
    try:
        alphabet = alphabet_from_json(data["alphabet"])
        depth = data["depth"]
        if type(depth) is not int or depth < 0:
            raise FormatError(f"bad bang element: depth {depth!r} is not a nonnegative integer")
        lower = "rebuild the element with a lower bang iota --depth"
        refuse_oversized_bang(len(alphabet), depth, lower)
        table, floats = {}, False
        for entry in _require(data["coeffs"], list, "bad bang element: coeffs"):
            _require(entry, dict, "bad bang element: a coeffs entry")
            counts = tuple(_require(entry["multiset"], list, "bad bang element: multiset"))
            for c in counts:
                if type(c) is not int:
                    raise FormatError(f"multiset {list(counts)} has a count {c!r} that is not an integer")
            if counts in table:
                raise FormatError(f"multiset {list(counts)} is listed twice")
            value = entry["value"]
            # a finite float stays a float; NaN and infinities are refused below
            floats = floats or type(value) is float
            table[counts] = value if type(value) is float and math.isfinite(value) else _ratio_in(value)
        web = bounded_multiset_space(alphabet, depth)
        values = [table.pop(counts, (0, 1)) for counts in web.labels]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad bang element: {exc}") from exc
    if table:
        raise FormatError(
            f"multiset {list(next(iter(table)))} is not a multiset of size <= {depth}"
            f" over {','.join(alphabet.symbols)}"
        )
    if floats:
        return BangElement(alphabet, depth, tuple(v if type(v) is float else Fraction(*v) for v in values))
    scale = math.lcm(*[q for _, q in values])
    return BangElement.from_ints(alphabet, depth, [p * (scale // q) for p, q in values], scale)


# -- files and CSV -------------------------------------------------------------------

def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(data, path: str | None, mode: str = "exact") -> None:
    """json.dumps(data, indent=2, sort_keys=True) and a newline, to path or,
    without one, to stdout, in one write.  A BangElement is written as its
    bang file (see `_bang_text`), the bytes json.dumps gives for the file's
    dict, its values exact or, in mode "float", floats."""
    bang = isinstance(data, BangElement)
    write_text(_bang_text(data, mode) if bang else json.dumps(data, indent=2, sort_keys=True) + "\n", path)


def write_text(text: str, path: str | None) -> None:
    """text to path or, without one, to stdout, in one write; a path that
    cannot be written is a FormatError naming it."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def write_texts(outputs) -> None:
    """Each (text, path) of `outputs` as `write_text` writes it, all or
    none.  A text whose path leads to a regular file, or to none yet, goes
    first to a temporary file beside that file; only once every one is
    written are they moved onto their files by os.replace, and then the
    other texts (to stdout, or to a device such as /dev/null) are written.
    A path that cannot be written is a FormatError naming it, and the
    temporaries are removed on any error: a text that cannot be written to
    its temporary leaves every file as it was."""
    staged, in_place = [], []
    try:
        for text, path in outputs:
            target = os.path.realpath(path) if path else None
            if not target or os.path.exists(target) and not (os.path.isfile(target) or os.path.isdir(target)):
                in_place.append((text, path))
                continue
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temporary = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
            with open(temporary, "x", encoding="utf-8") as fh:
                staged.append((temporary, target, path))
                fh.write(text)
        for temporary, target, path in staged:
            os.replace(temporary, target)
    except OSError as exc:
        # `path` is the one being written, in either loop
        raise FormatError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        for temporary, _, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)
    for text, path in in_place:
        write_text(text, path)


# a bang file entry {"multiset": counts, "value": value}, formatted with the
# %d count slots of one multiset width and the value's JSON text
_BANG_ENTRY = '    {{\n      "multiset": [\n        {}\n      ],\n      "value": %s\n    }}'


def _bang_text(b: BangElement, mode: str) -> str:
    """The bang file of b: the text of {"alphabet": ..., "coeffs": [...],
    "depth": ...} with one coeffs entry {"multiset": counts, "value": value}
    per nonzero coefficient, in web order; exact values as ints and "p/q"
    strings, float ones as floats; v/scale of a scaled table rounds as
    float(Fraction) does.  Every entry is formatted from one template for
    the alphabet's width."""
    labels = list(compress(b.web.labels, b.table))
    values = list(compress(b.table, b.table))
    scale = b.scale
    if mode == "float":
        floats = map(float, values) if scale is None else [v / scale for v in values]
        texts = list(map(repr, floats))
    else:
        if scale is None:
            pairs = [(f.numerator, f.denominator) for f in map(frac, values)]
        else:
            pairs = [(v // g, scale // g) for v, g in zip(values, map(math.gcd, values, repeat(scale)))]
        texts = [str(p) if q == 1 else '"%d/%d"' % (p, q) for p, q in pairs]
    entry = _BANG_ENTRY.format(",\n        ".join(["%d"] * len(b.alphabet)))
    entries = ",\n".join([entry % (*counts, text) for counts, text in zip(labels, texts)])
    coeffs = "[\n" + entries + "\n  ]" if entries else "[]"
    # the alphabet object, indented one level: its strings hold no raw newline
    alphabet = json.dumps(alphabet_to_json(b.alphabet), indent=2).replace("\n", "\n  ")
    return f'{{\n  "alphabet": {alphabet},\n  "coeffs": {coeffs},\n  "depth": {b.depth}\n}}\n'


def histogram_csv(law: EmpiricalLaw) -> str:
    """The law as CSV: a header, then one line per distinct count vector in
    descending order, its frequencies repr(count / n) and its tally.  The
    order is the law's sort read backwards; each column is written from one
    repr per distinct count of its symbol (`EmpiricalLaw.columns`), and the
    lines are joined with no tuple kept per row."""
    header = ",".join(f"freq_{s}" for s in law.alphabet.symbols)
    n, descending = law.prefix_length, law.ascending[::-1]
    columns = [
        np.array([repr(c / n) for c in distinct], dtype=object)[where[descending]].tolist()
        for distinct, where in law.columns
    ]
    lines = map(",".join, zip(*columns, map(str, law.tallies[descending].tolist())))
    return f"{header},count\n" + "\n".join(lines) + "\n"


def moment_comparison_csv(rows) -> str:
    lines = ["symbol,order,mixing_moment,empirical_moment,abs_error"]
    for symbol, order, exact, emp, err in rows:
        lines.append(f"{symbol},{order},{repr(float(exact))},{repr(emp)},{repr(err)}")
    return "\n".join(lines) + "\n"

"""JSON and CSV formats for alphabets, kernels, measures and bang elements.

Rational values travel as "p/q" strings (or plain integers); floats are
accepted on input and parsed through their decimal representation, so a file
containing 0.1 means exactly 1/10.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._linalg import frac
from .multiset import Alphabet
from .pcoh import BangElement
from .spaces import (
    IndexSet,
    bounded_multiset_space,
    multiset_space,
    symbol_space,
    tuple_space,
    unit_space,
)
from .stoch import AtomicMeasure, EmpiricalLaw, FinKernel, ProbVector


class FormatError(Exception):
    pass


def _value_out(v, mode: str = "exact"):
    if mode == "float":
        return float(v)
    f = frac(v)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _value_in(v):
    if isinstance(v, (int, float, str)):
        return frac(v)
    raise FormatError(f"cannot parse value {v!r}")


# -- alphabets ---------------------------------------------------------------

def alphabet_to_json(alphabet: Alphabet) -> dict:
    return {"symbols": list(alphabet.symbols)}


def alphabet_from_json(data) -> Alphabet:
    try:
        return Alphabet(tuple(data["symbols"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad alphabet: {exc}") from exc


# -- index-set descriptors -----------------------------------------------------

def space_from_json(data) -> IndexSet:
    kind = data.get("kind")
    if kind == "unit":
        return unit_space()
    if kind == "symbols":
        return symbol_space(Alphabet(tuple(data["alphabet"])))
    if kind == "tuples":
        return tuple_space(Alphabet(tuple(data["alphabet"])), int(data["n"]))
    if kind == "multisets":
        return multiset_space(Alphabet(tuple(data["alphabet"])), int(data["n"]))
    if kind == "bounded-multisets":
        return bounded_multiset_space(Alphabet(tuple(data["alphabet"])), int(data["n"]))
    if kind == "labels":
        return IndexSet(data.get("name", "labels"), tuple(_relabel(l) for l in data["labels"]))
    raise FormatError(f"unknown index-set kind {kind!r}")


def _relabel(label):
    return tuple(label) if isinstance(label, list) else label


# -- kernels -------------------------------------------------------------------

def kernel_to_json(kernel: FinKernel) -> dict:
    return {
        "source": space_to_json(kernel.source),
        "target": space_to_json(kernel.target),
        "rows": [
            [[v.numerator, v.denominator] for v in row] for row in kernel.rows
        ],
    }


def space_to_json(space: IndexSet) -> dict:
    data = _space_descriptor_by_name(space)
    if data is not None:
        # only trust the name-derived descriptor if it round-trips the labels
        # (symbols containing "," or ")" would corrupt it)
        try:
            if space_from_json(data).labels == space.labels:
                return data
        except (FormatError, ValueError):
            pass
    return {
        "kind": "labels",
        "name": space.name,
        "labels": [list(l) if isinstance(l, tuple) else l for l in space.labels],
    }


def _space_descriptor_by_name(space: IndexSet) -> dict | None:
    name = space.name
    if name == "1":
        return {"kind": "unit"}
    if name.startswith("X(") and "^" in name:
        alpha, _, n = name.partition("^")
        return {"kind": "tuples", "alphabet": alpha[2:-1].split(","), "n": int(n)}
    if name.startswith("X("):
        return {"kind": "symbols", "alphabet": list(space.labels)}
    if name.startswith("M<="):
        head, _, rest = name.partition("(")
        return {
            "kind": "bounded-multisets",
            "alphabet": rest[:-1].split(","),
            "n": int(head[3:]),
        }
    if name.startswith("M"):
        head, _, rest = name.partition("(")
        return {
            "kind": "multisets",
            "alphabet": rest[:-1].split(","),
            "n": int(head[1:]),
        }
    return None


def kernel_from_json(data) -> FinKernel:
    try:
        source = space_from_json(data["source"])
        target = space_from_json(data["target"])
        rows = tuple(
            tuple(Fraction(int(num), int(den)) for num, den in row)
            for row in data["rows"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad kernel: {exc}") from exc
    return FinKernel(source, target, rows)


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
    try:
        alphabet = alphabet_from_json(data["alphabet"])
        depth = int(data["depth"])
        table = {
            tuple(int(c) for c in entry["multiset"]): _value_in(entry["value"])
            for entry in data["coeffs"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad bang element: {exc}") from exc
    return BangElement.from_table(alphabet, depth, table)


# -- files and CSV -------------------------------------------------------------------

def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(data, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


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

"""Finite index sets shared by kernels, webs and chains.

An IndexSet is an ordered list of hashable labels with a name; matrices in
`stoch` and `pcoh` are indexed (source label, target label).  Tuple labels
are tuples of alphabet positions; multiset labels are the count tuples of
`multiset.enumerate_multisets`, used as they are.  Constructors here are
deterministic, so two calls with the same arguments produce equal index sets
and matrices built against them compose without surprises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .multiset import Alphabet, enumerate_multisets


@dataclass(frozen=True)
class IndexSet:
    name: str
    labels: tuple

    @cached_property
    def _positions(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in index set {self.name}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._positions


def unit_space() -> IndexSet:
    """The one-point index set (monoidal unit / terminal object carrier)."""
    return IndexSet("1", ("*",))


def symbol_space(alphabet: Alphabet) -> IndexSet:
    return IndexSet(f"X({','.join(alphabet.symbols)})", alphabet.symbols)


def tuple_space(alphabet: Alphabet, n: int) -> IndexSet:
    """Length-n tuples of alphabet positions, in row-major product order."""
    labels = tuple(itertools.product(range(len(alphabet)), repeat=n))
    return IndexSet(f"X({','.join(alphabet.symbols)})^{n}", labels)


def multiset_space(alphabet: Alphabet, n: int) -> IndexSet:
    """Size-n multisets (count-vector labels) in canonical descending order."""
    labels = tuple(enumerate_multisets(alphabet, n))
    return IndexSet(f"M{n}({','.join(alphabet.symbols)})", labels)


def bounded_multiset_space(alphabet: Alphabet, n: int) -> IndexSet:
    """Multisets of size <= n; sizes 0..n concatenated, each in canonical order."""
    labels = tuple(counts for m in range(n + 1) for counts in enumerate_multisets(alphabet, m))
    return IndexSet(f"M<={n}({','.join(alphabet.symbols)})", labels)

"""Finite index sets shared by kernels, webs and chains.

An IndexSet is an ordered list of hashable labels with a name; matrices in
`stoch` and `pcoh` are indexed (source label, target label).  Tuple labels
are tuples of alphabet positions; multiset labels are the count tuples of
`multiset.enumerate_multisets`, used as they are.  Each constructor builds
the one index set of its (constructor, alphabet, n) on its first call in a
command and returns that same object on every later call (see `BUILT`).
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


BUILT: dict = {}  # (constructor, alphabet, n) -> its IndexSet; `cli.main` empties it per command


def _once(kind: str, alphabet: Alphabet, n: int, name: str, labels) -> IndexSet:
    """The index set of (kind, alphabet, n), built on the first call.  The key
    holds the alphabet, not its name: ("a,b", "c") and ("a", "b,c") are both X(a,b,c)."""
    key = (kind, alphabet, n)
    if key not in BUILT:
        BUILT[key] = IndexSet(name.format(",".join(alphabet.symbols)), tuple(labels()))
    return BUILT[key]


def symbol_space(alphabet: Alphabet) -> IndexSet:
    return _once("X", alphabet, 1, "X({})", lambda: alphabet.symbols)


def tuple_space(alphabet: Alphabet, n: int) -> IndexSet:
    """Length-n tuples of alphabet positions, in row-major product order."""
    return _once("X^n", alphabet, n, f"X({{}})^{n}", lambda: itertools.product(range(len(alphabet)), repeat=n))


def multiset_space(alphabet: Alphabet, n: int) -> IndexSet:
    """Size-n multisets (count-vector labels) in canonical descending order."""
    return _once("M", alphabet, n, f"M{n}({{}})", lambda: enumerate_multisets(alphabet, n))


def bounded_multiset_space(alphabet: Alphabet, n: int) -> IndexSet:
    """Multisets of size <= n; sizes 0..n concatenated, each in canonical order.

    The size blocks nest: for each of the k symbols x, the labels of size
    s+1 with a count of x of at least one are, in order, the labels of size
    s plus one x, since adding one x is a bijection between the two that
    keeps the descending lexicographic order.  Hence the labels of size s+1
    whose first nonzero count is at x are, in order, the last
    multiset_count(k - x, s) labels of size s (those with no count before
    x) plus one x, and block s+1 is these runs for x = 0..k-1.
    """
    labels = lambda: (counts for m in range(n + 1) for counts in enumerate_multisets(alphabet, m))
    return _once("M<=", alphabet, n, f"M<={n}({{}})", labels)

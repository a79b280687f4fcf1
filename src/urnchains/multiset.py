"""Exact multiset combinatorics over finite ordered alphabets.

A multiset is a count vector, a tuple of ints aligned with a fixed symbol
order, so it doubles as a canonical matrix index everywhere else in the
package: the functions here take and return count tuples, and the labels of
every multiset index set are those tuples.  All counts and multinomial
coefficients are arbitrary-precision integers; the chain and square checks
built on top require exact arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered alphabet; the order is total and fixed at construction."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"alphabet symbols must be distinct: {self.symbols}")

    @classmethod
    def of(cls, *symbols: str) -> "Alphabet":
        return cls(tuple(symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def pad(self) -> "Alphabet":
        """Alphabet extended with a fresh padding symbol, appended last: the
        shortest run of "*" that is not already a symbol."""
        pad = "*"
        while pad in self.symbols:
            pad += "*"
        return Alphabet(self.symbols + (pad,))


BOOL = Alphabet.of("t", "f")


@dataclass(frozen=True)
class Multiset:
    """A validated count vector over an alphabet: the argument of
    `enumerations` only.  Every other function here takes and returns bare
    count tuples; this wrapper stays because the benchmark tracer in
    perfbench/spans.py reads `.counts` off the argument of `enumerations`."""

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(self.alphabet.symbols):
            raise ValueError("count vector length must match alphabet size")
        for c in self.counts:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be nonnegative integers: {self.counts}")


def enumerate_multisets(alphabet: Alphabet, n: int) -> list[tuple[int, ...]]:
    """The count vectors of all multisets of size exactly n, in descending
    lexicographic order.

    The list has length C(n+k-1, k-1); its order is the canonical matrix
    index order used by every kernel and web in the package.  Stars and bars:
    k-1 bars among n+k-1 slots cut the other n slots into k runs.  The bar
    positions come from itertools.combinations in lexicographic order, which
    is the ascending order of their count vectors, so the list is reversed.

    >>> enumerate_multisets(BOOL, 2)  # [t,t], [t,f], [f,f]
    [(2, 0), (1, 1), (0, 2)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = len(alphabet)
    slots = n + k - 1
    out = []
    for bars in itertools.combinations(range(slots), k - 1):
        parts = []
        prev = -1
        for bar in bars:
            parts.append(bar - prev - 1)
            prev = bar
        parts.append(slots - prev - 1)
        out.append(tuple(parts))
    out.reverse()
    return out


def multinomial(counts: tuple[int, ...]) -> int:
    """Number of distinct tuples enumerating a multiset: size! / prod(counts!).

    Exact integer arithmetic; Python integers are unbounded so the value can
    never overflow or silently degrade.

    >>> multinomial((1, 1))
    2
    """
    num = factorial(sum(counts))
    for c in counts:
        num //= factorial(c)
    return num


def multiset_of(alphabet: Alphabet, entries: tuple[int, ...]) -> tuple[int, ...]:
    """Tally a tuple of alphabet positions into a count vector."""
    counts = [0] * len(alphabet)
    for e in entries:
        if not 0 <= e < len(alphabet):
            raise IndexError(f"tuple entry {e} out of range for alphabet of size {len(alphabet)}")
        counts[e] += 1
    return tuple(counts)


def difference(mu: tuple[int, ...], nu: tuple[int, ...]) -> tuple[int, ...] | None:
    """Componentwise mu - nu when nu is included in mu, else None."""
    diff = tuple(a - b for a, b in zip(mu, nu))
    return None if min(diff, default=0) < 0 else diff


def enumerations(mu: Multiset) -> list[tuple[int, ...]]:
    """All distinct position tuples whose tally is mu, in increasing order.

    There are exactly multinomial(mu.counts) of them.  They are generated by
    stepping to the next lexicographic permutation from the nondecreasing
    enumeration (Knuth, TAOCP 7.2.1.2, Algorithm L), so the cost follows the
    output, not the |mu|! orderings of the positions.

    >>> enumerations(Multiset(BOOL, (2, 1)))
    [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    """
    a = list(canonical_enumeration(mu.counts))
    out = [tuple(a)]
    while True:
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return out
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = reversed(a[j + 1 :])
        out.append(tuple(a))


def canonical_enumeration(counts: tuple[int, ...]) -> tuple[int, ...]:
    """The nondecreasing enumeration of a multiset (the fixed section of the tally map)."""
    return tuple(
        itertools.chain.from_iterable([i] * c for i, c in enumerate(counts))
    )


def multiset_count(k: int, n: int) -> int:
    """Number of size-n multisets over k symbols (stars and bars)."""
    return comb(n + k - 1, k - 1)

"""Exact multiset combinatorics over finite ordered alphabets.

Multisets are stored as count vectors aligned with a fixed symbol order, so
they double as canonical matrix indices everywhere else in the package.  All
counts and multinomial coefficients are arbitrary-precision integers; the
chain and square checks built on top require exact arithmetic.
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
    """A multiset over an alphabet, as a count vector in alphabet order."""

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(self.alphabet.symbols):
            raise ValueError("count vector length must match alphabet size")
        for c in self.counts:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be nonnegative integers: {self.counts}")

    @property
    def size(self) -> int:
        return sum(self.counts)

    def contains(self, other: "Multiset") -> bool:
        """Componentwise inclusion other <= self."""
        return all(a <= b for a, b in zip(other.counts, self.counts))

    def __str__(self) -> str:
        inner = ",".join(
            itertools.chain.from_iterable(
                [s] * c for s, c in zip(self.alphabet.symbols, self.counts)
            )
        )
        return f"[{inner}]"


def _compositions_desc(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-part compositions of n, in descending lexicographic order.

    Stars and bars: k-1 bars among n+k-1 slots cut the other n slots into k
    runs.  The bar positions come from itertools.combinations in
    lexicographic order, which is the ascending order of their compositions,
    so the list is reversed.
    """
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


def enumerate_multisets(alphabet: Alphabet, n: int) -> list[Multiset]:
    """All multisets of size exactly n, in descending lexicographic count order.

    The list has length C(n+k-1, k-1); its order is the canonical matrix
    index order used by every kernel and web in the package.

    >>> [str(m) for m in enumerate_multisets(BOOL, 2)]
    ['[t,t]', '[t,f]', '[f,f]']
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Multiset(alphabet, c) for c in _compositions_desc(n, len(alphabet))]


def enumerate_bounded_multisets(alphabet: Alphabet, n: int) -> list[Multiset]:
    """All multisets of size <= n: sizes 0..n concatenated, canonical order within each size."""
    out: list[Multiset] = []
    for m in range(n + 1):
        out.extend(enumerate_multisets(alphabet, m))
    return out


def multinomial(mu: Multiset) -> int:
    """Number of distinct tuples enumerating mu: size! / prod(counts!).

    Exact integer arithmetic; Python integers are unbounded so the value can
    never overflow or silently degrade.

    >>> multinomial(Multiset(BOOL, (1, 1)))
    2
    """
    num = factorial(mu.size)
    for c in mu.counts:
        num //= factorial(c)
    return num


def multiset_of(alphabet: Alphabet, entries: tuple[int, ...]) -> Multiset:
    """Tally a tuple of alphabet positions into a multiset."""
    counts = [0] * len(alphabet)
    for e in entries:
        if not 0 <= e < len(alphabet):
            raise IndexError(f"tuple entry {e} out of range for alphabet of size {len(alphabet)}")
        counts[e] += 1
    return Multiset(alphabet, tuple(counts))


def difference(mu: Multiset, nu: Multiset) -> Multiset | None:
    """Componentwise mu - nu when nu is included in mu, else None."""
    if not mu.contains(nu):
        return None
    return Multiset(mu.alphabet, tuple(a - b for a, b in zip(mu.counts, nu.counts)))


def enumerations(mu: Multiset) -> list[tuple[int, ...]]:
    """All distinct position tuples whose tally is mu, in increasing order.

    There are exactly multinomial(mu) of them.  They are generated by stepping
    to the next lexicographic permutation from the nondecreasing enumeration
    (Knuth, TAOCP 7.2.1.2, Algorithm L), so the cost follows the output, not
    the |mu|! orderings of the positions.

    >>> enumerations(Multiset(BOOL, (2, 1)))
    [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    """
    a = list(canonical_enumeration(mu))
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


def canonical_enumeration(mu: Multiset) -> tuple[int, ...]:
    """The nondecreasing enumeration of mu (the fixed section of the tally map)."""
    return tuple(
        itertools.chain.from_iterable([i] * c for i, c in enumerate(mu.counts))
    )


def multiset_count(k: int, n: int) -> int:
    """Number of size-n multisets over k symbols (stars and bars)."""
    return comb(n + k - 1, k - 1)

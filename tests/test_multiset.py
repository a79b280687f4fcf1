import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnchains.multiset import (
    BOOL,
    Alphabet,
    Multiset,
    canonical_enumeration,
    difference,
    enumerate_multisets,
    enumerations,
    multinomial,
    multiset_count,
    multiset_of,
)
from urnchains.spaces import bounded_multiset_space

ABC = Alphabet.of("a", "b", "c")


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet.of("a", "a")
    with pytest.raises(ValueError):
        Alphabet(())


def test_pad_appends_the_shortest_fresh_run_of_stars():
    assert Alphabet.of("t", "f").pad().symbols == ("t", "f", "*")
    assert Alphabet.of("*", "a").pad().symbols == ("*", "a", "**")
    assert Alphabet.of("**", "*", "a").pad().symbols == ("**", "*", "a", "***")
    assert Alphabet.of("**", "a").pad().symbols == ("**", "a", "*")


def test_enumerate_bool_size_two():
    out = enumerate_multisets(BOOL, 2)
    assert out == [(2, 0), (1, 1), (0, 2)]  # [t,t], [t,f], [f,f]


def test_enumerate_size_zero_is_single_empty():
    out = enumerate_multisets(ABC, 0)
    assert out == [(0, 0, 0)]


def test_enumerate_three_symbols_matches_brute_force():
    # oracle: sorted pairs over {a,b,c}
    pairs = sorted(set(tuple(sorted(p)) for p in itertools.product("abc", repeat=2)))
    out = enumerate_multisets(ABC, 2)
    assert len(out) == len(pairs) == 6
    assert sorted(out) == sorted(tuple(p.count(s) for s in "abc") for p in pairs)
    assert multiset_count(3, 2) == 6


def test_multinomial_values():
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((2, 1, 0)) == 3
    # cross-check by enumerating the two orderings of [t,f]
    tf = Multiset(BOOL, (1, 1))
    assert multinomial(tf.counts) == len(enumerations(tf)) == 2
    assert set(enumerations(tf)) == {(0, 1), (1, 0)}


def test_multiset_of_examples():
    assert multiset_of(BOOL, (0, 1, 0)) == (2, 1)
    assert multiset_of(BOOL, ()) == (0, 0)
    aaa = multiset_of(ABC, (0, 0, 0))
    assert aaa == (3, 0, 0) and multinomial(aaa) == 1
    with pytest.raises(IndexError):
        multiset_of(BOOL, (0, 2))


def test_difference_examples():
    ttf, t, f = (2, 1), (1, 0), (0, 1)
    assert difference(ttf, t) == (1, 1)
    assert difference(t, f) is None
    assert difference(f, ttf) is None
    assert difference(ttf, ttf) == (0, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6))
def test_partition_identity(k, n):
    alphabet = Alphabet(tuple("abcd"[:k]))
    msets = enumerate_multisets(alphabet, n)
    assert sum(multinomial(m) for m in msets) == k**n
    assert len(msets) == multiset_count(k, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5))
def test_enumeration_descending_and_unique(k, n):
    alphabet = Alphabet(tuple("abcd"[:k]))
    counts = enumerate_multisets(alphabet, n)
    assert counts == sorted(set(counts), reverse=True)


def test_enumeration_is_every_count_vector_in_descending_order():
    # the stars-and-bars enumeration against a filter of all count vectors
    for k in range(1, 6):
        alphabet = Alphabet(tuple("abcde"[:k]))
        for n in range(7):
            every = [c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n]
            assert enumerate_multisets(alphabet, n) == every[::-1]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6))
def test_tally_fibers_have_multinomial_size(k, n):
    if k**n > 5000:
        return
    alphabet = Alphabet(tuple("abcd"[:k]))
    fibers = {}
    for t in itertools.product(range(k), repeat=n):
        fibers.setdefault(multiset_of(alphabet, t), 0)
        fibers[multiset_of(alphabet, t)] += 1
    assert set(fibers) == set(enumerate_multisets(alphabet, n))
    for counts in enumerate_multisets(alphabet, n):
        assert fibers[counts] == multinomial(counts)


def test_enumerations_and_canonical():
    m = Multiset(ABC, (1, 2, 0))
    assert canonical_enumeration(m.counts) == (0, 1, 1)
    assert canonical_enumeration(m.counts) in enumerations(m)
    assert len(enumerations(m)) == multinomial(m.counts) == 3


def test_enumerations_match_distinct_permutations():
    for n in range(8):
        for counts in enumerate_multisets(ABC, n):
            seq = canonical_enumeration(counts)
            assert enumerations(Multiset(ABC, counts)) == sorted(set(itertools.permutations(seq)))


def test_bounded_enumeration_sizes():
    out = bounded_multiset_space(BOOL, 2).labels
    assert out == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert [sum(counts) for counts in out] == [0, 1, 1, 2, 2, 2]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(0, 3),
)
def test_difference_undoes_add(k, picks, extra):
    alphabet = Alphabet(tuple("abcd"[:k]))
    mu = tuple(picks[:k] + [0] * (k - len(picks)))
    x = extra % k
    single = tuple(1 if i == x else 0 for i in range(k))
    bigger = tuple(a + b for a, b in zip(mu, single))
    assert difference(bigger, single) == mu
    assert difference(bigger, mu) == single

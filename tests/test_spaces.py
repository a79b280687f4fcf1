import itertools

import pytest

from urnchains import spaces
from urnchains.multiset import Alphabet, enumerate_multisets, multiset_count
from urnchains.spaces import bounded_multiset_space, multiset_space, symbol_space, tuple_space

ABC = ("a", "b", "c")


def _expected(constructor, symbols, n):
    """(name, labels) of each constructor, built directly from its definition."""
    alphabet = Alphabet(symbols)
    names = ",".join(symbols)
    return {
        tuple_space: (f"X({names})^{n}", tuple(itertools.product(range(len(symbols)), repeat=n))),
        multiset_space: (f"M{n}({names})", tuple(enumerate_multisets(alphabet, n))),
        bounded_multiset_space: (
            f"M<={n}({names})",
            tuple(c for m in range(n + 1) for c in enumerate_multisets(alphabet, m)),
        ),
    }[constructor]


@pytest.mark.parametrize("constructor", [tuple_space, multiset_space, bounded_multiset_space])
@pytest.mark.parametrize("symbols, n", [(("t", "f"), 0), (("t", "f"), 3), (ABC, 2), (ABC, 4)])
def test_constructor_returns_one_index_set_with_todays_labels(monkeypatch, constructor, symbols, n):
    monkeypatch.setattr(spaces, "BUILT", {})
    space = constructor(Alphabet(symbols), n)
    # an equal alphabet built separately gets the very same object
    assert constructor(Alphabet(tuple(symbols)), n) is space
    assert (space.name, space.labels) == _expected(constructor, symbols, n)


def test_symbol_space_is_built_once_per_alphabet(monkeypatch):
    monkeypatch.setattr(spaces, "BUILT", {})
    space = symbol_space(Alphabet.of("t", "f"))
    assert symbol_space(Alphabet.of("t", "f")) is space
    assert (space.name, space.labels) == ("X(t,f)", ("t", "f"))


def test_constructors_at_equal_arguments_do_not_share_across_kinds_or_sizes(monkeypatch):
    monkeypatch.setattr(spaces, "BUILT", {})
    alphabet = Alphabet(ABC)
    built = [tuple_space(alphabet, 1), symbol_space(alphabet), multiset_space(alphabet, 1),
             bounded_multiset_space(alphabet, 1), multiset_space(alphabet, 2)]
    assert len({id(space) for space in built}) == len(built)


def test_alphabets_with_one_name_get_distinct_symbol_spaces(monkeypatch):
    # all three name their symbol space X(a,b,c); a store keyed by the name
    # would hand the second and third the first one's labels
    monkeypatch.setattr(spaces, "BUILT", {})
    alphabets = [("a,b", "c"), ("a", "b,c"), ("a", "b", "c")]
    built = [symbol_space(Alphabet(symbols)) for symbols in alphabets]
    assert {space.name for space in built} == {"X(a,b,c)"}
    assert [space.labels for space in built] == alphabets
    assert [len(tuple_space(Alphabet(symbols), 2)) for symbols in alphabets] == [4, 4, 9]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_size_blocks_nest_in_web_order(monkeypatch, k):
    # the fact the block-wise embedding and totality check rest on: the
    # labels of size s+1 with a count of x are, in order, those of size s
    # plus one x; and those whose first nonzero count is at x are the last
    # multiset_count(k - x, s) labels of size s plus one x
    monkeypatch.setattr(spaces, "BUILT", {})
    labels = bounded_multiset_space(Alphabet(("a", "b", "c", "d")[:k]), 9).labels
    blocks = [[mu for mu in labels if sum(mu) == s] for s in range(10)]
    for s in range(9):
        below, above = blocks[s], blocks[s + 1]
        runs = []
        for x in range(k):
            plus_x = [mu[:x] + (mu[x] + 1,) + mu[x + 1 :] for mu in below]
            assert [nu for nu in above if nu[x] >= 1] == plus_x
            tail = below[len(below) - multiset_count(k - x, s) :]
            assert tail == [mu for mu in below if not any(mu[:x])]
            runs += [mu[:x] + (mu[x] + 1,) + mu[x + 1 :] for mu in tail]
        assert runs == above

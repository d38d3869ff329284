from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from mvparking.perms import (
    bipart,
    check_permutation,
    contains_pattern,
    dec,
    edges_acyclic,
    format_permutation,
    inversion_graph_acyclic,
    inversions,
    left_inversions,
    parse_permutation,
    split_left,
    split_right,
)

perm_words = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))))


def test_inversions_golden():
    assert inversions((4, 2, 3, 1, 5)) == frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)})
    assert inversions((1, 2, 3, 4)) == frozenset()
    assert inversions((3, 2, 1)) == frozenset({(1, 2), (1, 3), (2, 3)})


def test_left_inversions():
    assert left_inversions((4, 2, 3, 1, 5), 4) == frozenset({1, 2, 3})
    assert left_inversions((4, 2, 3, 1, 5), 1) == frozenset()
    assert left_inversions((3, 1, 2), 2) == frozenset({1})
    with pytest.raises(IndexError):
        left_inversions((3, 1, 2), 4)


@given(perm_words)
def test_left_inversions_partition_inversions(word):
    word = tuple(word)
    total = sum(len(left_inversions(word, i)) for i in range(1, len(word) + 1))
    assert total == len(inversions(word))


def test_inversions_match_the_pair_definition():
    """Both read one left-inversion scan, so check each against the pairs themselves."""
    for n in range(1, 7):
        for word in permutations(range(1, n + 1)):
            pairs = {(j, i) for i in range(1, n + 1) for j in range(1, i) if word[j - 1] > word[i - 1]}
            assert inversions(word) == pairs, word
            for i in range(1, n + 1):
                assert left_inversions(word, i) == {j for j, k in pairs if k == i}, (word, i)


def test_contains_pattern():
    host = (5, 6, 1, 2, 4, 3)
    assert contains_pattern(host, (3, 2, 1))
    assert not contains_pattern(host, (4, 3, 2, 1))
    assert contains_pattern(host, (1,))
    assert contains_pattern((1, 2), (1, 2))
    assert not contains_pattern((1, 2), (2, 1))
    with pytest.raises(ValueError, match="longer than host"):
        contains_pattern((2, 1), (1, 2, 3))


def test_acyclic_goldens():
    assert inversion_graph_acyclic((3, 1, 2))
    assert not inversion_graph_acyclic((3, 2, 1))
    assert not inversion_graph_acyclic((3, 4, 1, 2))
    assert inversion_graph_acyclic((1,))


def test_acyclic_agrees_with_union_find_exhaustive():
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            assert inversion_graph_acyclic(word) == edges_acyclic(inversions(word), n)
    assert edges_acyclic([], 0)


def test_constructors_goldens():
    assert dec(4) == (4, 3, 2, 1)
    assert bipart(4, 3) == (4, 5, 6, 7, 1, 2, 3)
    assert bipart(0, 3) == (1, 2, 3)
    assert split_right(2, 1) == (2, 3, 1)
    assert split_left(2, 6) == (8, 7, 6, 5, 4, 3, 1, 2)
    assert split_left(2, 1) == (3, 1, 2)


def test_constructor_size_errors():
    with pytest.raises(ValueError):
        dec(0)
    with pytest.raises(ValueError):
        bipart(-1, 2)
    with pytest.raises(ValueError):
        bipart(2, 0)
    with pytest.raises(ValueError):
        split_right(0, 3)
    with pytest.raises(ValueError):
        split_left(2, 0)


def test_family_degenerations():
    # one family collapses into another at the boundary sizes
    for n in range(1, 7):
        assert split_right(1, n) == dec(n + 1)
    for m in range(1, 7):
        assert bipart(m, 1) == split_right(m, 1)
        # stars: all edges share one centre vertex
        assert inversions(bipart(m, 1)) == frozenset((i, m + 1) for i in range(1, m + 1))
        assert inversions(split_left(m, 1)) == frozenset((1, j) for j in range(2, m + 2))


def test_inversion_counts_of_families():
    for n in range(1, 9):
        assert len(inversions(dec(n))) == n * (n - 1) // 2
    for m in range(1, 5):
        for n in range(1, 5):
            assert inversions(bipart(m, n)) == frozenset(
                (i, m + j) for i in range(1, m + 1) for j in range(1, n + 1))


def test_check_permutation_errors():
    with pytest.raises(ValueError):
        check_permutation(())
    with pytest.raises(ValueError):
        check_permutation((1, 1, 2))
    with pytest.raises(ValueError):
        check_permutation((2, 3))


def test_parse_format_goldens():
    assert parse_permutation("3412") == (3, 4, 1, 2)
    assert parse_permutation("3,4,1,2") == (3, 4, 1, 2)
    long = tuple([10] + list(range(1, 10)))
    assert parse_permutation("10,1,2,3,4,5,6,7,8,9") == long
    assert format_permutation(long) == "10,1,2,3,4,5,6,7,8,9"
    assert format_permutation((3, 4, 1, 2)) == "3412"
    with pytest.raises(ValueError):
        parse_permutation("3411")


@given(perm_words)
def test_parse_format_round_trip(word):
    word = tuple(word)
    assert parse_permutation(format_permutation(word)) == word

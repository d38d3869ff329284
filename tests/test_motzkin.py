from __future__ import annotations

from itertools import combinations, permutations

import pytest

from mvparking import motzkin
from mvparking.motzkin import (
    NotAMotzkinParkingFunction,
    NotAMotzkinPath,
    NotANonCrossingMatching,
    _path_matching,
    _popularity_path,
    dec_to_split_subgraph,
    decreasing_fibre,
    decreasing_representative,
    is_motzkin_path,
    is_motzkin_pf,
    is_noncrossing_matching,
    noncross_to_motzkin,
    noncrossing_matchings,
    path_to_preference,
    preference_path,
    prime_decomposition,
)
from mvparking.parking import NotAParkingFunction, is_parking_function, outcome_mvp
from mvparking.perms import dec, split_left
from mvparking.subgraphs import fibre_via_subgraphs, is_valid, valid_subgraphs

from helpers import (
    all_preferences,
    brute_noncrossing,
    gen_motzkin_paths,
    height_zero_intervals,
    motzkin_numbers,
    popularity_path,
)

FIGURE_DELTA = frozenset({(1, 6), (3, 5), (7, 10), (8, 9)})


def test_preference_path_goldens():
    assert preference_path((2, 2, 1, 4, 3, 6, 4, 6)) == "HUHUDUDD"
    assert preference_path((1, 2, 3, 4, 5)) == "HHHHH"
    assert preference_path((1, 1, 2)) == "UHD"


def test_popularity_path_matches_the_counter_oracle_exhaustive():
    """Every vector of [1, n]^n, parking or not, for n <= 6."""
    for n in range(1, 7):
        for p in all_preferences(n):
            assert _popularity_path(p) == popularity_path(p)


def test_is_motzkin_path():
    assert is_motzkin_path("HUHUDUDD")
    assert not is_motzkin_path("DU")
    assert is_motzkin_path("")
    assert not is_motzkin_path("UDD")
    with pytest.raises(ValueError):
        is_motzkin_path("UXD")


def test_path_to_preference_goldens():
    assert path_to_preference("HUHUDUDD") == (1, 2, 2, 3, 4, 4, 6, 6)
    assert path_to_preference("HHH") == (1, 2, 3)
    assert path_to_preference("UD") == (1, 1)
    with pytest.raises(NotAMotzkinPath):
        path_to_preference("DU")


def test_path_round_trip_all_paths():
    for n in range(1, 13):
        for path in gen_motzkin_paths(n):
            p = path_to_preference(path)
            assert len(p) == len(path)
            assert preference_path(p) == path
            assert list(p) == sorted(p)
            assert is_parking_function(p)


def test_is_motzkin_pf():
    assert is_motzkin_pf((2, 2, 1, 4, 3, 6, 4, 6))
    assert not is_motzkin_pf((1, 1, 1))
    assert is_motzkin_pf((1, 2, 3))
    with pytest.raises(NotAParkingFunction):
        is_motzkin_pf((2, 2))


def test_decreasing_representative_goldens():
    assert decreasing_representative((1, 1, 2)) == (1, 2, 1)
    rep = decreasing_representative((2, 2, 1, 4, 3, 6, 4, 6))
    assert rep == (2, 6, 6, 4, 4, 3, 2, 1)
    assert outcome_mvp(rep).outcome == dec(8)
    with pytest.raises(NotAMotzkinParkingFunction):
        decreasing_representative((1, 1, 1))


def test_decreasing_representative_refuses_a_built_preference_that_misses_dec(monkeypatch):
    """(1, 1, 1) parks to 312, not to dec(3): an internal failure, not a bad input."""
    monkeypatch.setattr(motzkin, "_induced_pf", lambda arcs, word: (1,) * len(word))
    with pytest.raises(AssertionError, match=r"^\(1, 1, 1\), built from \(1, 1, 2\), "
                                             r"does not park to \(3, 2, 1\)$"):
        decreasing_representative((1, 1, 2))


def test_decreasing_representative_fixes_fibre_members():
    # every member is two-cars-per-spot, and its sorted multiset rebuilds it
    for n in range(1, 10):
        for q in fibre_via_subgraphs(dec(n)):
            assert decreasing_representative(q) == q
            assert decreasing_representative(sorted(q)) == q


def test_unique_rearrangement_exhaustive():
    # every two-cars-per-spot parking function has exactly one rearrangement
    # in the decreasing fibre (counted with an independent rearrangement set)
    for n in range(1, 6):
        target = dec(n)
        for p in all_preferences(n):
            if not is_parking_function(p) or not is_motzkin_pf(p):
                continue
            hits = {q for q in set(permutations(p))
                    if outcome_mvp(q).outcome == target}
            assert len(hits) == 1
            assert decreasing_representative(p) in hits


def test_unique_rearrangement_n6_by_multiset_counting():
    # at n = 6, count fibre members per preference multiset instead of
    # enumerating rearrangements: each multiset must be hit exactly once
    from collections import Counter

    n = 6
    fibre_multisets = Counter(tuple(sorted(p)) for p in fibre_via_subgraphs(dec(n)))
    assert set(fibre_multisets.values()) == {1}
    seen = set()
    for p in all_preferences(n):
        if not is_parking_function(p):
            continue
        key = tuple(sorted(p))
        if key in seen:
            continue
        seen.add(key)
        assert is_motzkin_pf(p) == (fibre_multisets[key] == 1)


def test_noncrossing_enumeration_counts_and_brute():
    motzkin = motzkin_numbers(9)
    for n in range(0, 10):
        matchings = list(noncrossing_matchings(n))
        assert len(matchings) == motzkin[n]
        assert len(set(matchings)) == len(matchings)
        for m in matchings:
            assert is_noncrossing_matching(m, n)
    for n in range(0, 7):
        assert set(noncrossing_matchings(n)) == brute_noncrossing(n)


def test_noncrossing_goldens():
    assert sorted(map(sorted, noncrossing_matchings(3))) == [
        [], [(1, 2)], [(1, 3)], [(2, 3)]]
    assert list(noncrossing_matchings(1)) == [frozenset()]


def test_is_noncrossing_matching_rejects():
    assert not is_noncrossing_matching({(1, 3), (2, 4)}, 4)   # crossing
    assert not is_noncrossing_matching({(1, 2), (2, 3)}, 3)   # shared vertex
    assert not is_noncrossing_matching({(1, 5)}, 4)           # outside [n]


def test_is_noncrossing_matching_exhaustive_against_brute():
    for n in range(0, 7):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        accepted = {
            frozenset(arcs)
            for k in range(len(pairs) + 1)
            for arcs in combinations(pairs, k)
            if is_noncrossing_matching(arcs, n)
        }
        assert accepted == brute_noncrossing(n)


def test_path_matching_inverts_noncross_to_motzkin():
    for n in range(0, 11):
        for m in noncrossing_matchings(n):
            assert _path_matching(noncross_to_motzkin(m, n)) == m
        for path in gen_motzkin_paths(n):
            assert noncross_to_motzkin(_path_matching(path), n) == path


def test_noncross_to_motzkin_goldens():
    assert noncross_to_motzkin(frozenset(), 4) == "HHHH"
    assert noncross_to_motzkin({(1, 2)}, 2) == "UD"
    assert noncross_to_motzkin(FIGURE_DELTA, 11) == "UHUHDDUUDDH"


def test_noncross_to_motzkin_is_bijective():
    motzkin = motzkin_numbers(10)
    for n in range(0, 11):
        images = [noncross_to_motzkin(m, n) for m in noncrossing_matchings(n)]
        assert len(set(images)) == len(images) == motzkin[n]
        assert all(is_motzkin_path(path) for path in images)


def test_prime_decomposition():
    assert prime_decomposition(FIGURE_DELTA, 11) == [(1, 6), (7, 10), (11, 11)]
    assert prime_decomposition(frozenset(), 3) == [(1, 1), (2, 2), (3, 3)]
    assert prime_decomposition({(1, 5)}, 5) == [(1, 5)]
    for n in range(0, 8):
        for m in noncrossing_matchings(n):
            intervals = prime_decomposition(m, n)
            covered = [v for a, b in intervals for v in range(a, b + 1)]
            assert covered == list(range(1, n + 1))
            assert intervals == height_zero_intervals(noncross_to_motzkin(m, n))
    with pytest.raises(NotANonCrossingMatching):
        prime_decomposition({(1, 3), (2, 4)}, 4)   # crossing
    with pytest.raises(NotANonCrossingMatching):
        prime_decomposition({(1, 2), (2, 3)}, 3)   # shared vertex


def test_decreasing_fibre():
    assert decreasing_fibre(1) == [(1,)]
    assert len(decreasing_fibre(6)) == 51
    assert (11, 7, 8, 8, 7, 1, 3, 4, 3, 2, 1) in decreasing_fibre(11)
    for n in range(1, 8):
        assert decreasing_fibre(n) == fibre_via_subgraphs(dec(n))


def test_dec_to_split_goldens():
    assert dec_to_split_subgraph({(2, 6), (3, 4), (7, 8)}, 8) == frozenset(
        {(2, 7), (2, 8), (4, 5)})
    untouched = frozenset({(1, 2), (4, 5)})
    assert dec_to_split_subgraph(untouched, 6) == untouched
    assert dec_to_split_subgraph({(2, 3)}, 3) == frozenset({(1, 2), (1, 3)})
    assert is_valid({(1, 2), (1, 3)}, split_left(2, 1))


def test_dec_to_split_errors():
    with pytest.raises(NotANonCrossingMatching):
        dec_to_split_subgraph({(1, 3), (2, 4)}, 4)
    with pytest.raises(ValueError):
        dec_to_split_subgraph(frozenset(), 2)


def test_dec_to_split_bijection_small():
    motzkin = motzkin_numbers(6)
    for n in range(3, 7):
        source = valid_subgraphs(dec(n))
        images = [dec_to_split_subgraph(s, n) for s in source]
        assert len(set(images)) == len(images) == motzkin[n]
        assert set(images) == set(valid_subgraphs(split_left(2, n - 2)))

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from mvparking import subgraphs
from mvparking.motzkin import motzkin_numbers
from mvparking.parking import displacement_mvp, is_parking_function, outcome_mvp
from mvparking.perms import bipart, dec, split_right
from mvparking.subgraphs import (
    FIBRE_CAP,
    FibreBounds,
    NotASubgraph,
    SizeCapExceeded,
    bounds,
    check_one_subgraph,
    count_one_subgraphs,
    enumerate_one_subgraphs,
    fibre_brute,
    fibre_size,
    fibre_via_subgraphs,
    format_arcs,
    hs_count,
    is_hs,
    is_p2_free,
    is_valid,
    outcome_distribution,
    p2_free_count,
    parse_arcs,
    pf_to_subgraph,
    subgraph_to_pf,
    valid_subgraphs,
)

from helpers import (all_preferences, induced_pf, mvp_outcome, p2_free_count_by_masks,
                     spot_order_walk)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_one_subgraphs((2, 3, 1))) == 3
    assert sum(1 for _ in enumerate_one_subgraphs((3, 1, 2))) == 4
    assert sum(1 for _ in enumerate_one_subgraphs(dec(4))) == 24


def test_enumeration_matches_product_formula_and_is_duplicate_free():
    for n in range(1, 6):
        for word in permutations(range(1, n + 1)):
            subs = list(enumerate_one_subgraphs(word))
            assert len(subs) == count_one_subgraphs(word)
            assert len(set(subs)) == len(subs)
            for sub in subs:
                assert check_one_subgraph([*sub, *sub], word) == sub  # a repeated arc is one arc


def test_pf_to_subgraph_goldens():
    assert pf_to_subgraph((1, 1, 1)) == frozenset({(1, 2), (1, 3)})
    assert pf_to_subgraph((2, 3, 1)) == frozenset()
    assert pf_to_subgraph((2, 2, 1, 2, 5)) == frozenset({(2, 3), (2, 4)})


def test_subgraph_to_pf_goldens():
    assert subgraph_to_pf({(2, 3), (2, 4)}, (3, 4, 1, 2, 5)) == (2, 2, 1, 2, 5)
    word = (4, 2, 3, 1, 5)
    assert subgraph_to_pf(frozenset(), word) == subgraph_to_pf([], word)
    # empty subgraph: the car in spot i prefers i
    prefs = subgraph_to_pf(frozenset(), word)
    for i, car in enumerate(word, start=1):
        assert prefs[car - 1] == i
    # eleven-vertex arc diagram on the decreasing permutation
    delta = {(1, 6), (3, 5), (7, 10), (8, 9)}
    assert subgraph_to_pf(delta, dec(11)) == (11, 7, 8, 8, 7, 1, 3, 4, 3, 2, 1)


def test_induced_pf_matches_the_dict_oracle_on_every_one_subgraph():
    """Every 1-subgraph of every permutation of S_n for n <= 5."""
    for n in range(1, 6):
        for word in permutations(range(1, n + 1)):
            for arcs in enumerate_one_subgraphs(word):
                assert subgraphs._induced_pf(arcs, word) == induced_pf(arcs, word)


def test_subgraph_to_pf_rejects_bad_subgraphs():
    with pytest.raises(NotASubgraph):
        subgraph_to_pf({(1, 2)}, (1, 2, 3))  # not an inversion
    with pytest.raises(NotASubgraph):
        subgraph_to_pf({(1, 3), (2, 3)}, (3, 2, 1))  # two left-arcs at 3
    with pytest.raises(ValueError):
        subgraph_to_pf({(3, 2)}, (3, 2, 1))  # malformed arc


def test_is_valid_goldens():
    assert not is_valid({(1, 2), (1, 3)}, (3, 2, 1))
    for n in range(1, 6):
        for word in permutations(range(1, n + 1)):
            assert is_valid(frozenset(), word)
    # every single-arc subgraph is valid
    for word in permutations(range(1, 6)):
        for sub in enumerate_one_subgraphs(word):
            if len(sub) == 1:
                assert is_valid(sub, word)


def test_p2_free():
    assert not is_p2_free({(1, 2), (2, 3)})
    assert is_p2_free(frozenset())
    assert is_p2_free({(1, 2), (1, 3)})
    assert not is_p2_free({(2, 4), (4, 9)})


def test_hs():
    assert is_hs({(1, 2), (3, 4)})
    assert is_hs({(3, 4), (6, 9)})
    assert not is_hs({(2, 3), (1, 4)})   # nested
    assert not is_hs({(1, 3), (2, 4)})   # crossing
    assert not is_hs({(1, 3), (3, 5)})   # shared endpoint
    assert is_hs({(2, 7)})
    assert is_hs(frozenset())


def test_fibre_via_subgraphs_goldens():
    assert fibre_via_subgraphs((3, 1, 2)) == [
        (1, 1, 1), (1, 3, 1), (2, 1, 1), (2, 3, 1)]
    assert fibre_via_subgraphs((1, 2, 3, 4)) == [(1, 2, 3, 4)]
    assert len(fibre_via_subgraphs(dec(5))) == 21
    assert fibre_via_subgraphs((3, 2, 1)) == [
        (1, 2, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1)]


def test_fibre_brute_matches_subgraph_method():
    assert fibre_brute((3, 1, 2)) == fibre_via_subgraphs((3, 1, 2))
    assert fibre_brute((1, 2, 3)) == [(1, 2, 3)]
    assert len(fibre_brute((3, 2, 1))) == 4
    for word in permutations(range(1, 5)):
        assert fibre_brute(word) == fibre_via_subgraphs(word)


def test_fibre_brute_cap(monkeypatch):
    with pytest.raises(SizeCapExceeded):
        fibre_brute(dec(8))
    monkeypatch.setattr(subgraphs, "BRUTE_FORCE_CAP", 4)
    with pytest.raises(SizeCapExceeded, match="n=5 above brute-force cap 4"):
        fibre_brute(dec(5))
    assert len(fibre_brute(dec(4))) == 9


def _check_against_spot_order_oracle(word, with_subgraphs=True):
    fibre, valid, p2_free, hs = spot_order_walk(word)
    assert fibre_via_subgraphs(word) == fibre
    if with_subgraphs:
        listed = valid_subgraphs(word)
        assert len(set(listed)) == len(listed) and set(listed) == valid
    assert (p2_free_count(word), hs_count(word)) == (p2_free, hs)


def test_backward_lister_and_dps_match_the_spot_order_oracle():
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            _check_against_spot_order_oracle(word, with_subgraphs=n <= 6)


@settings(deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_backward_lister_and_dps_match_the_spot_order_oracle_on_random_permutations(word):
    _check_against_spot_order_oracle(tuple(word))


def test_fibre_size_matches_the_subgraph_walk_and_partitions_the_parking_functions():
    for n in range(1, 8):
        total = 0
        sizes = {}
        for word in permutations(range(1, n + 1)):
            sizes[word] = fibre_size(word)
            assert sizes[word] == len(fibre_via_subgraphs(word)), word
            total += sizes[word]
        assert total == (n + 1) ** (n - 1)
        assert outcome_distribution(n) == sizes


def test_fibre_via_subgraphs_lists_bipart_7_7():
    word = bipart(7, 7)
    fibre = fibre_via_subgraphs(word)
    assert len(fibre) == 11_337 and fibre == sorted(set(fibre))
    assert all(mvp_outcome(prefs) == word for prefs in fibre)
    assert len(valid_subgraphs(word)) == 11_337


@pytest.mark.parametrize("n", [0, -1, True, 2.0, 10, 11])
def test_outcome_distribution_refuses_bad_or_oversized_n(n):
    with pytest.raises(ValueError, match="cap 9" if n in (10, 11) else "positive int"):
        outcome_distribution(n)


def test_fibre_size_matches_brute_force():
    for n in range(1, 6):
        for word in permutations(range(1, n + 1)):
            assert fibre_size(word) == len(fibre_brute(word)), word


def test_fibre_size_pinned_paper_cells():
    assert fibre_size(bipart(7, 7)) == 11337
    assert fibre_size(dec(11)) == 5798
    assert fibre_size(split_right(2, 9)) == 6385
    # beyond the table guards; each was cross-checked once against the
    # forward dynamic program
    assert fibre_size(bipart(8, 8)) == 50_430
    assert fibre_size(dec(15)) == motzkin_numbers(15)[15] == 310_572
    assert fibre_size(split_right(2, 13)) == 352_041


def test_fibre_size_matches_outcome_distribution_on_a_sample_of_s8():
    sizes = outcome_distribution(8)
    for word in random.Random(8).sample(sorted(sizes), 300):
        assert fibre_size(word) == sizes[word], word


def test_the_n10_conjecture_witnesses():
    # the n = 10 conjecture row: 9,10,8,6,7,5,4,3,2,1 has a larger fibre than split_right(2, 8)
    for word, size in [((9, 10, 8, 6, 7, 5, 4, 3, 2, 1), 2400), (split_right(2, 8), 2383)]:
        members = fibre_via_subgraphs(word)
        assert fibre_size(word) == len(members) == len(set(members)) == size
        assert all(outcome_mvp(prefs).outcome == word for prefs in members)


def test_pinned_walk_counters():
    # P2-free subgraphs and fibre sizes: the leaves and hits of the spot-order walk
    assert p2_free_count(bipart(7, 7)) == 2_097_152
    assert (p2_free_count(dec(11)), len(fibre_via_subgraphs(dec(11)))) == (678_570, 5_798)
    assert (p2_free_count(split_right(2, 9)),
            len(fibre_via_subgraphs(split_right(2, 9)))) == (562_595, 6_385)


@settings(deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_fibre_size_matches_the_walk_on_random_permutations(word):
    assert fibre_size(word) == len(fibre_via_subgraphs(word))


def _direct_sum(sigma, tau):
    return (*sigma, *(len(sigma) + v for v in tau))


@settings(deadline=None)
@given(*(st.integers(1, 10).flatmap(lambda n: st.permutations(list(range(1, n + 1))))
         for _ in range(2)))
def test_fibre_size_multiplies_over_direct_sums(sigma, tau):
    # the cars of sigma fill spots 1..k before tau's arrive, and never get bumped past k
    assert fibre_size(_direct_sum(sigma, tau)) == fibre_size(sigma) * fibre_size(tau)


def test_fibre_size_beyond_the_oracles():
    # both cross-checked once against the level-by-level backward count
    assert fibre_size(bipart(10, 10)) == 995_610
    assert fibre_size(dec(19)) == 18_199_284
    motzkin = motzkin_numbers(20)
    assert [fibre_size(dec(n)) for n in range(1, 21)] == motzkin[1:]


def test_both_run_keys_count_every_fibre_of_s_n():
    for n in range(1, 9):
        sizes = outcome_distribution(n)
        for by_pattern in (True, False):
            count = subgraphs._run_counter(by_pattern=by_pattern)  # one memo for all of S_n
            assert all(count(word) == size for word, size in sizes.items()), (n, by_pattern)


@settings(deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_both_run_keys_match_the_spot_order_oracle(word):
    size = len(spot_order_walk(word)[0])
    for by_pattern in (True, False):
        assert subgraphs._run_counter(by_pattern=by_pattern)(word) == size


def test_the_pattern_keyed_counter_on_the_paper_families():
    motzkin, count = motzkin_numbers(100), subgraphs._run_counter()
    assert [count(dec(n)) for n in range(1, 101)] == motzkin[1:]
    assert fibre_size(dec(100)) == motzkin[100]
    # thm-4.1: the n = 2 row of the bipartite family
    assert [fibre_size(bipart(m, 2)) for m in range(1, 201)] == [
        m + 1 + (m + 1) ** 2 // 2 for m in range(1, 201)]


def test_the_memo_is_keyed_by_rank_pattern():
    count = subgraphs._run_counter()
    assert count(dec(30)) == fibre_size(dec(30)) == 1_697_385_471_211
    assert len(count.memo) < 300  # raw keys fill about 3.0M entries on dec(30)
    assert all(sorted(run) == list(range(len(run))) for run in count.memo)


def test_fibre_cap():
    identity = tuple(range(1, FIBRE_CAP + 1))
    assert fibre_size(identity) == 1 and fibre_via_subgraphs(identity) == [identity]
    word = ()
    for _ in range(FIBRE_CAP // 3):
        word = _direct_sum(word, (3, 1, 2))
    assert len(word) == FIBRE_CAP and fibre_size(word) == 4 ** 85
    for func in (fibre_size, fibre_via_subgraphs):
        with pytest.raises(SizeCapExceeded, match="n=256 above fibre cap FIBRE_CAP=255"):
            func(range(1, FIBRE_CAP + 2))


def test_bounds_match_walk_and_simulate_reference():
    for n in range(1, 7):
        for word in permutations(range(1, n + 1)):
            n_inv = sum(word[a] > word[b] for a in range(n) for b in range(a + 1, n))
            fibre, _, p2_free, hs = spot_order_walk(word)
            assert bounds(word) == FibreBounds(
                product_upper=count_one_subgraphs(word),
                p2free_count=p2_free,
                fibre_size=len(fibre),
                hs_count=hs,
                single_arc_lower=1 + n_inv,
            ), word


def test_bounds_goldens():
    assert bounds(dec(7)) == (5040, 877, 127, 64, 22)
    assert bounds((1, 2, 3, 4)) == (1, 1, 1, 1, 1)


def test_bounds_sandwich_exhaustive():
    for n in range(1, 6):
        for word in permutations(range(1, n + 1)):
            b = bounds(word)
            assert (b.single_arc_lower <= b.hs_count <= b.fibre_size
                    <= b.p2free_count <= b.product_upper)


def test_counting_helpers_match_predicates():
    for n in range(1, 6):
        for word in permutations(range(1, n + 1)):
            subs = list(enumerate_one_subgraphs(word))
            assert p2_free_count(word) == sum(1 for s in subs if is_p2_free(s))
            assert hs_count(word) == sum(1 for s in subs if is_hs(s))


def test_fibre_matches_bucketed_brute_exhaustive():
    # one sweep over all preferences per n buckets every fibre at once,
    # giving the brute oracle for every permutation of S_n, n <= 6
    from collections import defaultdict

    from mvparking.parking import outcome_mvp

    for n in range(1, 7):
        buckets: dict[tuple, list] = defaultdict(list)
        for p in all_preferences(n):
            if is_parking_function(p):
                buckets[outcome_mvp(p).outcome].append(p)
        for word in permutations(range(1, n + 1)):
            assert fibre_via_subgraphs(word) == sorted(buckets.get(word, []))


def test_dec_counts_match_bell_and_powers_of_two():
    from helpers import bell_numbers

    bells = bell_numbers(100)
    for n in range(1, 101):
        assert p2_free_count(dec(n)) == bells[n]
        assert hs_count(dec(n)) == 2 ** (n - 1)
    assert bells[20] == 51_724_158_235_372


def test_gap_class_count_equals_the_mask_oracle_on_every_permutation_up_to_8():
    for n in range(1, 9):
        for word in permutations(range(1, n + 1)):
            assert p2_free_count(word) == p2_free_count_by_masks(word), word


@settings(deadline=None)
@given(st.integers(1, 14).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_gap_class_count_equals_the_mask_oracle_on_random_permutations(word):
    assert p2_free_count(word) == p2_free_count_by_masks(word)


def test_bounds_refuses_n_above_the_cap_before_counting(monkeypatch):
    monkeypatch.setattr(subgraphs, "_p2_free_count",
                        lambda word: pytest.fail(f"P2-free subgraphs counted for n={len(word)}"))
    with pytest.raises(SizeCapExceeded, match="n=256 above fibre cap FIBRE_CAP=255"):
        bounds(dec(256))


def test_displacement_equals_arc_length_spot():
    for n in range(1, 6):
        for p in all_preferences(n):
            if not is_parking_function(p):
                continue
            assert displacement_mvp(p) == sum(i - j for j, i in pf_to_subgraph(p))


def test_counterexamples_to_matching_and_noncrossing_in_general():
    # two right-arcs at one vertex, and a crossing pair, can both be valid
    # away from the decreasing permutation
    sub = pf_to_subgraph((1, 1, 1, 2))
    assert sub == frozenset({(1, 3), (1, 4)})
    assert is_valid(sub, (3, 4, 2, 1))
    sub = pf_to_subgraph((2, 1, 2, 1, 3))
    assert sub == frozenset({(1, 4), (2, 5)})
    assert is_valid(sub, (4, 3, 5, 2, 1))


def test_arc_set_parse_format():
    assert format_arcs({(2, 4), (2, 3)}) == "2-3,2-4"
    assert format_arcs(frozenset()) == ""
    assert parse_arcs("2-3,2-4") == frozenset({(2, 3), (2, 4)})
    assert parse_arcs("") == frozenset()
    with pytest.raises(ValueError):
        parse_arcs("23")
    with pytest.raises(ValueError):
        parse_arcs("3-2")
    for word in permutations(range(1, 5)):
        for sub in enumerate_one_subgraphs(word):
            assert parse_arcs(format_arcs(sub)) == sub

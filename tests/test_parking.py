from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from mvparking import parking
from mvparking.parking import (
    BumpEvent,
    NotAParkingFunction,
    check_preference,
    displacement_mvp,
    format_preference,
    is_parking_function,
    outcome_classical,
    outcome_mvp,
    parse_preference,
)

from helpers import all_preferences, classical_outcome, mvp_outcome


def test_worked_example_both_models():
    assert outcome_classical((3, 1, 1, 2)) == (2, 3, 1, 4)
    res = outcome_mvp((3, 1, 1, 2))
    assert res.outcome == (3, 4, 1, 2)
    assert res.bump_log == (BumpEvent(2, 1, 2), BumpEvent(2, 2, 4))


def test_mvp_goldens():
    assert outcome_mvp((1, 1, 1)).outcome == (3, 1, 2)
    assert outcome_mvp((2, 1, 2, 1, 3)).outcome == (4, 3, 5, 2, 1)
    assert outcome_mvp((1, 1, 1, 2)).outcome == (3, 4, 2, 1)
    assert outcome_mvp((2, 2, 1, 2, 5)).outcome == (3, 4, 1, 2, 5)
    assert outcome_mvp((1, 2, 3, 4)).outcome == (1, 2, 3, 4)


def test_classical_goldens():
    # all three cars drive on one spot: classical keeps arrival order
    assert outcome_classical((1, 1, 1)) == (1, 2, 3)
    assert outcome_classical(tuple(range(1, 8))) == tuple(range(1, 8))


def test_is_parking_function_examples():
    assert is_parking_function((3, 1, 1, 2))
    assert is_parking_function((1, 2, 3, 4))
    assert not is_parking_function((2, 2))


def test_outcomes_reject_non_parking_function():
    with pytest.raises(NotAParkingFunction, match="not a parking function"):
        outcome_classical((2, 2))
    with pytest.raises(NotAParkingFunction, match="not a parking function"):
        outcome_mvp((3, 3, 3))
    with pytest.raises(NotAParkingFunction):
        displacement_mvp((2, 2))


def test_preference_validation():
    with pytest.raises(ValueError):
        check_preference(())
    with pytest.raises(ValueError):
        check_preference((0, 1))
    with pytest.raises(ValueError):
        check_preference((1, 3))
    with pytest.raises(ValueError):
        check_preference((True, 1))


def test_parse_and_format():
    assert parse_preference("3,1,1,2") == (3, 1, 1, 2)
    assert parse_preference("3112") == (3, 1, 1, 2)
    assert format_preference((3, 1, 1, 2)) == "3,1,1,2"
    with pytest.raises(ValueError):
        parse_preference("3,0,1")
    with pytest.raises(ValueError):
        parse_preference("abc")


def test_displacement_goldens():
    assert displacement_mvp((1, 2, 3, 4, 5)) == 0
    assert displacement_mvp((3, 1, 1, 2)) == 3
    assert displacement_mvp((1, 1, 1)) == 3


def test_both_processes_agree_on_parkability_exhaustive():
    # same preferences park under either rule, n <= 6 exhaustively
    for n in range(1, 7):
        for p in all_preferences(n):
            classical_parks = True
            try:
                outcome_classical(p)
            except NotAParkingFunction:
                classical_parks = False
            mvp_parks = True
            try:
                outcome_mvp(p)
            except NotAParkingFunction:
                mvp_parks = False
            assert classical_parks == mvp_parks == is_parking_function(p)


@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)))
def test_sorted_characterisation(prefs):
    # p is a parking function iff its sorted rearrangement satisfies a_i <= i, which
    # is_parking_function computes: check it against a simulation of the MVP rule
    assert is_parking_function(tuple(prefs)) == (mvp_outcome(tuple(prefs)) is not None)


def test_outcomes_deterministic():
    p = (2, 1, 2, 1, 3)
    assert outcome_mvp(p) == outcome_mvp(p)
    assert outcome_classical(p) == outcome_classical(p)


def test_bump_log_structure_exhaustive():
    # bumped cars only ever move right, and a car's bumps chain:
    # preference <= first from-spot, and each to-spot is the next from-spot
    for n in range(1, 6):
        for p in all_preferences(n):
            if not is_parking_function(p):
                continue
            res = outcome_mvp(p)
            per_car: dict[int, list[BumpEvent]] = {}
            for ev in res.bump_log:
                assert ev.to_spot > ev.from_spot
                per_car.setdefault(ev.car, []).append(ev)
            for car, events in per_car.items():
                assert events[0].from_spot == p[car - 1]
                for a, b in zip(events, events[1:]):
                    assert b.from_spot == a.to_spot
                final_spot = res.outcome.index(car) + 1
                assert events[-1].to_spot == final_spot


def test_mvp_kernel_returns_the_outcome_or_none():
    """`_mvp` is the helper simulation of either rule on every vector of [n]^n, None included."""
    for n in range(1, 7):
        for p in all_preferences(n):
            assert parking._mvp(p) == mvp_outcome(p), p
            assert parking._mvp(p, classical=True) == classical_outcome(p), p


def test_parking_function_walk_equals_the_filtered_scan_in_order():
    """The depth-first walk yields what scanning all n^n vectors keeps, in the same order."""
    for n in range(1, 7):
        scan = [(p, mvp_outcome(p)) for p in all_preferences(n)]
        assert list(parking._parking_functions(n)) == [(p, w) for p, w in scan if w is not None]


def test_is_parking_function_keeps_what_the_parking_walk_parks():
    """The counting criterion against the MVP walk, on every vector of [n]^n."""
    for n in range(1, 8):
        parked = {p for p, _word in parking._parking_functions(n)}
        assert {p for p in all_preferences(n) if is_parking_function(p)} == parked, n


def test_parking_function_walk_counts_and_strictly_increases():
    for n in range(1, 8):
        prefs = [p for p, _word in parking._parking_functions(n)]
        assert len(prefs) == (n + 1) ** (n - 1), n
        assert all(a < b for a, b in zip(prefs, prefs[1:])), n


def test_moves_restores_the_street_and_skips_only_exits(monkeypatch):
    """On every street the walk reaches, as a list or as the forward program's
    bytearray: the spots yielded ascend, are those whose bumped car finds a free
    spot by spot n, each leaves the MVP move in place, and exhausting the
    generator leaves the street as it was found."""
    for n in range(1, 6):
        reached = []

        def spy(spots, car, n, _moves=parking._moves):
            reached.append((list(spots), car))
            return _moves(spots, car, n)

        monkeypatch.setattr(parking, "_moves", spy)
        assert sum(1 for _ in parking._parking_functions(n)) == (n + 1) ** (n - 1)
        monkeypatch.undo()
        assert {car for _street, car in reached} == set(range(1, n + 1))
        for street, car in reached:
            parks = [p for p in range(1, n + 1) if not street[p] or 0 in street[p + 1:n + 1]]
            for spots in (list(street), bytearray(street)):
                yielded = []
                for p in parking._moves(spots, car, n):
                    yielded.append(p)
                    moved = list(street)
                    moved[p] = car
                    if street[p]:
                        moved[moved.index(0, p + 1)] = street[p]
                    assert list(spots) == moved, (street, car, p)
                assert yielded == parks, (street, car)
                assert list(spots) == street, (street, car)

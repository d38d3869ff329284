from __future__ import annotations

import random
import re
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from mvparking import cli, parking
from mvparking.parking import NotAParkingFunction, is_parking_function, outcome_classical, outcome_mvp
from mvparking.sandpile import (
    NotMinimalRecurrent,
    NotRecurrent,
    NotStable,
    VertexStable,
    canonical_toppling,
    config_to_preference,
    format_config,
    is_min_recurrent,
    is_recurrent,
    is_stable,
    minrec,
    minrec_classical,
    minrec_classical_trace,
    minrec_trace,
    mvp_outcome_via_sandpile,
    parse_config,
    preference_to_config,
    _topple,
    stabilise,
    topple,
)

from helpers import stabilise_one_at_a_time

BIG = (11, 9, 5, 8, 1, 9, 4, 8, 4, 9, 10, 0)


def burning_order_exists(c):
    """Exhaustive oracle: some permutation of vertices topples c+1 fully."""
    n = len(c)
    start = [x + 1 for x in c]
    for order in permutations(range(n)):
        work = list(start)
        ok = True
        for v in order:
            if work[v] < n:
                ok = False
                break
            work[v] -= n
            for u in range(n):
                if u != v:
                    work[u] += 1
        if ok:
            return True
    return False


def test_topple_goldens():
    assert topple((3, 0, 0), 1) == (0, 1, 1)
    assert topple((4, 1, 0), 1) == (1, 2, 1)
    assert topple((2, 5), 2) == (3, 3)
    with pytest.raises(VertexStable):
        topple((1, 5), 1)
    with pytest.raises(IndexError):
        topple((3, 0, 0), 4)


def test_stabilise():
    assert stabilise((1, 0, 2)) == ((1, 0, 2), ())
    assert stabilise((3, 0, 0)) == ((0, 1, 1), (1,))
    assert stabilise((2, 2)) == ((1, 1), (1, 2))
    stable, seq = stabilise((9, 9, 9))
    assert is_stable(stable)
    assert sum(stable) == 27 - len(seq)


def test_stabilise_matches_one_toppling_at_a_time_exhaustive():
    for n in range(1, 5):
        for c in product(range(2 * n + 1), repeat=n):
            assert stabilise(c) == stabilise_one_at_a_time(c)


@given(st.lists(st.integers(0, 300), min_size=1, max_size=12))
def test_stabilise_matches_one_toppling_at_a_time(c):
    assert stabilise(c) == stabilise_one_at_a_time(c)


def test_is_recurrent():
    assert is_recurrent((2, 4, 3, 0, 1))
    assert not is_recurrent((0, 0))
    assert is_recurrent((4, 4, 4, 4, 4))
    assert is_recurrent((0,))
    with pytest.raises(NotStable):
        is_recurrent((5, 0, 0))


def test_greedy_burning_matches_exhaustive_order_search():
    for n in range(1, 5):
        for c in product(range(n), repeat=n):
            assert is_recurrent(c) == burning_order_exists(c)


@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)))
def test_is_recurrent_agrees_with_burning_by_topple(c):
    # add one grain everywhere, then topple the lowest unburnt unstable
    # vertex until none is left; a full burn must return to c itself
    n = len(c)
    cfg, burnt = tuple(x + 1 for x in c), set()
    while (v := next((v for v in range(1, n + 1) if v not in burnt and cfg[v - 1] >= n),
                     None)) is not None:
        cfg = topple(cfg, v)
        burnt.add(v)
    assert is_recurrent(c) == (len(burnt) == n)
    if len(burnt) == n:
        assert cfg == c


def test_complement_maps_between_configs_and_preferences():
    assert config_to_preference((2, 4, 3, 0, 1)) == (3, 1, 2, 5, 4)
    assert is_parking_function((3, 1, 2, 5, 4))
    assert config_to_preference((3, 3, 3, 3)) == (1, 1, 1, 1)
    assert preference_to_config((3, 1, 1, 2)) == (1, 3, 3, 2)
    with pytest.raises(NotStable):
        config_to_preference((4, 0, 0))


def test_recurrent_iff_complement_parks_exhaustive():
    for n in range(1, 6):
        for c in product(range(n), repeat=n):
            assert is_recurrent(c) == is_parking_function(tuple(n - x for x in c))


def test_is_min_recurrent():
    assert is_min_recurrent((2, 4, 3, 0, 1))
    assert not is_min_recurrent((3, 3, 3, 3))
    assert is_min_recurrent((0, 1, 2, 3))


def test_min_recurrent_iff_no_decrement_stays_recurrent():
    for n in range(1, 6):
        for c in product(range(n), repeat=n):
            if not is_recurrent(c):
                continue
            minimal = True
            for k in range(n):
                if c[k] == 0:
                    continue
                lowered = tuple(x - 1 if j == k else x for j, x in enumerate(c))
                if is_recurrent(lowered):
                    minimal = False
                    break
            assert is_min_recurrent(c) == minimal


def test_canonical_toppling():
    assert canonical_toppling((2, 4, 3, 0, 1)) == (2, 3, 1, 5, 4)
    assert canonical_toppling((3, 2, 1, 0)) == (1, 2, 3, 4)
    assert canonical_toppling((0, 1, 2, 3)) == (4, 3, 2, 1)
    with pytest.raises(NotMinimalRecurrent):
        canonical_toppling((1, 1, 0))


def test_canonical_toppling_exhaustive_against_sorting():
    """Every configuration in [0, n]^n for n <= 5: refused unless it sorts to
    0..n-1, and otherwise position i holds the vertex with n - i grains."""
    for n in range(1, 6):
        for c in product(range(n + 1), repeat=n):
            if sorted(c) != list(range(n)):
                with pytest.raises(NotMinimalRecurrent):
                    canonical_toppling(c)
            else:
                assert canonical_toppling(c) == tuple(c.index(n - i) + 1 for i in range(1, n + 1))


def test_minrec_goldens():
    assert minrec(BIG) == (11, 7, 5, 6, 1, 2, 3, 8, 4, 9, 10, 0)
    assert minrec((1, 3, 3, 2)) == (1, 0, 3, 2)
    assert minrec((2, 4, 3, 0, 1)) == (2, 4, 3, 0, 1)
    with pytest.raises(NotRecurrent):
        minrec((0, 0))


def test_minrec_trace_matches_worked_iterations():
    result, steps = minrec_trace(BIG)
    assert result == (11, 7, 5, 6, 1, 2, 3, 8, 4, 9, 10, 0)
    assert [(s.j, s.target, s.before, s.after) for s in steps] == [
        (6, 2, 9, 7), (8, 4, 8, 6), (9, 7, 4, 3), (10, 6, 9, 2)]


def test_minrec_classical():
    assert minrec_classical((1, 3, 3, 2)) == (1, 3, 2, 0)
    assert canonical_toppling(minrec_classical((1, 3, 3, 2))) == (2, 3, 1, 4)
    assert minrec_classical(BIG) == (11, 9, 5, 8, 1, 7, 4, 6, 3, 2, 10, 0)
    p = tuple(12 - x for x in BIG)
    assert canonical_toppling(minrec_classical(BIG)) == outcome_classical(p)
    assert minrec_classical((2, 4, 3, 0, 1)) == (2, 4, 3, 0, 1)


def test_untraced_minrec_equals_the_traced_result_exhaustive():
    for n in range(1, 6):
        for c in product(range(n), repeat=n):
            if is_recurrent(c):
                assert minrec(c) == minrec_trace(c)[0]
                assert minrec_classical(c) == minrec_classical_trace(c)[0]


def test_minrec_output_is_minimal_recurrent_exhaustive():
    for n in range(1, 6):
        for c in product(range(n), repeat=n):
            if not is_recurrent(c):
                continue
            for reduced in (minrec(c), minrec_classical(c)):
                assert is_min_recurrent(reduced)
                assert all(x <= y for x, y in zip(reduced, c))


def test_minrec_only_touches_duplicate_members():
    for n in range(1, 6):
        for c in product(range(n), repeat=n):
            if not is_recurrent(c):
                continue
            result, steps = minrec_trace(c)
            changed = {k + 1 for k in range(n) if result[k] != c[k]}
            assert changed == {s.target for s in steps if s.before != s.after}


def test_reduction_steps_move_right_and_decrease():
    for n in range(1, 7):
        for p in product(range(1, n + 1), repeat=n):
            if not is_parking_function(p):
                continue
            c = tuple(n - x for x in p)
            for trace in (minrec_trace, minrec_classical_trace):
                steps = trace(c)[1]
                assert all(a.j < b.j for a, b in zip(steps, steps[1:]))
                assert all(s.after < s.before for s in steps)


def test_each_iteration_preserves_mvp_outcome():
    # replay the decrement log one step at a time; the complement's outcome
    # must never change
    for n in range(1, 6):
        for c in product(range(n), repeat=n):
            if not is_recurrent(c):
                continue
            reference = outcome_mvp(tuple(n - x for x in c)).outcome
            cfg = list(c)
            for step in minrec_trace(c)[1]:
                cfg[step.target - 1] = step.after
                assert outcome_mvp(tuple(n - x for x in cfg)).outcome == reference


def test_mvp_outcome_via_sandpile():
    assert mvp_outcome_via_sandpile((3, 1, 1, 2)) == (3, 4, 1, 2)
    assert mvp_outcome_via_sandpile((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)
    p = tuple(12 - x for x in BIG)
    assert mvp_outcome_via_sandpile(p) == outcome_mvp(p).outcome


def test_sandpile_route_decides_parking_by_recurrence_alone(monkeypatch):
    """The complement n - p is recurrent exactly when p parks, so the sandpile
    route refuses a non-parking vector without simulating the MVP process."""
    for n in range(1, 6):
        for p in product(range(1, n + 1), repeat=n):
            assert is_recurrent(tuple(n - x for x in p)) == is_parking_function(p), p
    calls = []
    monkeypatch.setattr(parking, "_mvp", lambda *args, **kwargs: calls.append(args))
    assert mvp_outcome_via_sandpile((3, 1, 1, 2)) == (3, 4, 1, 2)
    with pytest.raises(NotAParkingFunction, match=r"^\(3, 3, 3\) is not a parking function$"):
        mvp_outcome_via_sandpile((3, 3, 3))
    assert not calls


def test_minrec_decides_recurrence_as_the_oracles_do_exhaustive():
    """The elimination pass raises NotRecurrent exactly where the sorted burning
    criterion and the exhaustive burning-order search call a stable configuration
    non-recurrent, and the sandpile route refuses exactly their complements."""
    for n in range(1, 6):
        for c in product(range(n), repeat=n):
            recurrent = is_recurrent(c)
            assert recurrent == burning_order_exists(c), c
            p = tuple(n - x for x in c)
            for reduce in (minrec, minrec_classical, minrec_trace, minrec_classical_trace):
                if recurrent:
                    reduce(c)
                else:
                    with pytest.raises(NotRecurrent, match=rf"^{re.escape(str(c))} is not recurrent$"):
                        reduce(c)
            if recurrent:
                assert mvp_outcome_via_sandpile(p) == outcome_mvp(p).outcome
            else:
                with pytest.raises(NotAParkingFunction,
                                   match=rf"^{re.escape(str(p))} is not a parking function$"):
                    mvp_outcome_via_sandpile(p)


def test_minrec_refuses_an_unstable_configuration_before_recurrence(capsys):
    for c in ((5, 0, 0), (0, 0, 3), (2, 2), (0, 0, 0, 9)):  # (0, 0, 3) is neither stable nor recurrent
        for reduce in (minrec, minrec_classical, minrec_trace, minrec_classical_trace):
            with pytest.raises(NotStable, match=rf"^{re.escape(str(c))} is not stable$"):
                reduce(c)
    assert cli.main(["sandpile", "minrec", "-c", "0,0"]) == 2
    assert capsys.readouterr().err == "error: (0, 0) is not recurrent\n"
    assert cli.main(["sandpile", "minrec", "-c", "5,0,0"]) == 2
    assert capsys.readouterr().err == "error: (5, 0, 0) is not stable\n"


def test_topple_checks_then_runs_the_kernel():
    for bad in (True, 0, 4, -1, 1.0):
        with pytest.raises(IndexError, match=r"^vertex must be an int in \[1, 3\], got "):
            topple((3, 0, 0), bad)
    with pytest.raises(VertexStable, match=r"^vertex 2 holds 0 < 3 grains$"):
        topple((3, 0, 0), 2)
    for bad in ((), (3, -1, 0), (3, True, 0), (3.0, 0, 0)):
        with pytest.raises(ValueError):
            topple(bad, 1)
    assert topple([3, 0, 0], 1) == (0, 1, 1)  # any iterable
    rng = random.Random(20261020)
    for _ in range(300):
        n = rng.randint(1, 9)
        cfg = tuple(rng.randint(0, 3 * n) for _ in range(n))
        for v in range(1, n + 1):
            if cfg[v - 1] >= n:
                assert topple(cfg, v) == _topple(cfg, v)
            else:
                with pytest.raises(VertexStable):
                    topple(cfg, v)


def test_abelian_property_randomised():
    rng = random.Random(20260810)
    for n in range(2, 7):
        for _ in range(40):
            while True:
                p = tuple(rng.randint(1, n) for _ in range(n))
                if is_parking_function(p):
                    break
            start = tuple(n - x + 1 for x in p)
            reference, _ = stabilise(start)
            for _ in range(3):
                cfg = start
                while not is_stable(cfg):
                    unstable = [v for v in range(1, n + 1) if cfg[v - 1] >= n]
                    cfg = topple(cfg, rng.choice(unstable))
                assert cfg == reference


def test_config_parse_format():
    assert parse_config("11,9,5") == (11, 9, 5)
    assert format_config((0, 3, 2)) == "0,3,2" == parking.format_preference((0, 3, 2))
    with pytest.raises(ValueError):
        parse_config("1,-2")
    with pytest.raises(ValueError):
        parse_config("")


def test_classical_trace_variant_targets_later_duplicate():
    _result, steps = minrec_classical_trace((1, 3, 3, 2))
    assert all(s.target == s.j for s in steps)

"""Cross-module contracts: the package namespace re-exports each library
module's `__all__`, each public call validates its input exactly once, and a
bad input raises the same exception type and message whichever public
function receives it."""

from __future__ import annotations

from enum import IntEnum

import pytest

import mvparking
from mvparking import motzkin, parking, perms, sandpile, subgraphs, verify
from mvparking.motzkin import decreasing_fibre, decreasing_representative, is_motzkin_pf
from mvparking.parking import NotAParkingFunction, displacement_mvp, parse_preference
from mvparking.perms import dec, inversion_graph_acyclic, parse_permutation
from mvparking.sandpile import (
    NotMinimalRecurrent,
    NotRecurrent,
    NotStable,
    canonical_toppling,
    is_recurrent,
    minrec,
    minrec_classical,
    minrec_classical_trace,
    minrec_trace,
    mvp_outcome_via_sandpile,
    parse_config,
)
from mvparking.subgraphs import (
    NotASubgraph,
    bounds,
    check_one_subgraph,
    is_valid,
    pf_to_subgraph,
    subgraph_to_pf,
    valid_subgraphs,
)

LIBRARY_MODULES = (parking, perms, subgraphs, motzkin, sandpile)
VALIDATORS = [(parking, "check_preference"), (subgraphs, "check_preference"),
              (subgraphs, "check_permutation"), (perms, "check_permutation"),
              (motzkin, "check_preference"), (sandpile, "check_preference"),
              (sandpile, "check_config")]


class Small(IntEnum):
    """An int subclass: its members equal ints but are not exact ints."""

    ONE = 1
    TWO = 2


PREF = (3, 1, 1, 2)
ARCS = frozenset({(1, 4)})  # pf_to_subgraph(PREF), on its outcome 3412
CONFIG = (11, 9, 5, 8, 1, 9, 4, 8, 4, 9, 10, 0)


def test_package_reexports_each_library_module_all():
    declared = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert mvparking.__all__ == declared and len(set(declared)) == len(declared)
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(mvparking, name) is getattr(module, name), name
    from mvparking import fibre_size, outcome_distribution
    assert fibre_size((3, 1, 2)) == outcome_distribution(3)[(3, 1, 2)] == 4


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) in `targets`; returns the list their calls append to."""
    calls = []
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=f"{module.__name__}.{name}"):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("fn, args", [
    (mvp_outcome_via_sandpile, (PREF,)),
    (displacement_mvp, (PREF,)),
    (pf_to_subgraph, (PREF,)),
    (subgraph_to_pf, (ARCS, (3, 4, 1, 2))),
    (is_valid, (ARCS, (3, 4, 1, 2))),
    (minrec, (CONFIG,)),
    (minrec_trace, (CONFIG,)),
    (minrec_classical, (CONFIG,)),
    (minrec_classical_trace, (CONFIG,)),
    (canonical_toppling, ((2, 4, 3, 0, 1),)),
    (is_recurrent, (CONFIG,)),
    (bounds, (dec(6),)),
    (valid_subgraphs, ((3, 4, 1, 2),)),
    (decreasing_representative, ((1, 1, 3, 3),)),
    (is_motzkin_pf, (PREF,)),
    (inversion_graph_acyclic, ((2, 1, 4, 3),)),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_each_public_call_validates_its_input_once(monkeypatch, fn, args):
    calls = _count_calls(monkeypatch, VALIDATORS)
    fn(*args)
    assert len(calls) == 1, calls


def test_internal_inputs_are_built_once_and_not_rechecked(monkeypatch):
    calls = _count_calls(monkeypatch, [*VALIDATORS, (subgraphs, "left_inversion_lists"),
                                       (subgraphs, "_check_one_subgraph")])
    bounds(dec(6))
    assert calls == ["mvparking.subgraphs.check_permutation",
                     "mvparking.subgraphs.left_inversion_lists"]
    calls.clear()
    assert len(decreasing_fibre(6)) == 51 and not calls  # n is checked by dec(n)
    assert decreasing_representative((1, 1, 3, 3)) == (3, 3, 1, 1)
    assert calls == ["mvparking.motzkin.check_preference"]


@pytest.mark.parametrize("suite, preference_checks", [
    ("thm-2.5", 0), ("prop-2.9", 1 + 3 + 16), ("thm-3.2", 0), ("thm-5.5", 0)])
def test_verify_suites_do_not_recheck_the_cases_they_build(monkeypatch, suite, preference_checks):
    """At n = 3 no suite re-validates a vector it scanned, a configuration or
    an arc set it built; prop-2.9 checks each of the 20 parking functions only
    inside `displacement_mvp`, the public function it tests.  A permutation is
    checked at most once per word of S_1..S_3."""
    calls = _count_calls(monkeypatch, [*VALIDATORS, (subgraphs, "_check_one_subgraph")])
    assert verify.run_suite(suite, n=3).passed
    assert "mvparking.subgraphs._check_one_subgraph" not in calls
    assert calls.count("mvparking.parking.check_preference") == preference_checks
    assert not {"mvparking.subgraphs.check_preference", "mvparking.motzkin.check_preference",
                "mvparking.sandpile.check_preference", "mvparking.sandpile.check_config"} & {*calls}
    assert sum(name.endswith(".check_permutation") for name in calls) <= 1 + 2 + 6


def test_arcs_fixture_is_the_induced_subgraph():
    assert pf_to_subgraph(PREF) == ARCS and subgraph_to_pf(ARCS, (3, 4, 1, 2)) == PREF


PREFERENCE_CALLS = (mvp_outcome_via_sandpile, displacement_mvp, pf_to_subgraph)
BAD_PREFERENCES = [  # (label, preference, exception, message)
    ("empty", (), ValueError, "preference vector must be non-empty"),
    ("out of range", (1, 4, 1), ValueError, "preference entry 4 outside [1, 3]"),
    ("bool entry", (1, True), ValueError, "preference entry True outside [1, 2]"),
    ("int subclass entry", (1, Small.TWO), ValueError,
     "preference entry <Small.TWO: 2> outside [1, 2]"),
    ("float entry", (1, 2.0), ValueError, "preference entry 2.0 outside [1, 2]"),
    ("not parking", (3, 3, 3), NotAParkingFunction, "(3, 3, 3) is not a parking function"),
]

MINREC_CALLS = (minrec, minrec_classical, minrec_trace, minrec_classical_trace)
BAD_CONFIGS = [  # (label, configuration, then (exception, message) for minrec and its
    #               variants, canonical_toppling and is_recurrent; None where it returns)
    ("empty", (), *[(ValueError, "configuration must be non-empty")] * 3),
    ("out of range", (1, -1), *[(ValueError, "grain count -1 is not a non-negative integer")] * 3),
    ("bool entry", (0, True), *[(ValueError, "grain count True is not a non-negative integer")] * 3),
    ("int subclass entry", (0, Small.ONE),
     *[(ValueError, "grain count <Small.ONE: 1> is not a non-negative integer")] * 3),
    ("float entry", (0, 1.0), *[(ValueError, "grain count 1.0 is not a non-negative integer")] * 3),
    ("unstable", (5, 0, 0), (NotStable, "(5, 0, 0) is not stable"),
     (NotMinimalRecurrent, "(5, 0, 0) is not a permutation of 0..2"),
     (NotStable, "(5, 0, 0) is not stable")),
    ("not recurrent", (0, 0, 2), (NotRecurrent, "(0, 0, 2) is not recurrent"),
     (NotMinimalRecurrent, "(0, 0, 2) is not a permutation of 0..2"), None),
    ("not minimal recurrent", (2, 1, 1), None,
     (NotMinimalRecurrent, "(2, 1, 1) is not a permutation of 0..2"), None),
    ("value n before the end", (0, 3, 1), (NotStable, "(0, 3, 1) is not stable"),
     (NotMinimalRecurrent, "(0, 3, 1) is not a permutation of 0..2"),
     (NotStable, "(0, 3, 1) is not stable")),
    ("duplicate before the end", (1, 1, 0), (NotRecurrent, "(1, 1, 0) is not recurrent"),
     (NotMinimalRecurrent, "(1, 1, 0) is not a permutation of 0..2"), None),
]

SUBGRAPH_CALLS = (subgraph_to_pf, is_valid, check_one_subgraph)
BAD_SUBGRAPHS = [  # (label, arcs, permutation, exception, message)
    ("empty", (), (), ValueError, "permutation must be non-empty"),
    ("permutation out of range", [(1, 2)], (1, 3), ValueError,
     "(1, 3) is not a rearrangement of 1..2"),
    ("arc out of range", [(1, 5)], (2, 1), NotASubgraph, "arc (1,5) is not an inversion of (2, 1)"),
    ("bool entry", [(1, True)], (2, 1), ValueError,
     "malformed arc (1, True): need integers 1 <= j < i"),
    ("bool arc source", [(True, 2)], (2, 1), ValueError,
     "malformed arc (True, 2): need integers 1 <= j < i"),
    ("bool permutation entry", [(1, 2)], (2, True), ValueError,
     "(2, True) is not a rearrangement of 1..2"),
    ("float permutation entry", [], (1.0, 2), ValueError,
     "(1.0, 2) is not a rearrangement of 1..2"),
    ("int subclass permutation entry", [], (2, Small.ONE), ValueError,
     "(2, <Small.ONE: 1>) is not a rearrangement of 1..2"),
    ("int subclass arc source", [(Small.ONE, 2)], (2, 1), ValueError,
     "malformed arc (<Small.ONE: 1>, 2): need integers 1 <= j < i"),
    ("float arc target", [(1, 2.0)], (2, 1), ValueError,
     "malformed arc (1, 2.0): need integers 1 <= j < i"),
    ("arc not an inversion", [(1, 2)], (1, 2), NotASubgraph,
     "arc (1,2) is not an inversion of (1, 2)"),
    ("two left-arcs on one vertex", [(1, 3), (2, 3)], (3, 2, 1), NotASubgraph,
     "vertex 3 has two incident left-arcs"),
    ("first of two faulty arcs", [(1, 2), (True, 2)], (1, 2), NotASubgraph,
     "arc (1,2) is not an inversion of (1, 2)"),  # one pass: the first faulty arc met is reported
]

MALFORMED = "malformed arc {}: need integers 1 <= j < i"
BAD_ARCS = [  # (label, call, arguments, message); each raises ValueError
    ("arc beyond n", motzkin.noncross_to_motzkin, ([(1, 5)], 3), "arc (1,5) ends outside [1, 3]"),
    ("arc from 0", motzkin.noncross_to_motzkin, ([(0, 2)], 3), MALFORMED.format((0, 2))),
    ("bool arc source", motzkin.is_noncrossing_matching, ([(True, 2)], 3),
     MALFORMED.format((True, 2))),
    ("bool arc source", motzkin.prime_decomposition, ([(True, 2)], 3), MALFORMED.format((True, 2))),
    ("bool arc source", motzkin.dec_to_split_subgraph, ([(True, 2)], 3),
     MALFORMED.format((True, 2))),
    *[(label, fn, ([arc], 3), MALFORMED.format(arc))
      for label, arc in [("int subclass arc source", (Small.ONE, 2)),
                         ("float arc target", (1, 2.0))]
      for fn in (motzkin.noncross_to_motzkin, motzkin.is_noncrossing_matching,
                 motzkin.prime_decomposition, motzkin.dec_to_split_subgraph)],
    ("step outside the alphabet", motzkin.is_motzkin_path, ("UXDY",),
     "steps ['X', 'Y'] not in alphabet U/H/D"),
    ("empty path", motzkin.path_to_preference, ("",), "Motzkin path must be non-empty"),
    *[("non-str path", fn, (path,), f"a path must be a str of U/H/D steps, got {path!r}")
      for fn, path in [(motzkin.check_path, 5), (motzkin.is_motzkin_path, None),
                       (motzkin.path_to_preference, ["U", "D"])]],
    ("edge beyond n", perms.edges_acyclic, ([(1, 5)], 3), "edge (1,5) has a vertex outside 1..3"),
    ("negative count", motzkin.motzkin_numbers, (-1,), "need an int upto >= 0, got -1"),
]

BAD_SIZES = [  # (label, call, arguments, exception, message): sizes and indices are exact ints
    ("bool size", perms.dec, (True,), ValueError, "size must be a positive int, got True"),
    ("float size", perms.dec, (2.0,), ValueError, "size must be a positive int, got 2.0"),
    ("bool size", perms.bipart, (True, 2), ValueError,
     "need ints m >= 0 and n >= 1, got m=True, n=2"),
    ("float size", perms.bipart, (1, 2.0), ValueError,
     "need ints m >= 0 and n >= 1, got m=1, n=2.0"),
    ("bool size", perms.split_left, (1, True), ValueError,
     "sizes must be positive ints, got m=1, n=True"),
    ("float size", perms.split_left, (2.0, 1), ValueError,
     "sizes must be positive ints, got m=2.0, n=1"),
    ("bool size", perms.split_right, (True, 1), ValueError,
     "sizes must be positive ints, got m=True, n=1"),
    ("float size", perms.split_right, (1, 2.0), ValueError,
     "sizes must be positive ints, got m=1, n=2.0"),
    ("bool size", motzkin.noncrossing_matchings, (True,), ValueError,
     "vertex count must be a non-negative int, got True"),
    ("float size", motzkin.noncrossing_matchings, (2.0,), ValueError,
     "vertex count must be a non-negative int, got 2.0"),
    ("negative size", motzkin.noncrossing_matchings, (-1,), ValueError,
     "vertex count must be a non-negative int, got -1"),
    *[(label, fn, (arcs, n), ValueError, f"vertex count must be a non-negative int, got {n!r}")
      for label, n in [("float size", 2.5), ("bool size", True), ("negative size", -1)]
      for fn, arcs in [(motzkin.noncross_to_motzkin, set()),
                       (motzkin.is_noncrossing_matching, {(1, 2)}),
                       (motzkin.prime_decomposition, set()), (perms.edges_acyclic, set())]],
    ("bool count", motzkin.motzkin_numbers, (True,), ValueError, "need an int upto >= 0, got True"),
    ("float count", motzkin.motzkin_numbers, (2.0,), ValueError, "need an int upto >= 0, got 2.0"),
    ("bool size", motzkin.dec_to_split_subgraph, ((), True), ValueError,
     "need an int n >= 3, got True"),
    ("float size", motzkin.dec_to_split_subgraph, ((), 4.0), ValueError,
     "need an int n >= 3, got 4.0"),
    ("bool vertex", sandpile.topple, ((3, 0), True), IndexError,
     "vertex must be an int in [1, 2], got True"),
    ("float vertex", sandpile.topple, ((3, 0), 1.0), IndexError,
     "vertex must be an int in [1, 2], got 1.0"),
    ("bool position", perms.left_inversions, ((2, 1), True), IndexError,
     "position must be an int in [1, 2], got True"),
    ("float position", perms.left_inversions, ((2, 1), 2.0), IndexError,
     "position must be an int in [1, 2], got 2.0"),
    ("bool n", verify.run_suite, ("thm-2.8", True), ValueError,
     "caps must be ints or None, got n=True, m=None"),
    ("float n", verify.run_suite, ("thm-2.8", 2.0), ValueError,
     "caps must be ints or None, got n=2.0, m=None"),
    ("float m", verify.run_suite, ("thm-4.1", None, 1.5), ValueError,
     "caps must be ints or None, got n=None, m=1.5"),
    ("bool size", subgraphs.outcome_distribution, (True,), ValueError,
     "n must be a positive int, got True"),
    ("float size", subgraphs.outcome_distribution, (2.0,), ValueError,
     "n must be a positive int, got 2.0"),
    ("int subclass size", subgraphs.outcome_distribution, (Small.TWO,), ValueError,
     "n must be a positive int, got <Small.TWO: 2>"),
]


def _bad_calls():
    for label, prefs, exc, message in BAD_PREFERENCES:
        for fn in PREFERENCE_CALLS:
            yield pytest.param(fn, (prefs,), exc, message, id=f"{fn.__name__}-{label}")
    for label, cfg, *errors in BAD_CONFIGS:
        for fns, error in zip((MINREC_CALLS, (canonical_toppling,), (is_recurrent,)), errors):
            for fn in fns if error else ():
                yield pytest.param(fn, (cfg,), *error, id=f"{fn.__name__}-{label}")
    for label, arcs, word, exc, message in BAD_SUBGRAPHS:
        for fn in SUBGRAPH_CALLS:
            yield pytest.param(fn, (arcs, word), exc, message, id=f"{fn.__name__}-{label}")
    for label, fn, args, message in BAD_ARCS:
        yield pytest.param(fn, args, ValueError, message, id=f"{fn.__name__}-{label}")
    for label, fn, args, exc, message in BAD_SIZES:
        yield pytest.param(fn, args, exc, message, id=f"{fn.__name__}-{label}")


@pytest.mark.parametrize("fn, args, exc, message", _bad_calls())
def test_bad_input_raises_the_pinned_error(fn, args, exc, message):
    with pytest.raises(exc) as info:
        fn(*args)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("fn", SUBGRAPH_CALLS, ids=lambda fn: fn.__name__)
def test_each_public_arc_call_checks_its_arcs_once(monkeypatch, fn):
    calls = _count_calls(monkeypatch, [(subgraphs, "_check_one_subgraph")])
    fn(ARCS, (3, 4, 1, 2))
    assert calls == ["mvparking.subgraphs._check_one_subgraph"]


MATCHING_CALLS = (motzkin.noncross_to_motzkin, motzkin.is_noncrossing_matching,
                  motzkin.prime_decomposition, motzkin.dec_to_split_subgraph)


@pytest.mark.parametrize("fn", MATCHING_CALLS, ids=lambda fn: fn.__name__)
def test_each_public_matching_call_checks_its_arcs_once(monkeypatch, fn):
    calls = _count_calls(monkeypatch, [(motzkin, "_check_arc_pairs")])
    fn({(1, 2), (3, 4)}, 4)  # carries the arc (n-1, n), so dec_to_split_subgraph rewires it
    assert calls == ["mvparking.motzkin._check_arc_pairs"]


def test_thm_6_3_checks_each_matching_it_carries_once(monkeypatch):
    """One arc check per `dec_to_split_subgraph` call: 3,558 at n = 10."""
    calls = _count_calls(monkeypatch, [(motzkin, "_check_arc_pairs"),
                                       (verify, "dec_to_split_subgraph")])
    result = verify.run_suite("thm-6.3", n=10)
    assert result.passed and result.checked == 3558
    assert calls.count("mvparking.motzkin._check_arc_pairs") == 3558
    assert calls.count("mvparking.verify.dec_to_split_subgraph") == 3558


def test_bad_inputs_that_are_answers_not_errors():
    assert is_recurrent((0, 0, 2)) is False
    assert is_recurrent((2, 1, 1)) is True
    assert minrec((2, 1, 1)) == (2, 0, 1)
    assert minrec_classical((2, 1, 1)) == (2, 1, 0)
    assert [motzkin.motzkin_numbers(upto) for upto in range(3)] == [[1], [1, 1], [1, 1, 2]]
    assert motzkin.is_noncrossing_matching([(1, 5)], 3) is False


@pytest.mark.parametrize("parse, text, message", [
    (parse_preference, "3,0,1", "cannot parse preference '3,0,1': preference entry 0 outside [1, 3]"),
    (parse_preference, "", "cannot parse preference '': preference vector must be non-empty"),
    (parse_preference, "3a1", "cannot parse preference '3a1': invalid literal for int() with base 10: 'a'"),
    (parse_preference, " 3,0,1 ", "cannot parse preference '3,0,1': preference entry 0 outside [1, 3]"),
    (parse_permutation, "3411",
     "cannot parse permutation '3411': (3, 4, 1, 1) is not a rearrangement of 1..4"),
    (parse_permutation, "", "cannot parse permutation '': permutation must be non-empty"),
    (parse_permutation, "3a1", "cannot parse permutation '3a1': invalid literal for int() with base 10: 'a'"),
    (parse_permutation, " 3411 ",
     "cannot parse permutation '3411': (3, 4, 1, 1) is not a rearrangement of 1..4"),
    (parse_permutation, "10", "cannot parse permutation '10': (1, 0) is not a rearrangement of 1..2"),
    (parse_config, "1,-2", "cannot parse configuration '1,-2': grain count -2 is not a non-negative integer"),
    (parse_config, "", "cannot parse configuration '': invalid literal for int() with base 10: ''"),
    (parse_config, "1,x", "cannot parse configuration '1,x': invalid literal for int() with base 10: 'x'"),
    (parse_config, " 1,-2 ",
     "cannot parse configuration '1,-2': grain count -2 is not a non-negative integer"),
])
def test_parsers_quote_the_stripped_text_and_the_reason(parse, text, message):
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


def test_a_configuration_is_not_split_into_digits():
    """A grain count can exceed 9, so only a permutation or preference reads "12" as digits."""
    assert parse_config("12") == (12,)
    assert parse_permutation("12") == (1, 2) and parse_preference("12") == (1, 2)

"""Exhaustive property suites behind the `verify` CLI command.

Each suite generates a family of inputs (all permutations, all parking functions, all
subgraphs, ...) up to a size cap and checks each case as it is generated against an
independent route.  Fibre sizes come from `fibre_size`; thm-2.8 takes them from its run
counter, one for S_1..S_n, thm-4.1 counts the `fibre_via_subgraphs` listing, and fibre-size
compares all three routes.  A suite returns the cases checked with what was checked, or
raises `_Counterexample` at the first failing case; `run_suite` turns either into a
`SuiteResult`.  `SUITES` declares each suite's cap (`n` or `m`), its default and the
CLI's guard.

A suite builds its own cases, so it calls the private kernels behind the
public functions on them and does not validate them again: a public
function is one input check followed by its kernel.  The `parking` walk
simulates each prefix of the parking functions once and yields each with
its MVP outcome.  Public functions stay where a suite tests them as such.
"""

from __future__ import annotations

import random
from itertools import chain, permutations, product
from typing import NamedTuple

from .motzkin import (
    _popularity_path,
    dec_to_split_subgraph,
    is_motzkin_path,
    motzkin_numbers,
    noncrossing_matchings,
)
from .parking import (
    _mvp,
    _parking_functions,
    displacement_mvp,
    format_preference,
    is_parking_function,
)
from .perms import (
    bipart,
    dec,
    edges_acyclic,
    format_permutation,
    inversion_graph_acyclic,
    inversions,
    split_left,
)
from .sandpile import _canonical_toppling, _minrec, _topple, stabilise
from .subgraphs import (
    DISTRIBUTION_CAP,
    SizeCapExceeded,
    _induced_arcs,
    _induced_pf,
    _is_hs,
    _is_p2_free,
    _run_counter,
    _unpark,
    count_one_subgraphs,
    enumerate_one_subgraphs,
    fibre_size,
    fibre_via_subgraphs,
    format_arcs,
    hs_count,
    outcome_distribution,
    p2_free_count,
)

__all__ = ["SuiteResult", "SUITES", "SUITE_NAMES", "check_caps", "run_suite", "run_suites"]


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    checked: int
    detail: str
    counterexample: str | None = None

    def summary(self) -> str:
        line = f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.checked} cases; {self.detail})"
        if self.counterexample:
            line += f"\n  counterexample: {self.counterexample}"
        return line


class _Counterexample(Exception):
    """Raised by a suite at its first failing case, with the arguments
    (cases checked so far, what was checked, the counterexample)."""


def _pfs(n_cap: int):
    """Each parking function of size 1..n_cap with its MVP outcome, size by size."""
    return chain.from_iterable(map(_parking_functions, range(1, n_cap + 1)))


def _perms(n_cap: int):
    """Each permutation in S_1..S_n_cap, size by size, each S_n lexicographic."""
    return chain.from_iterable(permutations(range(1, n + 1)) for n in range(1, n_cap + 1))


def _suite_thm_2_5(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    for checked, (p, word) in enumerate(_pfs(n_cap), start=1):
        back = _induced_pf(_induced_arcs(p, word), word)
        if back != p:
            raise _Counterexample(
                checked, "round-trip through the subgraph map",
                f"p={format_preference(p)} came back as {format_preference(back)}")
    inj_cap = min(n_cap, 6)  # sum of subgraph counts over S_7 is already huge
    for word in _perms(inj_cap):
        images = [_induced_pf(s, word) for s in enumerate_one_subgraphs(word)]
        checked += len(images)
        if len(set(images)) != len(images):
            raise _Counterexample(checked, "injectivity over all 1-subgraphs",
                                  f"pi={format_permutation(word)} has colliding images")
    return checked, (
        f"round-trip over all parking functions (n<={n_cap}) "
        f"and injectivity over all 1-subgraphs (n<={inj_cap})")


def _suite_thm_2_8(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    count = _run_counter(by_pattern=False)  # sub-runs of S_1..S_n recur raw
    for checked, word in enumerate(_perms(n_cap), start=1):
        by_pattern = inversion_graph_acyclic(word)
        by_search = edges_acyclic(inversions(word), len(word))
        all_valid = count(word) == count_one_subgraphs(word)
        if not (by_pattern == by_search == all_valid):
            raise _Counterexample(
                checked, "acyclicity (patterns vs union-find) vs all-subgraphs-valid",
                f"pi={format_permutation(word)}: patterns={by_pattern} "
                f"search={by_search} all_valid={all_valid}")
    return checked, (
        f"all permutations with n<={n_cap}: acyclic <=> 321/3412-avoiding <=> "
        "every 1-subgraph valid, with the product formula when acyclic")


def _suite_prop_2_9(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    for checked, (p, word) in enumerate(_pfs(n_cap), start=1):
        via_arcs = sum(i - j for j, i in _induced_arcs(p, word))
        if displacement_mvp(p) != via_arcs:
            raise _Counterexample(checked, "displacement equals total arc length",
                                  f"p={format_preference(p)}")
    return checked, f"displacement identity over all parking functions with n<={n_cap}"


def _suite_prop_2_10(n_cap: int, seed: int) -> tuple[int, str]:
    checked, detail = 0, f"valid implies P2-free, all 1-subgraphs of all permutations, n<={n_cap}"
    for word in _perms(n_cap):
        valid = {_induced_arcs(p, word) for p in _unpark(word)}
        for sub in enumerate_one_subgraphs(word):
            checked += 1
            if sub in valid and not _is_p2_free(sub):
                raise _Counterexample(checked, detail,
                                      f"pi={format_permutation(word)} S={{{format_arcs(sub)}}}")
    return checked, detail


def _suite_prop_2_11(n_cap: int, seed: int) -> tuple[int, str]:
    checked, detail = 0, f"HS implies valid, all 1-subgraphs of all permutations, n<={n_cap}"
    for word in _perms(n_cap):
        valid = {_induced_arcs(p, word) for p in _unpark(word)}
        for sub in enumerate_one_subgraphs(word):
            checked += 1
            if _is_hs(sub) and sub not in valid:
                raise _Counterexample(checked, detail,
                                      f"pi={format_permutation(word)} S={{{format_arcs(sub)}}}")
    return checked, detail


def _suite_thm_3_2(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    for n in range(1, n_cap + 1):
        walk = _parking_functions(n)  # lexicographic, as `product` is: p parks iff it is next
        pf = next(walk, None)
        for p in product(range(1, n + 1), repeat=n):
            checked += 1
            if parks := pf is not None and p == pf[0]:
                pf = next(walk, None)
            path = _popularity_path(p)
            if (parks and max(map(p.count, p)) <= 2) != is_motzkin_path(path):
                raise _Counterexample(
                    checked, "two-cars-per-spot parking functions <=> Motzkin popularity path",
                    f"p={format_preference(p)} path={path}")
    return checked, f"all preference vectors with n<={n_cap}: membership matches the path test"


def _count_valid(subgraphs, word, checked, detail) -> tuple[int, int, int]:
    """Check each arc set as it streams: its induced preference must induce it back on
    `word`, so it is a 1-subgraph, and park to `word`.  Returns the number of arc sets,
    of distinct preferences (held as bytes) and `fibre_size(word)`."""
    prefs, cases = set(), 0
    for arcs in subgraphs:
        pref = _induced_pf(arcs, word)
        cases += 1
        if _induced_arcs(pref, word) != arcs or _mvp(pref) != word:
            raise _Counterexample(checked + cases, detail,
                                  f"pi={format_permutation(word)} S={{{format_arcs(arcs)}}}")
        prefs.add(bytes(pref))
    return cases, len(prefs), fibre_size(word)


def _suite_thm_3_8(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    motzkin = motzkin_numbers(max(n_cap, 0))
    detail = "valid decreasing subgraphs = non-crossing matchings"
    for n in range(1, n_cap + 1):
        counts = _count_valid(noncrossing_matchings(n), dec(n), checked, detail)
        checked += counts[0]
        if counts != (motzkin[n],) * 3:
            raise _Counterexample(checked, detail, "n={}: |noncross|={} distinct={} fibre_size={} "
                                  "motzkin={}".format(n, *counts, motzkin[n]))
    return checked, f"set equality and Motzkin counts for n<={n_cap}"


def _suite_thm_4_1(m_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    for m in range(0, m_cap + 1):
        checked += 1
        got = len(fibre_via_subgraphs(bipart(m, 2)))
        want = m + 1 + ((m + 1) ** 2) // 2
        if got != want:
            raise _Counterexample(checked, "closed formula for the bipartite fibre",
                                  f"m={m}: enumerated {got}, formula {want}")
    return checked, f"enumerated fibre equals m+1+floor((m+1)^2/2) for m=0..{m_cap}"


def _suite_thm_5_5(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    for checked, (p, word) in enumerate(_pfs(n_cap), start=1):
        cfg = tuple(map(len(p).__sub__, p))
        if _canonical_toppling(_minrec(cfg, classical=False)) != word:
            raise _Counterexample(checked, "sandpile route vs direct MVP outcome",
                                  f"p={format_preference(p)}")
        via_classical = _canonical_toppling(_minrec(cfg, classical=True))
        if via_classical != _mvp(p, classical=True):
            raise _Counterexample(checked, "classical variant vs direct outcome",
                                  f"p={format_preference(p)}")
    return checked, (
        f"both outcome maps recovered through the sandpile for every parking "
        f"function with n<={n_cap}")


def _suite_thm_6_3(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    for n in range(3, n_cap + 1):
        images = (dec_to_split_subgraph(s, n) for s in noncrossing_matchings(n))
        counts = _count_valid(images, split_left(2, n - 2), checked, "each image is valid")
        checked += counts[0]
        if len(set(counts)) > 1:
            raise _Counterexample(checked, "the images are distinct and fill the split fibre",
                                  "n={}: images={} distinct={} fibre_size={}".format(n, *counts))
    return checked, f"bijection onto the split permutation's valid subgraphs for n<={n_cap}"


def _suite_fibre_size(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    for n in range(1, n_cap + 1):
        forward = outcome_distribution(n)
        total = 0
        for word in permutations(range(1, n + 1)):
            checked += 1
            counted, listed = fibre_size(word), len(fibre_via_subgraphs(word))
            if not counted == forward[word] == listed:
                raise _Counterexample(
                    checked, "run-recursion count vs whole-S_n forward DP vs backward listing",
                    f"pi={format_permutation(word)}: fibre_size={counted} "
                    f"outcome_distribution={forward[word]} listed={listed}")
            total += counted
        if total != (n + 1) ** (n - 1):
            raise _Counterexample(checked, "fibre sizes sum to (n+1)^(n-1)",
                                  f"n={n}: sum {total}, want {(n + 1) ** (n - 1)}")
    return checked, (
        f"fibre_size equals outcome_distribution and the listed fibre's size on every "
        f"permutation with n<={n_cap}, the sizes summing to (n+1)^(n-1)")


def _suite_subgraph_counts(n_cap: int, seed: int) -> tuple[int, str]:
    checked = 0
    for checked, word in enumerate(_perms(n_cap), start=1):
        subs = list(enumerate_one_subgraphs(word))
        filtered = (sum(map(_is_p2_free, subs)), sum(map(_is_hs, subs)))
        counted = (p2_free_count(word), hs_count(word))
        if counted != filtered:
            raise _Counterexample(
                checked, "P2-free and HS dynamic programs vs filtered 1-subgraphs",
                f"pi={format_permutation(word)}: p2_free_count={counted[0]} "
                f"filtered={filtered[0]}, hs_count={counted[1]} filtered={filtered[1]}")
    return checked, (
        f"p2_free_count and hs_count equal the P2-free and HS 1-subgraphs counted "
        f"one by one, on every permutation with n<={n_cap}")


_ABELIAN_CASES = 200  # random recurrent configurations per n


def _suite_abelian(n_cap: int, seed: int) -> tuple[int, str]:
    rng = random.Random(seed)
    checked = 0
    for n in range(1, n_cap + 1):
        for _ in range(_ABELIAN_CASES):
            while True:
                p = tuple(rng.randint(1, n) for _ in range(n))
                if is_parking_function(p):
                    break
            start = tuple(n - x + 1 for x in p)  # recurrent complement plus one everywhere
            reference, _seq = stabilise(start)
            for _trial in range(3):
                cfg = start
                while True:
                    unstable = [v for v, x in enumerate(cfg, start=1) if x >= n]
                    if not unstable:
                        break
                    cfg = _topple(cfg, rng.choice(unstable))
                checked += 1
                if cfg != reference:
                    raise _Counterexample(checked, "stabilisation is order-independent",
                                          f"start={start}: {cfg} != {reference}")
    return checked, (
        f"randomised toppling order, {_ABELIAN_CASES} random recurrent configurations "
        f"per n<={n_cap}, 3 trials each (seed={seed})")


# Per suite: (the suite, the cap it reads, its default, its guard).  The guard is the largest cap
# the CLI runs without --force: the largest measured to run in at most about 1.5 minutes in one
# fresh process on a 2-vCPU VM (CHANGES), and in under 1 GiB.  One step more multiplies the
# parking-function suites by about 20 (thm-2.5 --n 9 walks 10^8 parking functions), the subgraph
# suites by 36, and the matching suites by about 3 (rows).  The library itself is unguarded.
SUITES = {
    "thm-2.5": (_suite_thm_2_5, "n", 6, 8),
    "thm-2.8": (_suite_thm_2_8, "n", 6, 8),
    "prop-2.9": (_suite_prop_2_9, "n", 6, 8),
    "prop-2.10": (_suite_prop_2_10, "n", 6, 7),
    "prop-2.11": (_suite_prop_2_11, "n", 6, 7),
    "thm-3.2": (_suite_thm_3_2, "n", 6, 7),
    "thm-3.8": (_suite_thm_3_8, "n", 8, 17),  # n=17: 62 s at 255 MiB
    "thm-4.1": (_suite_thm_4_1, "m", 8, 130),
    "thm-5.5": (_suite_thm_5_5, "n", 6, 7),
    "thm-6.3": (_suite_thm_6_3, "n", 8, 16),  # n=16: 42 s at 117 MiB; n=17: 118 s
    "abelian": (_suite_abelian, "n", 8, 75),
    "fibre-size": (_suite_fibre_size, "n", 7, 8),
    "subgraph-counts": (_suite_subgraph_counts, "n", 6, 7),
}

SUITE_NAMES = list(SUITES)


def check_caps(names: list[str], n: int | None = None) -> None:
    """Refuse, before any suite runs, a cap that no override lifts: fibre-size
    above `DISTRIBUTION_CAP`, where the n below the cap alone run for minutes."""
    if n is not None and n > DISTRIBUTION_CAP and "fibre-size" in names:
        raise SizeCapExceeded(f"fibre-size n={n} above outcome distribution cap {DISTRIBUTION_CAP}")


def run_suite(name: str, n: int | None = None, m: int | None = None, seed: int = 0) -> SuiteResult:
    """Run one named suite, overriding the one of its `n` and `m` caps that
    it reads; one that checks no case fails, since it proves nothing."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if any(cap is not None and type(cap) is not int for cap in (n, m)):
        raise ValueError(f"caps must be ints or None, got n={n!r}, m={m!r}")
    check_caps([name], n)
    fn, flag, default, _guard = SUITES[name]
    cap = n if flag == "n" else m
    try:
        checked, detail = fn(default if cap is None else cap, seed)
        counterexample = None
    except _Counterexample as failure:
        checked, detail, counterexample = failure.args
    if checked == 0:
        detail = f"caps leave no case to check; {detail}"
    return SuiteResult(name, counterexample is None and checked > 0, checked, detail, counterexample)


def run_suites(names: list[str], n: int | None = None, m: int | None = None,
               seed: int = 0) -> list[SuiteResult]:
    return [run_suite(name, n=n, m=m, seed=seed) for name in names]

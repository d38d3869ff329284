"""1-subgraphs of inversion graphs and the outcome-fibre correspondence.

A 1-subgraph of the inversion graph of pi is a set of inversion arcs with
at most one left-arc (j, i) per vertex i.  Each parking function whose MVP
outcome is pi induces such a subgraph (arc (j, i) when the car that ends up
in spot i originally preferred spot j), and conversely every 1-subgraph
induces a parking function.  The fibre of pi under the MVP outcome map is
exactly the set of parking functions induced by the *valid* subgraphs: the
ones whose induced preference parks back to pi.

Two cheap structural filters bracket validity: a valid subgraph can contain
no directed two-arc path i -> j -> k (P2-free, necessary), and any subgraph
whose arcs are pairwise horizontally disjoint, endpoints included, is valid
(HS, sufficient).  The P2-free filter is what makes exhaustive fibre
enumeration feasible: for the decreasing permutation it cuts the candidate
count from n! to the n-th Bell number.  Fibre sizes alone are counted
without walking subgraphs, by `fibre_size`; the walks stay as its oracles.
"""

from __future__ import annotations

from itertools import count, product
from math import prod
from typing import Iterable, Iterator, NamedTuple

from .parking import _mvp, check_preference, outcome_mvp
from .perms import check_permutation, left_inversion_lists

__all__ = [
    "BRUTE_FORCE_CAP",
    "FibreBounds",
    "NotASubgraph",
    "SizeCapExceeded",
    "bounds",
    "check_one_subgraph",
    "count_one_subgraphs",
    "enumerate_one_subgraphs",
    "fibre_brute",
    "fibre_size",
    "fibre_via_subgraphs",
    "format_arcs",
    "hs_count",
    "is_hs",
    "is_p2_free",
    "is_valid",
    "p2_free_count",
    "parse_arcs",
    "pf_to_subgraph",
    "subgraph_to_pf",
    "valid_subgraphs",
]

BRUTE_FORCE_CAP = 7


class NotASubgraph(ValueError):
    """The arc set is not a 1-subgraph of the given inversion graph."""


class SizeCapExceeded(ValueError):
    """Brute-force enumeration refused: n is above the configured cap."""


def _check_arc_pairs(arcs) -> frozenset[tuple[int, int]]:
    out = set()
    for arc in arcs:
        j, i = arc
        if not (isinstance(j, int) and isinstance(i, int) and 1 <= j < i):
            raise ValueError(f"malformed arc {arc!r}: need integers 1 <= j < i")
        out.add((j, i))
    return frozenset(out)


def check_one_subgraph(arcs: Iterable[tuple[int, int]], pi: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Validate `arcs` as a 1-subgraph of the inversion graph of pi."""
    word = check_permutation(pi)
    n = len(word)
    out = _check_arc_pairs(arcs)
    targets = set()
    for j, i in out:
        if i > n or word[j - 1] <= word[i - 1]:
            raise NotASubgraph(f"arc ({j},{i}) is not an inversion of {word}")
        if i in targets:
            raise NotASubgraph(f"vertex {i} has two incident left-arcs")
        targets.add(i)
    return out


def enumerate_one_subgraphs(pi: Iterable[int]) -> Iterator[frozenset[tuple[int, int]]]:
    """Yield every 1-subgraph of the inversion graph of pi exactly once.

    Mixed-radix walk: for each vertex i = 1..n pick "no left-arc" (None) or
    one arc (j, i) with j ascending, vertex 1 varying slowest.
    """
    word = check_permutation(pi)
    linv = left_inversion_lists(word)
    radices = [[None, *((j, i) for j in linv[i])] for i in range(1, len(word) + 1)]
    return (frozenset(filter(None, pick)) for pick in product(*radices))


def count_one_subgraphs(pi: Iterable[int]) -> int:
    """Product formula: prod over i of (1 + #left-inversions at i)."""
    word = check_permutation(pi)
    return prod(1 + len(s) for s in left_inversion_lists(word)[1:])


def pf_to_subgraph(p: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Subgraph induced by a parking function on its own MVP outcome.

    Arc (j, i) whenever the car parked in spot i originally preferred j < i.
    """
    prefs = check_preference(p)
    word = outcome_mvp(prefs).outcome
    arcs = set()
    for i, car in enumerate(word, start=1):
        j = prefs[car - 1]
        if j != i:
            arcs.add((j, i))
    return frozenset(arcs)


def subgraph_to_pf(arcs: Iterable[tuple[int, int]], pi: Iterable[int]) -> tuple[int, ...]:
    """Preference induced by a 1-subgraph: the car ending in spot i prefers
    the source of its left-arc, or i itself when there is none."""
    word = check_permutation(pi)
    sub = check_one_subgraph(arcs, word)
    n = len(word)
    prefs = [0] * n
    left = {i: j for j, i in sub}
    for i in range(1, n + 1):
        prefs[word[i - 1] - 1] = left.get(i, i)
    return tuple(prefs)


def is_valid(arcs: Iterable[tuple[int, int]], pi: Iterable[int]) -> bool:
    """True iff the induced preference parks back to pi under the MVP rule.

    Resolved by full simulation; a preference that fails to park counts as
    invalid rather than raising.
    """
    word = check_permutation(pi)
    prefs = subgraph_to_pf(arcs, word)
    return _mvp(prefs, len(word)) == [0, *word]


def is_p2_free(arcs: Iterable[tuple[int, int]]) -> bool:
    """No directed path of two arcs: never (i, j) and (j, k) together."""
    pairs = _check_arc_pairs(arcs)
    sources = {j for j, _ in pairs}
    targets = {i for _, i in pairs}
    return sources.isdisjoint(targets)


def is_hs(arcs: Iterable[tuple[int, int]]) -> bool:
    """Horizontally separated: arcs pairwise disjoint in column span,
    endpoints included."""
    pairs = sorted(_check_arc_pairs(arcs))
    for a in range(len(pairs)):
        ja, ia = pairs[a]
        for b in range(a + 1, len(pairs)):
            jb, ib = pairs[b]
            if not (ia < jb or ib < ja):
                return False
    return True


def _walk(word, prune_p2, leaf):
    """DFS over the 1-subgraph choice tree of `word`, calling
    leaf(prefs, chosen, hs) at every leaf, in enumerate_one_subgraphs order.

    `prefs` (the induced preference) and `chosen` (the arcs) are reused
    buffers; leaf must copy what it keeps.  Targets ascend, so a new arc
    (j, i) keeps the subgraph horizontally separated iff j > `last`, the
    last target; `last` is n + 1 once it is not HS.  With prune_p2, branches
    creating a directed two-arc path are skipped, which is sound because no
    such subgraph is valid, or HS.
    """
    n = len(word)
    linv = left_inversion_lists(word)
    prefs = [0] * n
    chosen: list[tuple[int, int]] = []
    has_left = [False] * (n + 1)

    def walk(i: int, last: int) -> None:
        if i > n:
            leaf(prefs, chosen, last <= n)
            return
        car = word[i - 1]
        prefs[car - 1] = i
        walk(i + 1, last)
        for j in linv[i]:
            if prune_p2 and has_left[j]:
                continue
            prefs[car - 1] = j
            chosen.append((j, i))
            has_left[i] = True
            walk(i + 1, i if j > last else n + 1)
            chosen.pop()
        has_left[i] = False

    walk(1, 0)


def _valid_leaves(word, prune_p2, keep):
    """keep(prefs, chosen) of every leaf whose induced preference parks
    back to `word`, in walk order."""
    n = len(word)
    target = [0, *word]
    found = []

    def leaf(prefs, chosen, _hs):
        if _mvp(prefs, n) == target:
            found.append(keep(prefs, chosen))

    _walk(word, prune_p2, leaf)
    return found


def fibre_via_subgraphs(pi: Iterable[int], prune_p2: bool = True) -> list[tuple[int, ...]]:
    """The MVP outcome fibre of pi, enumerated through valid 1-subgraphs.

    Returned lexicographically sorted.
    """
    word = check_permutation(pi)
    return sorted(_valid_leaves(word, prune_p2, lambda prefs, _arcs: tuple(prefs)))


def valid_subgraphs(pi: Iterable[int], prune_p2: bool = True) -> list[frozenset[tuple[int, int]]]:
    """All valid 1-subgraphs of the inversion graph of pi."""
    word = check_permutation(pi)
    return _valid_leaves(word, prune_p2, lambda _prefs, arcs: frozenset(arcs))


def fibre_brute(pi: Iterable[int], cap: int = BRUTE_FORCE_CAP) -> list[tuple[int, ...]]:
    """Independent oracle: scan all n^n preferences and keep the fibre.

    Lexicographically sorted; refuses n above `cap`.
    """
    word = check_permutation(pi)
    n = len(word)
    if n > cap:
        raise SizeCapExceeded(f"n={n} above brute-force cap {cap}")
    target = [0, *word]
    return [
        prefs
        for prefs in product(range(1, n + 1), repeat=n)
        if _mvp(prefs, n) == target
    ]


def fibre_size(pi: Iterable[int]) -> int:
    """Size of the MVP outcome fibre of pi, counted without listing it.

    A dynamic program over the cars in arrival order.  Level c maps each
    occupancy reachable after cars 1..c have parked (padded bytes, spot ->
    car, 0 for empty, as `_mvp` pads) to the number of preference prefixes
    reaching it.  Occupied spots never empty and cars only move right, so a
    branch dies as soon as a car sits right of its final spot, or a spot
    whose final occupant has arrived holds another car.  Hence car c only
    prefers a spot p <= F(c) whose final occupant is c or later, and only
    F(c) itself when another car holds it.  Only two levels are alive; the
    old one is consumed as the new one grows.  Cars are stored as bytes, so
    n is at most 255.
    """
    word = check_permutation(pi)
    n = len(word)
    target = bytes([0, *word])
    final = [0] * (n + 1)
    for spot, car in enumerate(word, start=1):
        final[car] = spot
    level = {bytes(n + 1): 1}
    for car in range(1, n + 1):
        home = final[car]
        choices = [p for p in range(1, home + 1) if target[p] >= car]
        nxt: dict[bytes, int] = {}
        while level:
            state, ways = level.popitem()
            spots = bytearray(state)
            for p in (home,) if spots[home] else choices:
                bumped = spots[p]
                spots[p] = car
                if bumped:
                    t = spots.find(0, p + 1)
                    if 0 < t <= final[bumped] and (t == final[bumped] or target[t] > car):
                        spots[t] = bumped
                        key = bytes(spots)
                        nxt[key] = nxt.get(key, 0) + ways
                        spots[t] = 0
                else:
                    key = bytes(spots)
                    nxt[key] = nxt.get(key, 0) + ways
                spots[p] = bumped
        level = nxt
    return level.get(target, 0)


def p2_free_count(pi: Iterable[int]) -> int:
    """Number of P2-free 1-subgraphs (no simulation, pruned walk)."""
    leaves = count()
    _walk(check_permutation(pi), True, lambda _prefs, _arcs, _hs: next(leaves))
    return next(leaves)


def hs_count(pi: Iterable[int]) -> int:
    """Number of horizontally separated 1-subgraphs (no simulation).

    HS arcs share no endpoint, so every HS subgraph is P2-free and the
    pruned walk reaches all of them.
    """
    leaves = count()
    _walk(check_permutation(pi), True, lambda _prefs, _arcs, hs: hs and next(leaves))
    return next(leaves)


class FibreBounds(NamedTuple):
    product_upper: int
    p2free_count: int
    fibre_size: int
    hs_count: int
    single_arc_lower: int


def bounds(pi: Iterable[int]) -> FibreBounds:
    """The sandwich single_arc <= HS <= fibre <= P2-free <= product for pi.

    One P2-pruned walk counts the P2-free and the HS leaves (every HS
    subgraph is P2-free); fibre_size counts the fibre.
    """
    word = check_permutation(pi)
    p2free = hs_leaves = 0

    def leaf(_prefs, _chosen, hs):
        nonlocal p2free, hs_leaves
        p2free += 1
        hs_leaves += hs

    _walk(word, True, leaf)
    n_inv = sum(len(s) for s in left_inversion_lists(word)[1:])
    return FibreBounds(
        product_upper=count_one_subgraphs(word),
        p2free_count=p2free,
        fibre_size=fibre_size(word),
        hs_count=hs_leaves,
        single_arc_lower=1 + n_inv,
    )


def format_arcs(arcs: Iterable[tuple[int, int]]) -> str:
    """Render as sorted "j-i" tokens joined by commas, e.g. "2-3,2-4"."""
    return ",".join(f"{j}-{i}" for j, i in sorted(_check_arc_pairs(arcs)))


def parse_arcs(text: str) -> frozenset[tuple[int, int]]:
    """Inverse of format_arcs; the empty string is the empty arc set."""
    text = text.strip()
    if not text:
        return frozenset()
    arcs = []
    for token in text.split(","):
        left, sep, right = token.partition("-")
        if not sep:
            raise ValueError(f"malformed arc token {token!r}")
        arcs.append((int(left), int(right)))
    return _check_arc_pairs(arcs)

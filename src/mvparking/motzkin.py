"""Motzkin paths, two-cars-per-spot parking functions, non-crossing matchings.

A lattice path over steps U (up), H (flat), D (down) is a Motzkin path when
no prefix has more D than U steps and the full path balances.  A preference
vector maps to such a path by spot popularity: spot j contributes U when at
least two cars prefer it, H when exactly one does, D when none does.  The
parking functions whose path is Motzkin are exactly those where every spot
is preferred by at most two cars.

Non-crossing matchings on [n] (vertex-disjoint arcs, no two crossing) are
counted by the Motzkin numbers and coincide with the valid 1-subgraphs of
the decreasing permutation's inversion graph, so they parametrise the
decreasing fibre.  They are in bijection with Motzkin paths: each arc opens
with U and closes with D, every other vertex is H, and conversely each D
closes the nearest open U.  Read through the popularity path, this builds
the one rearrangement of a two-cars-per-spot parking function that parks to
the decreasing permutation.  A small arc surgery near the right end carries
the matchings onto the valid subgraphs of the split permutation
n (n-1) ... 3 1 2.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .parking import _mvp, _park, check_preference
from .perms import dec
from .subgraphs import _check_arc_pairs, _induced_pf

__all__ = [
    "NotAMotzkinParkingFunction",
    "NotAMotzkinPath",
    "NotANonCrossingMatching",
    "check_path",
    "dec_to_split_subgraph",
    "decreasing_fibre",
    "decreasing_representative",
    "is_motzkin_pf",
    "is_motzkin_path",
    "is_noncrossing_matching",
    "motzkin_numbers",
    "noncross_to_motzkin",
    "noncrossing_matchings",
    "path_to_preference",
    "preference_path",
    "prime_decomposition",
]


def motzkin_numbers(upto: int) -> list[int]:
    """M_0..M_upto (A001006): M_0 = M_1 = 1, M_n = M_{n-1} + sum_k M_k M_{n-2-k}."""
    if type(upto) is not int or upto < 0:
        raise ValueError(f"need an int upto >= 0, got {upto!r}")
    m = [1, 1][:upto + 1]
    for n in range(2, upto + 1):
        m.append(m[n - 1] + sum(m[k] * m[n - 2 - k] for k in range(n - 1)))
    return m


class NotAMotzkinPath(ValueError):
    """The step string dips below the axis or does not balance."""


class NotAMotzkinParkingFunction(ValueError):
    """Some spot is preferred by three or more cars."""


class NotANonCrossingMatching(ValueError):
    """The arc set has a shared endpoint or a crossing pair."""


_STEPS = frozenset("UHD")


def check_path(path: str) -> str:
    """Validate a step string over the alphabet U/H/D; returns the path."""
    if type(path) is not str:
        raise ValueError(f"a path must be a str of U/H/D steps, got {path!r}")
    if not _STEPS.issuperset(path):
        raise ValueError(f"steps {sorted(set(path) - _STEPS)} not in alphabet U/H/D")
    return path


def preference_path(p: Iterable[int]) -> str:
    """Spot-popularity path: U/H/D per spot preferred by >=2 / 1 / 0 cars."""
    return _popularity_path(check_preference(p))


def _spot_counts(prefs) -> list[int]:
    """count[j] is the number of cars preferring spot j; count[0] is unused."""
    count = [0] * (len(prefs) + 1)
    for s in prefs:
        count[s] += 1
    return count


def _popularity_path(prefs) -> str:
    step = "DH" + "U" * len(prefs)  # step[k]: the step of a spot that k cars prefer
    return "".join(map(step.__getitem__, _spot_counts(prefs)[1:]))


def is_motzkin_path(path: str) -> bool:
    """Prefixwise #U >= #D and overall #U == #D."""
    check_path(path)
    height = 0
    for step in path:
        if step == "U":
            height += 1
        elif step == "D":
            height -= 1
            if height < 0:
                return False
    return height == 0


def path_to_preference(path: str) -> tuple[int, ...]:
    """The unique non-decreasing parking function whose popularity path is
    the given Motzkin path: spot k, once per car that prefers it (two at U,
    one at H, none at D)."""
    if not check_path(path):
        raise ValueError("Motzkin path must be non-empty")
    if not is_motzkin_path(path):
        raise NotAMotzkinPath(f"{path!r} is not a Motzkin path")
    return tuple(k for k, step in enumerate(path, start=1) for _ in range("DHU".index(step)))


def is_motzkin_pf(p: Iterable[int]) -> bool:
    """True iff the parking function has every spot preferred at most twice."""
    return _is_motzkin_pf(check_preference(p))


def _is_motzkin_pf(prefs) -> bool:
    _park(prefs)  # raises NotAParkingFunction
    return max(_spot_counts(prefs)) <= 2


def decreasing_representative(p: Iterable[int]) -> tuple[int, ...]:
    """The unique rearrangement of p whose MVP outcome is decreasing.

    The popularity path of p is a Motzkin path; its matching, read as a
    subgraph of the decreasing permutation, induces a preference in which
    the cars at a U spot and at the D spot closing it both prefer the U
    spot, so it is a rearrangement of p.  Existence and uniqueness are
    guaranteed for two-cars-per-spot parking functions, so a built
    preference that does not park to the decreasing permutation is an
    internal failure.
    """
    prefs = check_preference(p)
    if not _is_motzkin_pf(prefs):
        raise NotAMotzkinParkingFunction(f"some spot preferred >2 times in {prefs}")
    word = dec(len(prefs))
    rep = _induced_pf(_path_matching(_popularity_path(prefs)), word)
    if _mvp(rep) != word:
        raise AssertionError(f"{rep}, built from {prefs}, does not park to {word}")
    return rep


def is_noncrossing_matching(arcs: Iterable[tuple[int, int]], n: int) -> bool:
    """Matching (every vertex on at most one arc) with no crossing pair.

    A matching is non-crossing exactly when reading its Motzkin path back
    gives the same arcs: each D closes the nearest open U, so a crossing
    pair comes back nested.  A well-formed arc ending above n gives False.
    """
    return _is_noncrossing(_check_arc_pairs(arcs), _check_vertex_count(n))


def _check_vertex_count(n: int) -> int:
    if type(n) is not int or n < 0:
        raise ValueError(f"vertex count must be a non-negative int, got {n!r}")
    return n


def _is_noncrossing(pairs, n) -> bool:
    """`is_noncrossing_matching` on checked arcs."""
    ends = [v for arc in pairs for v in arc]
    if len(set(ends)) < len(ends) or max(ends, default=0) > n:
        return False
    return _path_matching(_noncross_path(pairs, n)) == pairs


def noncrossing_matchings(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Yield every non-crossing matching on [n] exactly once.

    Recursive interval splitting: vertex lo is either isolated or matched
    to some k, with independent subproblems inside and outside the arc.
    """
    _check_vertex_count(n)

    def rec(lo: int, hi: int) -> Iterator[frozenset[tuple[int, int]]]:
        if lo > hi:
            yield frozenset()
            return
        yield from rec(lo + 1, hi)
        for k in range(lo + 1, hi + 1):
            arc = frozenset({(lo, k)})
            for inside in rec(lo + 1, k - 1):
                base = arc | inside
                for outside in rec(k + 1, hi):
                    yield base | outside

    return rec(1, n)


def noncross_to_motzkin(arcs: Iterable[tuple[int, int]], n: int) -> str:
    """U at arc openers, D at arc closers, H at isolated vertices."""
    return _noncross_path(_check_arc_pairs(arcs), _check_vertex_count(n))


def _noncross_path(pairs, n) -> str:
    """`noncross_to_motzkin` on checked arcs; still refuses an arc ending above n."""
    steps = ["H"] * n
    for j, i in pairs:
        if i > n:
            raise ValueError(f"arc ({j},{i}) ends outside [1, {n}]")
        steps[j - 1] = "U"
        steps[i - 1] = "D"
    return "".join(steps)


def _path_matching(path: str) -> frozenset[tuple[int, int]]:
    """Inverse of `noncross_to_motzkin` on Motzkin paths: each D closes the
    nearest open U."""
    opened: list[int] = []
    arcs = []
    for k, step in enumerate(path, start=1):
        if step == "U":
            opened.append(k)
        elif step == "D":
            arcs.append((opened.pop(), k))
    return frozenset(arcs)


def prime_decomposition(arcs: Iterable[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """Maximal factors of a non-crossing matching, as intervals partitioning [n].

    Left to right, each interval starts at the first vertex no earlier
    interval covers: an outermost arc spans its interval, and a vertex
    outside every arc is a singleton.
    """
    pairs = _check_arc_pairs(arcs)
    if not _is_noncrossing(pairs, _check_vertex_count(n)):
        raise NotANonCrossingMatching(f"{sorted(pairs)} on [{n}]")
    end = dict(pairs)
    intervals, k = [], 1
    while k <= n:
        intervals.append((k, end.get(k, k)))
        k = intervals[-1][1] + 1
    return intervals


def decreasing_fibre(n: int) -> list[tuple[int, ...]]:
    """The MVP fibre of the decreasing permutation, via non-crossing matchings.

    Lexicographically sorted, so directly comparable with the subgraph and
    brute-force enumerations.
    """
    word = dec(n)
    return sorted(_induced_pf(delta, word) for delta in noncrossing_matchings(n))


def dec_to_split_subgraph(arcs: Iterable[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    """Carry a valid decreasing-permutation subgraph onto the split
    permutation n (n-1) ... 3 1 2.

    The input must be a non-crossing matching on [n] (those are exactly the
    valid subgraphs of the decreasing permutation).  Arc sets without the
    arc (n-1, n) pass through unchanged; otherwise that arc is replaced by
    a pair of arcs out of the closest suitable vertex on the left, shifting
    any arcs nested strictly inside one column to the right.
    """
    if type(n) is not int or n < 3:
        raise ValueError(f"need an int n >= 3, got {n!r}")
    sub = _check_arc_pairs(arcs)
    if not _is_noncrossing(sub, n):
        raise NotANonCrossingMatching(f"{sorted(sub)} on [{n}]")
    last = (n - 1, n)
    if last not in sub:
        return sub
    left = next(((j, i) for j, i in sub if i == n - 2), None)
    if left is None:
        return (sub - {last}) | {(n - 2, n - 1), (n - 2, n)}
    i = left[0]
    nested = {(a, b) for a, b in sub if i < a and b < n - 2}
    shifted = {(a + 1, b + 1) for a, b in nested}
    return (sub - nested - {left, last}) | shifted | {(i, n - 1), (i, n)}

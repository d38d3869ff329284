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
(HS, sufficient).  Dynamic programs over the vertices count both families,
the P2-free one by gaps between later values.

Four independent programs list and count fibres.  `fibre_via_subgraphs`
un-parks the cars n..1 backward from pi, so it only meets occupancies that
still park to pi and has no dead ends.  `fibre_size` counts by a recursion
over occupied runs, since un-parking a car changes only the run it is in,
and keys its memo by each run's rank pattern, so the structured families
repeat few of them: dec(30) counts from 236 patterns.
`outcome_distribution` counts every fibre of S_n in one forward pass from
the empty street, and `fibre_brute` walks every parking function forward;
both park each car by `parking._moves`.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterable, Iterator, NamedTuple

from .parking import _moves, _mvp, _park, _parking_functions, check_preference
from .perms import check_permutation, left_inversion_lists

__all__ = [
    "BRUTE_FORCE_CAP",
    "DISTRIBUTION_CAP",
    "FIBRE_CAP",
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
    "outcome_distribution",
    "p2_free_count",
    "parse_arcs",
    "pf_to_subgraph",
    "subgraph_to_pf",
    "valid_subgraphs",
]

BRUTE_FORCE_CAP = 7
DISTRIBUTION_CAP = 9
FIBRE_CAP = 255  # cars are bytes in the lister's states and the count's runs
_BYTE = tuple(bytes([b]) for b in range(256))
_RANKS = tuple(bytes(range(k)) for k in range(256))  # _RANKS[k]: the ranks of a run of k cars


class NotASubgraph(ValueError):
    """The arc set is not a 1-subgraph of the given inversion graph."""


class SizeCapExceeded(ValueError):
    """Enumeration refused: n is above the configured cap."""


def _check_arc_pairs(arcs) -> frozenset[tuple[int, int]]:
    out = set()
    for arc in arcs:
        j, i = arc
        if type(j) is not int or type(i) is not int or not 1 <= j < i:  # refuses bools
            raise ValueError(f"malformed arc {arc!r}: need integers 1 <= j < i")
        out.add((j, i))
    return frozenset(out)


def check_one_subgraph(arcs: Iterable[tuple[int, int]], pi: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Validate `arcs` as a 1-subgraph of the inversion graph of pi."""
    return _check_one_subgraph(arcs, check_permutation(pi))


def _check_one_subgraph(arcs, word) -> frozenset[tuple[int, int]]:
    """`check_one_subgraph` on a checked permutation: each arc checked in one pass."""
    n = len(word)
    out, targets = set(), 0  # bit i of targets: vertex i has a left-arc in out
    for arc in arcs:
        j, i = arc
        if type(j) is not int or type(i) is not int or not 1 <= j < i:  # refuses bools
            raise ValueError(f"malformed arc {arc!r}: need integers 1 <= j < i")
        if i > n or word[j - 1] <= word[i - 1]:
            raise NotASubgraph(f"arc ({j},{i}) is not an inversion of {word}")
        if targets >> i & 1 and (j, i) not in out:  # a repeated arc is one arc
            raise NotASubgraph(f"vertex {i} has two incident left-arcs")
        targets |= 1 << i
        out.add((j, i))
    return frozenset(out)


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


def _induced_arcs(prefs, word) -> frozenset[tuple[int, int]]:
    """Arc (j, i) whenever the car parked in spot i of `word` preferred j < i."""
    return frozenset((prefs[car - 1], i) for i, car in enumerate(word, start=1) if prefs[car - 1] != i)


def pf_to_subgraph(p: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Subgraph induced by a parking function on its own MVP outcome."""
    prefs = check_preference(p)
    return _induced_arcs(prefs, _park(prefs))


def _induced_pf(arcs, word) -> tuple[int, ...]:
    """`subgraph_to_pf` on a checked 1-subgraph of a checked permutation."""
    spot = list(range(len(word) + 1))  # spot[i]: where the car parked in spot i prefers
    for j, i in arcs:
        spot[i] = j
    prefs = [0] * len(word)
    for i, car in enumerate(word, start=1):
        prefs[car - 1] = spot[i]
    return tuple(prefs)


def subgraph_to_pf(arcs: Iterable[tuple[int, int]], pi: Iterable[int]) -> tuple[int, ...]:
    """Preference induced by a 1-subgraph: the car ending in spot i prefers
    the source of its left-arc, or i itself when there is none."""
    word = check_permutation(pi)
    return _induced_pf(_check_one_subgraph(arcs, word), word)


def is_valid(arcs: Iterable[tuple[int, int]], pi: Iterable[int]) -> bool:
    """True iff the induced preference parks back to pi under the MVP rule.

    Resolved by full simulation; a preference that fails to park counts as
    invalid rather than raising.
    """
    word = check_permutation(pi)
    return _mvp(_induced_pf(_check_one_subgraph(arcs, word), word)) == word


def is_p2_free(arcs: Iterable[tuple[int, int]]) -> bool:
    """No directed path of two arcs: never (i, j) and (j, k) together."""
    return _is_p2_free(_check_arc_pairs(arcs))


def _is_p2_free(pairs) -> bool:
    """`is_p2_free` on checked arcs."""
    sources = {j for j, _ in pairs}
    targets = {i for _, i in pairs}
    return sources.isdisjoint(targets)


def is_hs(arcs: Iterable[tuple[int, int]]) -> bool:
    """Horizontally separated: arcs pairwise disjoint in column span,
    endpoints included."""
    return _is_hs(_check_arc_pairs(arcs))


def _is_hs(pairs) -> bool:
    """`is_hs` on checked arcs: sorted by source, pairwise disjoint spans have
    increasing ends, so each arc need only start right of the previous end."""
    end = 0
    for j, i in sorted(pairs):
        if j <= end:
            return False
        end = i
    return True


def _unpark(word) -> list[tuple[int, ...]]:
    """The backward program from `word`, listing its fibre unsorted.

    Level c maps each occupancy after cars 1..c have parked (padded bytes,
    spot -> car, 0 for empty, so n <= 255) to the preference suffixes of
    cars c+1..n that finish it to `word`; the full occupancy holds [()].
    Car c still holds the spot p it preferred, and it came to p in one of
    two ways: p was free, or it bumped a car b of the occupied run right of
    p, since b moved to the first free spot.  Un-parking car c undoes either
    move: p goes in front of each suffix, and the new suffixes go to each
    predecessor, lists meeting at one predecessor joined.

    Each backward step is an MVP step read in reverse, and every occupancy
    of cars 1..c-1 is reachable from the empty street, so every occupancy
    met lies on a path from the empty street to `word`: nothing is lost and
    no branch needs a cut.
    """
    n = len(word)
    level = {bytes([0, *word, 0]): [()]}  # spot n+1 stays free and ends every run
    for car in range(n, 0, -1):
        c = _BYTE[car]
        nxt: dict = {}
        while level:
            state, suffixes = level.popitem()
            p = state.index(car)
            head = (p,)
            value = [head + s for s in suffixes]
            key = state.replace(c, b"\0")
            nxt[key] = nxt[key] + value if key in nxt else value
            for b in state[p + 1:state.find(0, p + 1)]:
                # each car appears once: empty b's spot, then put b at p
                key = state.replace(_BYTE[b], b"\0").replace(c, _BYTE[b])
                nxt[key] = nxt[key] + value if key in nxt else value
        level = nxt
    return level[bytes(n + 2)]


def _capped(word):
    if len(word) > FIBRE_CAP:
        raise SizeCapExceeded(f"n={len(word)} above fibre cap FIBRE_CAP={FIBRE_CAP}")
    return word


def fibre_via_subgraphs(pi: Iterable[int]) -> list[tuple[int, ...]]:
    """The MVP outcome fibre of pi: one preference per valid 1-subgraph.

    Lexicographically sorted; refuses n above `FIBRE_CAP`.  `_unpark`
    carries, for each occupancy, the preference suffixes that finish it to
    pi, so every suffix it builds ends in a member, at most n per member.
    """
    return _fibre(check_permutation(pi))


def _fibre(word) -> list[tuple[int, ...]]:
    return sorted(_unpark(_capped(word)))


def valid_subgraphs(pi: Iterable[int]) -> list[frozenset[tuple[int, int]]]:
    """All valid 1-subgraphs of the inversion graph of pi: those its fibre induces."""
    word = check_permutation(pi)
    return [_induced_arcs(prefs, word) for prefs in _fibre(word)]


def fibre_brute(pi: Iterable[int]) -> list[tuple[int, ...]]:
    """Independent oracle: walk all parking functions forward and keep the fibre.

    Lexicographically sorted; refuses n above `BRUTE_FORCE_CAP`.
    """
    word = check_permutation(pi)
    n = len(word)
    if n > BRUTE_FORCE_CAP:
        raise SizeCapExceeded(f"n={n} above brute-force cap {BRUTE_FORCE_CAP}")
    return [p for p, outcome in _parking_functions(n) if outcome == word]


def fibre_size(pi: Iterable[int]) -> int:
    """Size of the MVP outcome fibre of pi, counted without listing it.

    Un-parking car c (see `_unpark`) changes only the maximal occupied run
    holding its spot p: p empties, or a car of the run moves back from its
    spot q > p to p and q empties.  Runs only split, and a run's future
    depends only on its cars in spot order, so a state counts the product
    of its runs' counts.  For a run r with its largest car at index p,
    count(r) = count(r[:p])·count(r[p+1:]) + Σ_{q>p} count(r[:p] + r[q] +
    r[p+1:q])·count(r[q+1:]), and a run of at most one car counts 1.
    pi itself is one run, counted by a fresh `_run_counter()`.  Only the
    order of a run's cars matters, so the memo keys each sub-run by its rank
    pattern, the ranks 0..k-1 of its k cars in spot order: runs with the
    same pattern count once.  Refuses n above `FIBRE_CAP`.
    """
    return _run_counter()(_capped(check_permutation(pi)))


def _run_counter(by_pattern: bool = True):
    """A fresh `count(word)`: `fibre_size` of a checked permutation, with no cap
    check, its memo as `count.memo`.  Several calls may share one counter.

    Runs are bytes inside: `word` is encoded once, and each sub-run is a slice.
    The memo, shared by every word it counts, holds only shorter sub-runs of
    three or more cars; shorter ones count at once.  By default each is keyed
    by its rank pattern (`run.translate`): dec(30) then keeps 236 entries,
    against about 3.0M raw ones.  With `by_pattern` false the key is the raw run,
    which costs less per lookup; only a caller whose runs recur raw, as the
    sub-runs of all of S_n do, should ask for it.  One memo keyed raw with a
    pattern fallback was measured instead: as fast on S_10 but 168 MiB against
    108, and kept for a table 464 MiB against 23 on dec-vs-split to 255, while a
    raw tier cleared per word made S_8 2.3 times slower than raw keys.
    """
    memo: dict[bytes, int] = {}  # smaller than tuples, and in fewer allocator size classes

    def count(word):
        run = bytes(word)  # a sub-run from `sub` is bytes already, and `bytes` returns it
        p = run.index(max(run))
        head, tail = run[:p], run[p + 1:]
        ways = sub(head) * sub(tail)
        for q, b in enumerate(tail):
            ways += sub(head + _BYTE[b] + tail[:q]) * sub(tail[q + 1:])
        return ways

    def sub(run):
        if len(run) < 3:  # one run of two cars counts 2 when it descends
            return 2 if len(run) == 2 and run[0] > run[1] else 1
        if by_pattern:
            run = run.translate(bytes.maketrans(bytes(sorted(run)), _RANKS[len(run)]))
        ways = memo.get(run)
        if ways is None:
            ways = memo[run] = count(run)
        return ways

    count.memo = memo
    return count


def outcome_distribution(n: int) -> dict[tuple[int, ...], int]:
    """The MVP fibre size of every permutation of [n], in one pass.

    A forward dynamic program from the empty street.  Level c maps each
    occupancy reachable after cars 1..c have parked (padded bytes,
    spot -> car, 0 for empty) to the number of preference prefixes reaching
    it.  Car c parks at every spot in turn by `parking._moves`, which the
    walk `_parking_functions` shares, and a branch whose bumped car leaves
    the street dies.  Only two levels are alive; the old one is consumed as
    the new one grows.

    The last level holds the full occupancies, one per permutation, each
    with its fibre size; the sizes sum to (n+1)^(n-1).  It shares no code
    with `fibre_size`, so each is the other's oracle.  The widest level
    holds n! states, about 140 MiB at n = 9 and 1 GiB at n = 10, so n above
    `DISTRIBUTION_CAP` is refused before any is built.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    if n > DISTRIBUTION_CAP:
        raise SizeCapExceeded(f"n={n} above outcome distribution cap {DISTRIBUTION_CAP}")
    level = {bytes(n + 2): 1}
    for car in range(1, n + 1):
        nxt: dict[bytes, int] = {}
        while level:
            state, ways = level.popitem()
            spots = bytearray(state)
            for _ in _moves(spots, car, n):
                key = bytes(spots)
                nxt[key] = nxt.get(key, 0) + ways
        level = nxt
    return {tuple(state[1:-1]): ways for state, ways in level.items()}


def p2_free_count(pi: Iterable[int]) -> int:
    """Number of P2-free 1-subgraphs, by a dynamic program over the vertices.

    Free earlier vertices (no arc's target) in one gap between the values
    still to come are sources for the same later vertices, so left to right
    a state counts the free vertices per gap, lowest first; the lowest lies
    below every later value and stays 0.  Vertex i of value v targets a free
    vertex above v or joins the gap merging the two beside v.  On dec(n) a
    level holds at most n states, but on random permutations they grow fast:
    n = 45 takes 3.8-5.6 s at up to 216 MiB on a 2-vCPU VM.
    """
    return _p2_free_count(check_permutation(pi))


def _p2_free_count(word) -> int:
    level = {(0,) * (len(word) + 1): 1}
    for i, v in enumerate(word):
        s = sum(w < v for w in word[i + 1:])
        nxt: dict = {}
        for gaps, ways in level.items():
            head, merged, rest = gaps[:s], gaps[s] + gaps[s + 1], gaps[s + 2:]
            key = (*head, merged + 1 if s else 0, *rest)
            nxt[key] = nxt.get(key, 0) + ways
            if free := sum(gaps[s + 1:]):
                key = (*head, merged if s else 0, *rest)
                nxt[key] = nxt.get(key, 0) + ways * free
        level = nxt
    return sum(level.values())


def hs_count(pi: Iterable[int]) -> int:
    """Number of horizontally separated 1-subgraphs, by an interval DP.

    f[i] counts the HS subgraphs on vertices 1..i: vertex i is no target,
    or the target of one arc (j, i) whose span [j, i] no other arc touches,
    so f[i] = f[i-1] + sum over j in linv[i] of f[j-1].
    """
    return _hs_count(left_inversion_lists(check_permutation(pi)))


def _hs_count(linv) -> int:
    f = [1]
    for i in range(1, len(linv)):
        f.append(f[i - 1] + sum(f[j - 1] for j in linv[i]))
    return f[-1]


class FibreBounds(NamedTuple):
    product_upper: int
    p2free_count: int
    fibre_size: int
    hs_count: int
    single_arc_lower: int


def bounds(pi: Iterable[int]) -> FibreBounds:
    """The sandwich single_arc <= HS <= fibre <= P2-free <= product for pi.

    Every term is counted without walking subgraphs: the P2-free and HS
    dynamic programs, `fibre_size`, and closed forms.  Refuses n above
    `FIBRE_CAP` first; below it, the P2-free count still grows fast on
    random permutations (see `p2_free_count`).
    """
    return _bounds(_capped(check_permutation(pi)), _run_counter())


def _bounds(word, count) -> FibreBounds:
    linv = left_inversion_lists(word)
    return FibreBounds(
        product_upper=prod(1 + len(s) for s in linv[1:]),
        p2free_count=_p2_free_count(word),
        fibre_size=count(word),
        hs_count=_hs_count(linv),
        single_arc_lower=1 + sum(map(len, linv)),
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

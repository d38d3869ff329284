"""Permutation utilities: inversions, pattern containment, named families.

Permutations are tuples in one-line notation, pi = (pi_1, ..., pi_n).  A
pair (j, i) with j < i and pi_j > pi_i is an inversion; the inversion graph
has vertex set [n] and one edge per inversion.  Arcs are always written
(j, i) with j < i, i.e. directed left to right.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .parking import _parse_ints

__all__ = [
    "bipart",
    "check_permutation",
    "contains_pattern",
    "dec",
    "edges_acyclic",
    "format_permutation",
    "inversion_graph_acyclic",
    "inversions",
    "left_inversion_lists",
    "left_inversions",
    "parse_permutation",
    "split_left",
    "split_right",
]


def check_permutation(w: Iterable[int]) -> tuple[int, ...]:
    """Validate one-line notation: a rearrangement of 1..n, every entry an int
    (not a bool or float that equals one)."""
    word = tuple(w)
    n = len(word)
    if n == 0:
        raise ValueError("permutation must be non-empty")
    if {*map(type, word)} != {int} or sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"{word} is not a rearrangement of 1..{n}")
    return word


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse "3412" (digit string, n <= 9) or "10,3,1,..." (comma-separated)."""
    return _parse_ints(text, "permutation", check_permutation)


def format_permutation(w: Iterable[int]) -> str:
    """Digit string for n <= 9, comma-separated beyond."""
    word = tuple(w)
    if len(word) <= 9:
        return "".join(str(x) for x in word)
    return ",".join(str(x) for x in word)


def inversions(pi: Iterable[int]) -> frozenset[tuple[int, int]]:
    """All pairs (j, i) with j < i and pi_j > pi_i."""
    linv = left_inversion_lists(check_permutation(pi))
    return frozenset((j, i) for i, sources in enumerate(linv) for j in sources)


def left_inversions(pi: Iterable[int], i: int) -> frozenset[int]:
    """Sources j of inversions (j, i) ending at position i."""
    word = check_permutation(pi)
    if type(i) is not int or not 1 <= i <= len(word):
        raise IndexError(f"position must be an int in [1, {len(word)}], got {i!r}")
    return frozenset(left_inversion_lists(word)[i])


def left_inversion_lists(pi: tuple[int, ...]) -> list[list[int]]:
    """Ascending left-inversion sources per position; index 0 is unused."""
    n = len(pi)
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(2, n + 1):
        out[i] = [j for j in range(1, i) if pi[j - 1] > pi[i - 1]]
    return out


def contains_pattern(pi: Iterable[int], tau: Iterable[int]) -> bool:
    """True iff some subsequence of pi is order-isomorphic to tau.

    Brute force over position subsets; the patterns used here have length
    at most 4, so this is plenty fast at desk scale.
    """
    word = check_permutation(pi)
    pat = check_permutation(tau)
    if len(pat) > len(word):
        raise ValueError(f"pattern of length {len(pat)} longer than host of length {len(word)}")
    return _contains(word, pat)


def _contains(word, pat) -> bool:
    """`contains_pattern` on checked permutations; False when the pattern is longer."""
    k = len(pat)
    for positions in combinations(range(len(word)), k):
        vals = [word[p] for p in positions]
        if all((vals[a] < vals[b]) == (pat[a] < pat[b]) for a in range(k) for b in range(a + 1, k)):
            return True
    return False


def inversion_graph_acyclic(pi: Iterable[int]) -> bool:
    """True iff the inversion graph has no cycle, i.e. pi avoids 321 and 3412."""
    word = check_permutation(pi)
    return not (_contains(word, (3, 2, 1)) or _contains(word, (3, 4, 1, 2)))


def edges_acyclic(edges: Iterable[tuple[int, int]], n: int) -> bool:
    """Union-find cycle check on an undirected edge set over vertices 1..n.

    Independent of the pattern characterisation; used to cross-check it.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"vertex count must be a non-negative int, got {n!r}")
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge ({a},{b}) has a vertex outside 1..{n}")
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def dec(n: int) -> tuple[int, ...]:
    """The decreasing permutation n (n-1) ... 1; its inversion graph is complete."""
    if type(n) is not int or n < 1:
        raise ValueError(f"size must be a positive int, got {n!r}")
    return tuple(range(n, 0, -1))


def bipart(m: int, n: int) -> tuple[int, ...]:
    """(n+1) ... (n+m) 1 ... n, whose inversion graph is complete bipartite.

    m = 0 is allowed and gives the identity of length n.
    """
    if type(m) is not int or type(n) is not int or m < 0 or n < 1:
        raise ValueError(f"need ints m >= 0 and n >= 1, got m={m!r}, n={n!r}")
    return tuple(range(n + 1, n + m + 1)) + tuple(range(1, n + 1))


def split_right(m: int, n: int) -> tuple[int, ...]:
    """(n+1) ... (n+m) n (n-1) ... 1; inversion graph is a complete split graph."""
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise ValueError(f"sizes must be positive ints, got m={m!r}, n={n!r}")
    return tuple(range(n + 1, n + m + 1)) + tuple(range(n, 0, -1))


def split_left(m: int, n: int) -> tuple[int, ...]:
    """(m+n) (m+n-1) ... (m+1) 1 2 ... m; the other complete split family."""
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise ValueError(f"sizes must be positive ints, got m={m!r}, n={n!r}")
    return tuple(range(m + n, m, -1)) + tuple(range(1, m + 1))

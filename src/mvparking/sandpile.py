"""The Abelian sandpile model on the complete graph K_n.

A configuration assigns a non-negative grain count to each of n vertices;
a vertex is stable while it holds fewer than n grains.  Toppling an
unstable vertex sends one grain to every other vertex and one grain out of
the system, so repeated toppling always terminates and the stable result
does not depend on the toppling order.

Recurrence is tested by the burning criterion: add one grain everywhere
and try to topple each vertex exactly once.  On K_n a burn adds one grain
to every unburnt vertex, so burning is decided by counting: the j-th
smallest grain count must be at least j.  Stable configurations are in
bijection with preference vectors via the componentwise complement n - c,
and recurrent ones correspond exactly to parking functions.  The duplicate
elimination pass implemented by `minrec` mirrors the bumps of the MVP
process on the complement, and reading off the canonical toppling order of
its output recovers the MVP outcome; decrementing the later duplicate
instead recovers the classical outcome.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import ge
from typing import Iterable, NamedTuple

from .parking import NotAParkingFunction, check_preference, format_preference

__all__ = [
    "MinrecStep",
    "NotMinimalRecurrent",
    "NotRecurrent",
    "NotStable",
    "VertexStable",
    "canonical_toppling",
    "check_config",
    "config_to_preference",
    "format_config",
    "is_min_recurrent",
    "is_recurrent",
    "is_stable",
    "minrec",
    "minrec_classical",
    "minrec_classical_trace",
    "minrec_trace",
    "mvp_outcome_via_sandpile",
    "parse_config",
    "preference_to_config",
    "stabilise",
    "topple",
]


class NotStable(ValueError):
    """Some vertex holds n or more grains."""


class NotRecurrent(ValueError):
    """The configuration fails the burning criterion."""


class NotMinimalRecurrent(ValueError):
    """The grain counts are not a permutation of {0, ..., n-1}."""


class VertexStable(ValueError):
    """Toppling requested at a vertex with fewer than n grains."""


class MinrecStep(NamedTuple):
    """One duplicate-elimination step: index `j` collided, index `target`
    was decremented from `before` to `after`."""

    j: int
    target: int
    before: int
    after: int


def check_config(c: Iterable[int]) -> tuple[int, ...]:
    """Validate a configuration: non-empty, exact int entries >= 0."""
    cfg = tuple(c)
    if not cfg:
        raise ValueError("configuration must be non-empty")
    for x in cfg:
        if type(x) is not int or x < 0:
            raise ValueError(f"grain count {x!r} is not a non-negative integer")
    return cfg


def parse_config(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of non-negative integers."""
    text = text.strip()
    try:
        return check_config(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse configuration {text!r}: {exc}") from None


format_config = format_preference  # a configuration prints as a preference does


def is_stable(c: Iterable[int]) -> bool:
    cfg = check_config(c)
    return max(cfg) < len(cfg)


def topple(c: Iterable[int], i: int) -> tuple[int, ...]:
    """Topple vertex i: it loses n grains, every other vertex gains one."""
    cfg = check_config(c)
    n = len(cfg)
    if type(i) is not int or not 1 <= i <= n:
        raise IndexError(f"vertex must be an int in [1, {n}], got {i!r}")
    if cfg[i - 1] < n:
        raise VertexStable(f"vertex {i} holds {cfg[i - 1]} < {n} grains")
    return _topple(cfg, i)


def _topple(cfg, i) -> tuple[int, ...]:
    """`topple` on a checked configuration and a vertex i it may topple."""
    out = [x + 1 for x in cfg]
    out[i - 1] -= len(cfg) + 1
    return tuple(out)


def stabilise(c: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Topple until stable; returns (stable configuration, witness sequence).

    The witness always topples the lowest-indexed unstable vertex; by the
    abelian property the resulting configuration is order-independent.
    Each toppling adds one grain everywhere, so that is kept as one offset
    `base`, and only a toppling vertex changes its own count.  One heap
    holds the unstable vertices by index, another the stable ones by count.
    The lowest unstable vertex fires in one step until it turns stable or
    the fullest stable vertex reaches n grains, so every step moves a vertex
    between the heaps.  Turning stable takes at least one toppling, and
    only a vertex that started stable or turned stable can turn unstable,
    so there are at most 2 * topplings + n steps of O(log n) each.  Each
    toppling removes one grain from the system, so the topplings number at
    most the grain total.
    """
    cfg = list(check_config(c))
    n = len(cfg)
    seq: list[int] = []
    base = 0  # vertex u holds cfg[u] + base grains
    unstable = [u for u in range(n) if cfg[u] >= n]  # ascending, so already a heap
    stable = [(-x, u) for u, x in enumerate(cfg) if x < n]
    heapify(stable)
    while unstable:
        v = unstable[0]
        t = n - base  # u is unstable iff cfg[u] >= t
        times = (cfg[v] + base) // n
        if stable:
            times = min(times, t + stable[0][0])
        base += times
        t -= times
        cfg[v] -= times * (n + 1)
        seq += [v + 1] * times
        if cfg[v] < t:
            heappop(unstable)
            heappush(stable, (-cfg[v], v))
        while stable and -stable[0][0] >= t:
            heappush(unstable, heappop(stable)[1])
    return tuple(x + base for x in cfg), tuple(seq)


def _check_stable(cfg) -> int:
    """n for a stable checked configuration; raises NotStable otherwise."""
    n = len(cfg)
    if max(cfg) >= n:
        raise NotStable(f"{cfg} is not stable")
    return n


def is_recurrent(c: Iterable[int]) -> bool:
    """Burning criterion: after adding one grain everywhere, every vertex
    topples exactly once.

    Decided by counting, not toppling: each burn on K_n adds one grain to
    every unburnt vertex, so after k burns each holds c + 1 + k.  Burning
    largest-first succeeds iff the k-th largest count (0-based) has
    c + 1 + k >= n for every k, that is iff the j-th smallest is >= j.
    """
    cfg = check_config(c)
    return all(map(ge, sorted(cfg), range(_check_stable(cfg))))


def is_min_recurrent(c: Iterable[int]) -> bool:
    """True iff the grain counts are a permutation of {0, ..., n-1}."""
    cfg = check_config(c)
    return sorted(cfg) == list(range(len(cfg)))


def _canonical_toppling(cfg) -> tuple[int, ...]:
    n = len(cfg)
    order = [0] * n
    for k, v in enumerate(cfg, start=1):
        if v >= n or order[n - 1 - v]:
            raise NotMinimalRecurrent(f"{cfg} is not a permutation of 0..{n - 1}")
        order[n - 1 - v] = k
    return tuple(order)


def canonical_toppling(c: Iterable[int]) -> tuple[int, ...]:
    """The unique full toppling order of a minimal recurrent configuration,
    read as a permutation: position i holds the vertex with n - i grains."""
    return _canonical_toppling(check_config(c))


def config_to_preference(c: Iterable[int]) -> tuple[int, ...]:
    """Componentwise complement n - c of a stable configuration."""
    cfg = check_config(c)
    n = _check_stable(cfg)
    return tuple(n - x for x in cfg)


def preference_to_config(p: Iterable[int]) -> tuple[int, ...]:
    """Componentwise complement n - p of a preference vector."""
    prefs = check_preference(p)
    n = len(prefs)
    return tuple(n - x for x in prefs)


def _minrec(cfg, classical, steps=None) -> tuple[int, ...]:
    """Shared pass behind minrec and its classical variant, on a checked
    configuration; raises NotStable, then NotRecurrent, if it is neither.

    Left to right, `where[v]` is the index holding value v so far, 0 if
    none, and the values held stay distinct.  When index j repeats a value,
    one of the pair drops to the largest smaller value not held among
    indices 1..j: the earlier index for the MVP variant, j itself for the
    classical one.  With value v as spot n - v, that is the MVP (classical)
    rule on the complement n - c, and a stable c is recurrent exactly when
    that complement parks, that is when no car drives past spot n.  So the
    pass decides recurrence itself: c is not recurrent exactly when some
    drop finds no free value down to 0.  `where[n]`, never held, is
    `where[-1]`, so the search stops there at -1.  Each decrement is
    appended to `steps` as a MinrecStep when a list is passed; the
    untraced calls build no log.
    """
    values = list(cfg)
    where = [0] * (_check_stable(cfg) + 1)
    for j, v in enumerate(values, start=1):
        if not where[v]:
            where[v] = j
            continue
        t, where[v] = (j, where[v]) if classical else (where[v], j)  # t is the index that drops
        after = v - 1
        while where[after]:
            after -= 1
        if after < 0:
            raise NotRecurrent(f"{cfg} is not recurrent")
        values[t - 1] = after
        where[after] = t
        if steps is not None:
            steps.append(MinrecStep(j, t, v, after))
    return tuple(values)


def minrec_trace(c: Iterable[int]) -> tuple[tuple[int, ...], list[MinrecStep]]:
    """minrec plus the per-iteration decrement log."""
    steps: list[MinrecStep] = []
    return _minrec(check_config(c), classical=False, steps=steps), steps


def minrec(c: Iterable[int]) -> tuple[int, ...]:
    """Reduce a recurrent configuration to the minimal recurrent one that
    carries the same MVP outcome; the result is a permutation of 0..n-1."""
    return _minrec(check_config(c), classical=False)


def minrec_classical_trace(c: Iterable[int]) -> tuple[tuple[int, ...], list[MinrecStep]]:
    steps: list[MinrecStep] = []
    return _minrec(check_config(c), classical=True, steps=steps), steps


def minrec_classical(c: Iterable[int]) -> tuple[int, ...]:
    """Variant decrementing the later duplicate; carries the classical outcome."""
    return _minrec(check_config(c), classical=True)


def mvp_outcome_via_sandpile(p: Iterable[int]) -> tuple[int, ...]:
    """MVP outcome computed on the sandpile side: complement, reduce to a
    minimal recurrent configuration, read off its canonical toppling."""
    prefs = check_preference(p)
    try:  # the complement is recurrent exactly when p parks
        return _canonical_toppling(_minrec(tuple(len(prefs) - x for x in prefs), classical=False))
    except NotRecurrent:
        raise NotAParkingFunction(f"{prefs} is not a parking function") from None

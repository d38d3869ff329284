"""The Abelian sandpile model on the complete graph K_n.

A configuration assigns a non-negative grain count to each of n vertices;
a vertex is stable while it holds fewer than n grains.  Toppling an
unstable vertex sends one grain to every other vertex and one grain out of
the system, so repeated toppling always terminates and the stable result
does not depend on the toppling order.

Recurrence is tested by the burning criterion: add one grain everywhere
and try to topple each vertex exactly once.  Stable configurations are in
bijection with preference vectors via the componentwise complement n - c,
and recurrent ones correspond exactly to parking functions.  The duplicate
elimination pass implemented by `minrec` mirrors the bumps of the MVP
process on the complement, and reading off the canonical toppling order of
its output recovers the MVP outcome; decrementing the later duplicate
instead recovers the classical outcome.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .parking import NotAParkingFunction, check_preference, is_parking_function

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
    """Validate a configuration: non-empty, integer entries >= 0."""
    cfg = tuple(c)
    if not cfg:
        raise ValueError("configuration must be non-empty")
    for x in cfg:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ValueError(f"grain count {x!r} is not a non-negative integer")
    return cfg


def parse_config(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of non-negative integers."""
    try:
        return check_config(int(t) for t in text.strip().split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse configuration {text!r}: {exc}") from None


def format_config(c: Iterable[int]) -> str:
    return ",".join(str(x) for x in c)


def is_stable(c: Iterable[int]) -> bool:
    cfg = check_config(c)
    n = len(cfg)
    return all(x < n for x in cfg)


def _fire(cfg: list[int], v: int) -> list[int]:
    """Topple vertex v (0-based) in place, unchecked, and return `cfg`."""
    n = len(cfg)
    for u in range(n):
        cfg[u] += 1
    cfg[v] -= n + 1
    return cfg


def topple(c: Iterable[int], i: int) -> tuple[int, ...]:
    """Topple vertex i: it loses n grains, every other vertex gains one."""
    cfg = check_config(c)
    n = len(cfg)
    if not 1 <= i <= n:
        raise IndexError(f"vertex {i} outside [1, {n}]")
    if cfg[i - 1] < n:
        raise VertexStable(f"vertex {i} holds {cfg[i - 1]} < {n} grains")
    return tuple(_fire(list(cfg), i - 1))


def stabilise(c: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Topple until stable; returns (stable configuration, witness sequence).

    The witness always topples the lowest-indexed unstable vertex; by the
    abelian property the resulting configuration is order-independent.
    """
    cfg = list(check_config(c))
    n = len(cfg)
    seq: list[int] = []
    while True:
        v = next((k for k in range(n) if cfg[k] >= n), None)
        if v is None:
            return tuple(cfg), tuple(seq)
        _fire(cfg, v)
        seq.append(v + 1)


def is_recurrent(c: Iterable[int]) -> bool:
    """Burning criterion: after adding one grain everywhere, every vertex
    topples exactly once.

    Greedy burning (always the lowest-indexed unburnt unstable vertex) is
    complete on the complete graph, since toppling only adds grains at the
    other vertices.  When burning succeeds the final configuration equals
    the input, which is asserted.
    """
    cfg = check_config(c)
    n = len(cfg)
    if not all(x < n for x in cfg):
        raise NotStable(f"{cfg} is not stable")
    work = [x + 1 for x in cfg]
    burnt = [False] * n
    remaining = n
    progress = True
    while progress and remaining:
        progress = False
        for v in range(n):
            if not burnt[v] and work[v] >= n:
                _fire(work, v)
                burnt[v] = True
                remaining -= 1
                progress = True
                break
    if remaining:
        return False
    if tuple(work) != cfg:
        raise AssertionError(f"burning did not return to {cfg}")
    return True


def is_min_recurrent(c: Iterable[int]) -> bool:
    """True iff the grain counts are a permutation of {0, ..., n-1}."""
    cfg = check_config(c)
    return sorted(cfg) == list(range(len(cfg)))


def canonical_toppling(c: Iterable[int]) -> tuple[int, ...]:
    """The unique full toppling order of a minimal recurrent configuration,
    read as a permutation: position i holds the vertex with n - i grains."""
    cfg = check_config(c)
    n = len(cfg)
    if not is_min_recurrent(cfg):
        raise NotMinimalRecurrent(f"{cfg} is not a permutation of 0..{n - 1}")
    where = {v: k + 1 for k, v in enumerate(cfg)}
    return tuple(where[n - i] for i in range(1, n + 1))


def config_to_preference(c: Iterable[int]) -> tuple[int, ...]:
    """Componentwise complement n - c of a stable configuration."""
    cfg = check_config(c)
    n = len(cfg)
    if not all(x < n for x in cfg):
        raise NotStable(f"{cfg} is not stable")
    return tuple(n - x for x in cfg)


def preference_to_config(p: Iterable[int]) -> tuple[int, ...]:
    """Componentwise complement n - p of a preference vector."""
    prefs = check_preference(p)
    n = len(prefs)
    return tuple(n - x for x in prefs)


def _duplicate_elimination(cfg, classical):
    """Shared pass behind minrec and its classical variant.

    Left to right, `where` maps each value seen so far to its index, and
    these values stay distinct.  When index j repeats a value, one of the
    pair drops to the largest smaller value not held among indices 1..j:
    the earlier index for the MVP variant, j itself for the classical one.
    """
    values = list(cfg)
    steps: list[MinrecStep] = []
    where: dict[int, int] = {}
    for j, v in enumerate(values, start=1):
        if v not in where:
            where[v] = j
            continue
        if classical:
            t = j
        else:
            t, where[v] = where[v], j
        after = v - 1
        while after in where:
            after -= 1
        values[t - 1] = after
        where[after] = t
        steps.append(MinrecStep(j, t, v, after))
    return tuple(values), steps


def minrec_trace(c: Iterable[int]) -> tuple[tuple[int, ...], list[MinrecStep]]:
    """minrec plus the per-iteration decrement log."""
    cfg = check_config(c)
    if not is_recurrent(cfg):
        raise NotRecurrent(f"{cfg} is not recurrent")
    return _duplicate_elimination(cfg, classical=False)


def minrec(c: Iterable[int]) -> tuple[int, ...]:
    """Reduce a recurrent configuration to the minimal recurrent one that
    carries the same MVP outcome; the result is a permutation of 0..n-1."""
    return minrec_trace(c)[0]


def minrec_classical_trace(c: Iterable[int]) -> tuple[tuple[int, ...], list[MinrecStep]]:
    cfg = check_config(c)
    if not is_recurrent(cfg):
        raise NotRecurrent(f"{cfg} is not recurrent")
    return _duplicate_elimination(cfg, classical=True)


def minrec_classical(c: Iterable[int]) -> tuple[int, ...]:
    """Variant decrementing the later duplicate; carries the classical outcome."""
    return minrec_classical_trace(c)[0]


def mvp_outcome_via_sandpile(p: Iterable[int]) -> tuple[int, ...]:
    """MVP outcome computed on the sandpile side: complement, reduce to a
    minimal recurrent configuration, read off its canonical toppling."""
    prefs = check_preference(p)
    if not is_parking_function(prefs):
        raise NotAParkingFunction(f"{prefs} is not a parking function")
    return canonical_toppling(minrec(preference_to_config(prefs)))

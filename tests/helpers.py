"""Small independent oracles shared across test modules.

These deliberately avoid the package's own enumeration code paths so that
counting and generation checks are two-sided.
"""

from __future__ import annotations

from collections import Counter
from itertools import product


def motzkin_numbers(upto: int) -> list[int]:
    """M_0..M_upto via the recurrence M_n = M_{n-1} + sum M_k M_{n-2-k}."""
    m = [1, 1]
    for n in range(2, upto + 1):
        m.append(m[n - 1] + sum(m[k] * m[n - 2 - k] for k in range(n - 1)))
    return m[: upto + 1]


def bell_numbers(upto: int) -> list[int]:
    """B_0..B_upto via the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        bells.append(nxt[0])
        row = nxt
    return bells[: upto + 1]


def gen_motzkin_paths(n: int):
    """All balanced non-negative U/H/D strings of length n, recursively."""

    def rec(steps_left: int, height: int, acc: str):
        if steps_left == 0:
            if height == 0:
                yield acc
            return
        if height + 1 <= steps_left - 1:
            yield from rec(steps_left - 1, height + 1, acc + "U")
        if height <= steps_left - 1:
            yield from rec(steps_left - 1, height, acc + "H")
        if height > 0:
            yield from rec(steps_left - 1, height - 1, acc + "D")

    return rec(n, 0, "")


def brute_noncrossing(n: int) -> set[frozenset[tuple[int, int]]]:
    """Non-crossing matchings on [n] by filtering every subset of arcs."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    found = set()
    for bits in range(1 << len(pairs)):
        arcs = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        used = [v for arc in arcs for v in arc]
        if len(used) != len(set(used)):
            continue
        if any(a < c < b < d for a, b in arcs for c, d in arcs):
            continue
        found.add(frozenset(arcs))
    return found


def height_zero_intervals(path: str) -> list[tuple[int, int]]:
    """Intervals of a Motzkin path between consecutive returns to height 0."""
    intervals, height = [], 0
    for k, step in enumerate(path, start=1):
        if not height:
            start = k
        height += (step == "U") - (step == "D")
        if not height:
            intervals.append((start, k))
    return intervals


def all_preferences(n: int):
    return product(range(1, n + 1), repeat=n)


def popularity_path(prefs) -> str:
    """U/H/D per spot 1..n preferred by >= 2 / 1 / 0 cars, counted by a Counter."""
    count = Counter(prefs)
    return "".join("U" if count[j] >= 2 else "H" if count[j] == 1 else "D"
                   for j in range(1, len(prefs) + 1))


def induced_pf(arcs, word) -> tuple[int, ...]:
    """Preference induced by a 1-subgraph of `word`, from a target -> source dict:
    the car in spot i prefers the source of the arc into i, or i itself."""
    source = {i: j for j, i in arcs}
    spot_of = {car: i for i, car in enumerate(word, start=1)}
    return tuple(source.get(spot_of[car], spot_of[car]) for car in range(1, len(word) + 1))


def mvp_outcome(prefs) -> tuple[int, ...] | None:
    """Car per spot under the MVP rule, or None when a bumped car exits."""
    n = len(prefs)
    spots = [0] * (n + 1)
    for car, s in enumerate(prefs, start=1):
        bumped, spots[s] = spots[s], car
        if bumped:
            t = s + 1
            while t <= n and spots[t]:
                t += 1
            if t > n:
                return None
            spots[t] = bumped
    return tuple(spots[1:])


def classical_outcome(prefs) -> tuple[int, ...] | None:
    """Car per spot under the classical rule, or None when a car exits."""
    n = len(prefs)
    spots = [0] * (n + 1)
    for car, s in enumerate(prefs, start=1):
        while s <= n and spots[s]:
            s += 1
        if s > n:
            return None
        spots[s] = car
    return tuple(spots[1:])


def spot_order_walk(word) -> tuple[list, set, int, int]:
    """(sorted fibre, set of valid subgraphs, #P2-free, #HS subgraphs) of
    `word`, by a DFS over the P2-free 1-subgraphs that picks vertex i's
    left-arc for i = 1..n and simulates each leaf.

    The spot-order oracle for the car-order fibre walk and for the P2-free
    and HS counts: a branch is cut only when an arc would start at a vertex
    that is already a target.  Targets ascend, so a new arc (j, i) keeps the
    subgraph HS iff j is right of the last target, `last`; `last` is n + 1
    once the subgraph is not HS.
    """
    word = tuple(word)
    n = len(word)
    linv = [[j for j in range(1, i) if word[j - 1] > word[i - 1]] for i in range(n + 1)]
    prefs = [0] * n
    chosen: list[tuple[int, int]] = []
    is_target = [False] * (n + 1)
    fibre, valid, counts = [], set(), [0, 0]

    def walk(i: int, last: int) -> None:
        if i > n:
            counts[0] += 1
            counts[1] += last <= n
            if mvp_outcome(prefs) == word:
                fibre.append(tuple(prefs))
                valid.add(frozenset(chosen))
            return
        car = word[i - 1]
        prefs[car - 1] = i
        walk(i + 1, last)
        for j in linv[i]:
            if is_target[j]:
                continue
            prefs[car - 1] = j
            chosen.append((j, i))
            is_target[i] = True
            walk(i + 1, i if j > last else n + 1)
            chosen.pop()
        is_target[i] = False

    walk(1, 0)
    return sorted(fibre), valid, counts[0], counts[1]


def p2_free_count_by_masks(word) -> int:
    """Number of P2-free 1-subgraphs of `word`, by a dynamic program over the
    vertices whose state is the bitmask of earlier vertices that are no arc's
    target.

    The mask oracle for the gap-class program: vertex i either joins the mask,
    or becomes the target of one of the free earlier vertices j with
    word[j-1] > word[i-1] and, being a target, can never be a source.  No two
    states merge, so a level holds up to 2^(i-1) of them, as many as on dec(n).
    """
    level = {0: 1}
    for i in range(1, len(word) + 1):
        sources = sum(1 << j for j in range(1, i) if word[j - 1] > word[i - 1])
        nxt: dict[int, int] = {}
        for mask, ways in level.items():
            nxt[mask | 1 << i] = ways
            if free := (mask & sources).bit_count():
                nxt[mask] = ways * free
        level = nxt
    return sum(level.values())


def stabilise_one_at_a_time(c) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(stable configuration, witness) on K_n by toppling the lowest-indexed
    unstable vertex once, then rescanning from vertex 1."""
    cfg = list(c)
    n = len(cfg)
    seq = []
    while (v := next((u for u in range(n) if cfg[u] >= n), None)) is not None:
        cfg = [x + 1 for x in cfg]
        cfg[v] -= n + 1
        seq.append(v + 1)
    return tuple(cfg), tuple(seq)

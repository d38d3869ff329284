"""Independent expected values for the benchmark's output checks.

Nothing here calls mvparking: the counts come from recurrences and closed
forms, the simulators are written from the parking rules, and the table
integers are the paper's, as pinned by the acceptance suite.
"""

from __future__ import annotations

from math import prod


def motzkin_numbers(upto: int) -> list[int]:
    """M_0..M_upto via M_n = M_{n-1} + sum_k M_k M_{n-2-k}."""
    m = [1, 1]
    for n in range(2, upto + 1):
        m.append(m[n - 1] + sum(m[k] * m[n - 2 - k] for k in range(n - 1)))
    return m[: upto + 1]


def bell_numbers(upto: int) -> list[int]:
    """B_0..B_upto via the Bell triangle."""
    bells, row = [1], [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        bells.append(nxt[0])
        row = nxt
    return bells


def is_parking_function(p) -> bool:
    """The sorted criterion: the k-th smallest preference is at most k."""
    return all(x <= k for k, x in enumerate(sorted(p), start=1))


def mvp_outcome(p) -> tuple[tuple[int, ...] | None, int]:
    """(spot -> car, number of bumps) under the MVP rule; None for the
    outcome when a bumped car runs off the street."""
    n = len(p)
    spots = [0] * (n + 2)
    bumps = 0
    for car, s in enumerate(p, start=1):
        evicted, spots[s] = spots[s], car
        if evicted:
            bumps += 1
            t = s + 1
            while t <= n and spots[t]:
                t += 1
            if t > n:
                return None, bumps
            spots[t] = evicted
    return tuple(spots[1 : n + 1]), bumps


def classical_outcome(p) -> tuple[int, ...] | None:
    """Spot -> car under the classical rule, or None."""
    n = len(p)
    spots = [0] * (n + 2)
    for car, s in enumerate(p, start=1):
        while s <= n and spots[s]:
            s += 1
        if s > n:
            return None
        spots[s] = car
    return tuple(spots[1 : n + 1])


def inversion_count(w) -> int:
    return sum(1 for j in range(len(w)) for i in range(j + 1, len(w)) if w[j] > w[i])


def subgraph_count(w) -> int:
    """Product over positions of 1 + the number of larger values to the left."""
    return prod(1 + sum(1 for j in range(i) if w[j] > w[i]) for i in range(len(w)))


# Paper tables, integer-exact (acceptance criteria 2 and 3).
BIPARTITE_7x7 = [
    [1, 2, 3, 4, 5, 6, 7, 8],
    [2, 4, 7, 12, 17, 24, 31, 40],
    [3, 8, 16, 30, 50, 77, 110, 155],
    [4, 16, 36, 70, 130, 220, 341, 512],
    [5, 32, 80, 161, 315, 577, 967, 1532],
    [6, 64, 176, 369, 738, 1425, 2560, 4281],
    [7, 128, 384, 840, 1706, 3392, 6431, 11337],
]
SPLIT_3_TO_11 = [3, 8, 20, 51, 131, 341, 897, 2383, 6385]


def bipartite_rows(max_m: int, max_n: int) -> list[list[int]]:
    return [row[: max_m + 1] for row in BIPARTITE_7x7[:max_n]]


def dec_vs_split_rows(max_n: int) -> list[list[int]]:
    """Rows n = 3..max_n of the dec-vs-split table; the dec column is Motzkin."""
    motz = motzkin_numbers(max_n)
    return [[n, motz[n], split] for n, split in zip(range(3, max_n + 1), SPLIT_3_TO_11)]


# Exact walk counters of the P2-pruned fibre enumeration: (word, leaves,
# hits).  Leaves are P2-free 1-subgraphs, hits are fibre sizes; for dec(11)
# they are Bell(11) and Motzkin(11).
PINNED_COUNTERS = {
    "bipart(7,7)": (tuple(range(8, 15)) + tuple(range(1, 8)), 2_097_152, 11_337),
    "dec(11)": (tuple(range(11, 0, -1)), 678_570, 5_798),
    "split_right(2,9)": ((10, 11) + tuple(range(9, 0, -1)), 562_595, 6_385),
}


def verify_case_counts() -> dict[str, int]:
    """Cases each `mvpark verify` suite checks at its default caps.

    Over S_n the left-inversion counts at positions 1..n range independently
    over 0..i-1, so the 1-subgraphs of all of S_n number prod_i i(i+1)/2.
    """
    motz = motzkin_numbers(8)
    pfs = sum((n + 1) ** (n - 1) for n in range(1, 7))
    subgraphs = sum(prod(i * (i + 1) // 2 for i in range(1, n + 1)) for n in range(1, 7))
    return {
        "thm-2.5": pfs + subgraphs,
        "thm-2.8": sum(prod(range(1, n + 1)) for n in range(1, 7)),
        "prop-2.9": pfs,
        "prop-2.10": subgraphs,
        "prop-2.11": subgraphs,
        "thm-3.2": sum(n**n for n in range(1, 7)),
        "thm-3.8": sum(motz[1:9]),
        "thm-4.1": 9,
        "thm-5.5": pfs,
        "thm-6.3": sum(motz[3:9]),
        "abelian": 8 * 200 * 3,
    }

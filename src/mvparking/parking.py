"""Classical and MVP parking processes on a one-way street.

A parking preference is a vector (p_1, ..., p_n) with 1 <= p_i <= n: car i
would like to park in spot p_i of an n-spot one-way street.  Cars enter in
order 1, ..., n.  Under the classical rule an arriving car that finds its
spot taken drives on and takes the first free spot to the right.  Under the
MVP rule the arriving car always takes its preferred spot, bumping any
earlier occupant out; the bumped car then drives on from the contested spot
and re-parks in the first free spot it finds.  Bumps never propagate: a
bumped car only ever re-parks in a free spot.

If every car manages to park the preference is a parking function.  Under
both rules each arriving car fills the same new spot, the first free one at
or right of its preference, so both park the same preferences and one street
kernel, `_mvp`, runs both: they differ only in which car drives on to that
spot, the arriving one or the one it bumps.  The module also walks every
parking function of a length with its MVP outcome, depth first.
"""

from __future__ import annotations

from operator import le
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "BumpEvent",
    "MvpOutcome",
    "NotAParkingFunction",
    "check_preference",
    "displacement_mvp",
    "format_preference",
    "is_parking_function",
    "outcome_classical",
    "outcome_mvp",
    "parse_preference",
]


class NotAParkingFunction(ValueError):
    """The preference vector leaves at least one car unable to park."""


class BumpEvent(NamedTuple):
    """One relocation: `car` was bumped out of `from_spot` into `to_spot`."""

    car: int
    from_spot: int
    to_spot: int


class MvpOutcome(NamedTuple):
    """MVP result: `outcome[i-1]` is the car parked in spot i, plus the bump log."""

    outcome: tuple[int, ...]
    bump_log: tuple[BumpEvent, ...]


def check_preference(p: Iterable[int]) -> tuple[int, ...]:
    """Validate a preference vector: non-empty, exact int entries in [1, n]."""
    prefs = tuple(p)
    n = len(prefs)
    if n == 0:
        raise ValueError("preference vector must be non-empty")
    for x in prefs:
        if type(x) is not int or not 1 <= x <= n:
            raise ValueError(f"preference entry {x!r} outside [1, {n}]")
    return prefs


def _parse_ints(text, what, check):
    """`check` on the comma-separated ints of `text`, or on its digits if it has no comma."""
    text = text.strip()
    parts = text.split(",") if "," in text else list(text)
    try:
        return check(int(t) for t in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}") from None


def parse_preference(text: str) -> tuple[int, ...]:
    """Parse "3,1,1,2" or, for n <= 9, the digit string "3112"."""
    return _parse_ints(text, "preference", check_preference)


def format_preference(p: Iterable[int]) -> str:
    return ",".join(str(x) for x in p)


def _mvp(prefs, classical=False, log=None):
    """Car per spot under the MVP rule, or the classical one, or None if a car exits.

    No validation; each MVP bump is appended to `log` as a BumpEvent when a
    list is passed.  Flags are not keyword-only, which would cost up to 5% a call.
    """
    n = len(prefs)
    spots = [0] * (n + 2)  # spots[0] is unused and spots[n+1] stays empty
    for car in range(1, n + 1):
        s = prefs[car - 1]
        bumped = spots[s]
        if bumped:
            t = spots.index(0, s + 1)
            if t > n:
                return None
            if classical:
                spots[t] = car
                continue
            spots[t] = bumped
            if log is not None:
                log.append(BumpEvent(bumped, s, t))
        spots[s] = car
    return tuple(spots[1:-1])


def _moves(spots, car, n):
    """Park `car` by the MVP rule at each spot p = 1..n of the padded street in turn.

    Yields p with `spots` updated and undoes the move when resumed; a spot
    whose bumped car would pass spot n is skipped.
    """
    for p in range(1, n + 1):
        bumped = spots[p]
        if bumped:
            t = spots.index(0, p + 1)
            if t > n:
                continue
            spots[t] = bumped
        spots[p] = car
        yield p
        spots[p] = bumped
        if bumped:
            spots[t] = 0


def _parking_functions(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Lexicographically, each parking function of length n with its MVP outcome.

    Depth first over one street: car c parks at each spot in turn by
    `_moves`, which the forward program `subgraphs.outcome_distribution`
    shares, so vectors sharing a prefix share its simulation and a prefix
    whose bumped car leaves the street is cut with all its extensions.
    """
    spots = [0] * (n + 2)  # spots[0] and spots[n+1] stay empty
    prefs = [0] * n
    stack = [_moves(spots, 1, n)]  # stack[c-1] moves car c
    while stack:
        car = len(stack)
        for p in stack[-1]:
            prefs[car - 1] = p
            if car < n:
                stack.append(_moves(spots, car + 1, n))
                break
            yield tuple(prefs), tuple(spots[1:-1])
        else:
            stack.pop()


def is_parking_function(p: Iterable[int]) -> bool:
    """True iff all cars park, under either rule: iff the k-th smallest preference is <= k."""
    prefs = check_preference(p)
    return all(map(le, sorted(prefs), range(1, len(prefs) + 1)))


def outcome_classical(p: Iterable[int]) -> tuple[int, ...]:
    """Outcome permutation of the classical process: spot -> car."""
    return _park(check_preference(p), classical=True)


def _park(prefs, classical=False, log=None):
    """`_mvp` on a checked vector, raising NotAParkingFunction if a car exits."""
    outcome = _mvp(prefs, classical, log)
    if outcome is None:
        raise NotAParkingFunction(f"{prefs} is not a parking function")
    return outcome


def outcome_mvp(p: Iterable[int]) -> MvpOutcome:
    """Outcome permutation of the MVP process together with its bump log."""
    log: list[BumpEvent] = []
    return MvpOutcome(_park(check_preference(p), log=log), tuple(log))


def displacement_mvp(p: Iterable[int]) -> int:
    """Total displacement: sum over cars of |preference - final spot| (MVP)."""
    prefs = check_preference(p)
    return sum(abs(prefs[car - 1] - i) for i, car in enumerate(_park(prefs), start=1))

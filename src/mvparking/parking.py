"""Classical and MVP parking processes on a one-way street.

A parking preference is a vector (p_1, ..., p_n) with 1 <= p_i <= n: car i
would like to park in spot p_i of an n-spot one-way street.  Cars enter in
order 1, ..., n.  Under the classical rule an arriving car that finds its
spot taken drives on and takes the first free spot to the right.  Under the
MVP rule the arriving car always takes its preferred spot, bumping any
earlier occupant out; the bumped car then drives on from the contested spot
and re-parks in the first free spot it finds.  Bumps never propagate: a
bumped car only ever re-parks in a free spot.

If every car manages to park the preference is a parking function; both
rules succeed on exactly the same preferences, they only differ in which
car ends up where.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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


def parse_preference(text: str) -> tuple[int, ...]:
    """Parse "3,1,1,2" or, for n <= 9, the digit string "3112"."""
    text = text.strip()
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    try:
        return check_preference(int(t) for t in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse preference {text!r}: {exc}") from None


def format_preference(p: Iterable[int]) -> str:
    return ",".join(str(x) for x in p)


def _classical_spots(prefs, n):
    """Spot occupancy under the classical rule, or None if a car exits."""
    spots = [0] * (n + 1)
    for car in range(1, n + 1):
        s = prefs[car - 1]
        while s <= n and spots[s]:
            s += 1
        if s > n:
            return None
        spots[s] = car
    return spots


def _mvp(prefs, n, log=None):
    """Car per spot under the MVP rule, or None if a bumped car exits.

    The list is padded: spots[i] holds the car in spot i and spots[0] is
    unused, so hot callers compare it with [0, *word] without slicing.  No
    validation; each bump is appended to `log` as a BumpEvent when a list
    is passed.
    """
    spots = [0] * (n + 1)
    for car in range(1, n + 1):
        s = prefs[car - 1]
        bumped = spots[s]
        spots[s] = car
        if bumped:
            t = s + 1
            while t <= n and spots[t]:
                t += 1
            if t > n:
                return None
            spots[t] = bumped
            if log is not None:
                log.append(BumpEvent(bumped, s, t))
    return spots


def is_parking_function(p: Iterable[int]) -> bool:
    """True iff all cars park (same answer for classical and MVP rules)."""
    prefs = check_preference(p)
    return _mvp(prefs, len(prefs)) is not None


def outcome_classical(p: Iterable[int]) -> tuple[int, ...]:
    """Outcome permutation of the classical process: spot -> car."""
    prefs = check_preference(p)
    spots = _classical_spots(prefs, len(prefs))
    if spots is None:
        raise NotAParkingFunction(f"{prefs} is not a parking function")
    return tuple(spots[1:])


def _park(prefs, log=None):
    """`_mvp` on a checked vector, raising NotAParkingFunction if a car exits."""
    spots = _mvp(prefs, len(prefs), log)
    if spots is None:
        raise NotAParkingFunction(f"{prefs} is not a parking function")
    return spots


def outcome_mvp(p: Iterable[int]) -> MvpOutcome:
    """Outcome permutation of the MVP process together with its bump log."""
    log: list[BumpEvent] = []
    spots = _park(check_preference(p), log)
    return MvpOutcome(tuple(spots[1:]), tuple(log))


def displacement_mvp(p: Iterable[int]) -> int:
    """Total displacement: sum over cars of |preference - final spot| (MVP)."""
    prefs = check_preference(p)
    spots = _park(prefs)
    return sum(abs(prefs[spots[i] - 1] - i) for i in range(1, len(spots)))

"""Miscellaneous numeric and combinatorial helpers."""

from __future__ import annotations

from typing import Iterable, Sequence


def prod(values: Iterable[int]) -> int:
    """Integer product of an iterable (1 for empty input)."""
    out = 1
    for v in values:
        out *= int(v)
    return out


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires positive divisor, got {b}")
    return -(-a // b)


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def pairwise_disjoint(sets: Sequence[frozenset]) -> bool:
    """True iff every pair of the given sets is disjoint."""
    seen: set = set()
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return True


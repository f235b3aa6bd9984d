"""Exact integer helpers: factorials and odd double factorials.

Everything here returns plain Python ints (arbitrary precision); no value is
ever rounded.
"""

from __future__ import annotations

import math
import threading

from .errors import DomainError

__all__ = ["factorial", "double_factorial_odd"]

# Monotone factorial table for n < _TABLE_SIZE: grows on demand, never
# evicted. Larger factorials are computed afresh, so one large argument
# cannot pin every k! below it in memory.
_TABLE_SIZE = 1024
_FACTORIALS = [1]
_FACTORIALS_LOCK = threading.Lock()


def factorial(n: int) -> int:
    """n! for n >= 0. Repeated calls with n < 1024 are O(1) thanks to the
    shared table."""
    if n < 0:
        raise DomainError(f"factorial requires n >= 0, got {n}")
    table = _FACTORIALS
    if n < len(table):
        return table[n]
    if n >= _TABLE_SIZE:
        return math.factorial(n)
    with _FACTORIALS_LOCK:
        while len(table) <= n:
            table.append(table[-1] * len(table))
    return table[n]


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1*3*5*...*(2n-1); the empty product 1 for n = 0."""
    if n < 0:
        raise DomainError(f"double_factorial_odd requires n >= 0, got {n}")
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out

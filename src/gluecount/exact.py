"""Exact integer helpers: factorials, odd double factorials and the one
exact division.

Everything here returns plain Python ints (arbitrary precision); no value is
ever rounded. Every division in the package that must cancel goes through
`_divide`, which raises ConsistencyError instead of rounding.
"""

from __future__ import annotations

import math
import threading

from .errors import ConsistencyError, DomainError

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


def _divide(numerator: int, denominator: int, what: str, *args: object) -> int:
    """numerator // denominator, which the caller's algebra says is exact.

    A remainder means a programming error, never a rounding to make: it
    raises ConsistencyError naming `what.format(*args)` and both operands.
    The message is formatted only then, so a passing call costs no repr.
    """
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ConsistencyError(
            f"{what.format(*args)}: {numerator}/{denominator} is not an integer"
        )
    return quotient

"""Private exact integer helpers: the one factorial, the odd double factorial,
the one exact division and `_grown`, the one growth path of every shared table.

Everything here returns plain Python ints (arbitrary precision); no value is
ever rounded. Every division in the package that must cancel goes through
`_divide`, which raises ConsistencyError instead of rounding.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable

from .errors import ConsistencyError, DomainError

_TABLES_LOCK = threading.RLock()


def _grown(table: list, top: int, grow: Callable[[list, int], None], cap: int) -> list:
    """The shared row table `table`, or a copy, holding rows 0..top at
    least; the caller reads rows up to top only, and changes none. The
    factorials here, the memo's field powers of `recursion` and the series
    tables of `formula` all grow here, under one lock.

    `grow(table, k)` appends rows to `table` through row k, each row final
    when appended, so a reader that sees row k there needs no lock. Rows
    through `cap` are added to `table` under the lock, unless it holds row
    `cap` already; rows past it to a copy, returned in its place. The lock
    is reentrant, so a grow may read another table, and grow it; it never
    grows its own.
    """
    if top < len(table):
        return table
    if len(table) <= cap:
        with _TABLES_LOCK:
            grow(table, min(top, cap))
    if top > cap:
        table = table[:]
        grow(table, top)
    return table


# Monotone factorial table for n < _TABLE_SIZE: grows on demand, never
# evicted. Larger factorials are computed afresh, so one large argument
# cannot pin every k! below it in memory.
_TABLE_SIZE = 1024
_FACTORIALS = [1]


def _grow_factorials(table: list[int], top: int) -> None:
    for k in range(len(table), top + 1):
        table.append(table[-1] * k)


def _factorial(n: int) -> int:
    """n! for an int n >= 0, read from the shared table for n < 1024.
    DomainError for n < 0, which would read the table from its end."""
    if n < 0:
        raise DomainError(f"factorial requires n >= 0, got {n}")
    table = _FACTORIALS
    if n < len(table):
        return table[n]
    if n >= _TABLE_SIZE:
        return math.factorial(n)
    return _grown(table, n, _grow_factorials, _TABLE_SIZE - 1)[n]


def _integer(name: str, value: object) -> None:
    """DomainError naming `value` unless it is an int. A bool is an int to
    Python, but no size, label or count."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")


def _double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1*3*5*...*(2n-1) for an int n >= 0; 1 for n = 0."""
    return math.prod(range(1, 2 * n, 2))


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

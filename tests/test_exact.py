"""Exact integer helpers."""

import math
from functools import reduce
from operator import mul

import pytest

from gluecount import DomainError, double_factorial_odd, exact, factorial


def test_factorial_small_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(6) == 720


def test_factorial_twenty_matches_iterated_product():
    oracle = reduce(mul, range(1, 21), 1)
    assert oracle == 2432902008176640000
    assert factorial(20) == oracle


def test_factorial_recurrence():
    for n in range(1, 200):
        assert factorial(n) == n * factorial(n - 1)


def test_factorial_table_is_bounded():
    # A large argument is computed without storing every k! below it.
    assert factorial(5000) == math.factorial(5000)
    assert len(exact._FACTORIALS) <= 1024
    for n in (1023, 1024, 1025, 5000):
        assert factorial(n) == math.factorial(n), n
    assert len(exact._FACTORIALS) <= 1024


def test_factorial_rejects_negative():
    with pytest.raises(DomainError):
        factorial(-1)


def test_double_factorial_examples():
    assert double_factorial_odd(0) == 1
    assert double_factorial_odd(1) == 1
    assert double_factorial_odd(2) == 3
    # 1*3*5*7
    assert double_factorial_odd(4) == 105


def test_double_factorial_against_factorials():
    # (2n-1)!! * 2^n * n! = (2n)!
    for n in range(0, 60):
        assert double_factorial_odd(n) * 2**n * factorial(n) == factorial(2 * n)


def test_double_factorial_rejects_negative():
    with pytest.raises(DomainError):
        double_factorial_odd(-2)

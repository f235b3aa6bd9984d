"""Shared fixtures: the Harer-Zagier three-term recurrence for eps_g(N), and
CPython's default limit on int <-> str conversion."""

import sys

import pytest

from gluecount.verify import _hz_recurrence


@pytest.fixture
def default_int_digit_limit():
    """Run the test under CPython's default 4300-digit conversion limit and
    restore whatever limit was in force afterwards (the CLI lifts it)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int <-> str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.fixture(scope="session")
def hz_recurrence():
    """eps[g][N] for N <= 60 and g <= 31, from the Harer-Zagier three-term
    recurrence that `suite_hz_table` checks the three routes against."""
    return _hz_recurrence(60)

"""Shared fixtures: the Harer-Zagier three-term recurrence for eps_g(N), and
CPython's default limit on int <-> str conversion."""

import sys

import pytest


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
    """eps[g][N] for g <= 15, N <= 60, from eps_0(0) = 1 and

    (N+1) eps_g(N) = 2(2N-1) eps_g(N-1) + (N-1)(2N-1)(2N-3) eps_{g-1}(N-2)

    (Harer & Zagier, Invent. Math. 85, 1986)."""
    max_genus, max_n = 15, 60
    eps = [[0] * (max_n + 1) for _ in range(max_genus + 1)]
    eps[0][0] = 1
    for n in range(1, max_n + 1):
        for g in range(max_genus + 1):
            total = 2 * (2 * n - 1) * eps[g][n - 1]
            if g and n >= 2:
                total += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps[g - 1][n - 2]
            assert total % (n + 1) == 0
            eps[g][n] = total // (n + 1)
    return eps

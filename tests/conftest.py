"""Shared fixtures: the Harer-Zagier three-term recurrence for eps_g(N),
CPython's default limit on int <-> str conversion, empty shared series
tables, and an environment that imports this checkout's gluecount in a fresh
interpreter."""

import os
import sys
from pathlib import Path

import pytest

import gluecount
from gluecount import formula
from gluecount.verify import _hz_recurrence


@pytest.fixture
def default_int_digit_limit():
    """Run the test under CPython's default 4300-digit conversion limit and
    restore whatever limit was in force afterwards (`cli.main` lifts it
    while it runs, and a test may lift it to convert expected values)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int <-> str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.fixture
def empty_tables(monkeypatch):
    """Give the shared tables of `formula` only their row 0 for
    the test, so every row the test needs is computed, and every division
    behind it made, by the call under test. The fixture's value empties them
    again; the filled tables are put back after the test, so no row built
    under a test's patches outlives it."""

    def empty():
        monkeypatch.setattr(formula, "_SCALES", [1])
        monkeypatch.setattr(formula, "_WEIGHTS", [[1]])
        monkeypatch.setattr(formula, "_HALF_RATIO", [1])

    empty()
    return empty


@pytest.fixture(scope="session")
def hz_recurrence():
    """eps[g][N] for N <= 60 and g <= 31, from the Harer-Zagier three-term
    recurrence that `suite_hz_table` checks the three routes against."""
    return _hz_recurrence(60)


@pytest.fixture
def src_env():
    """os.environ with the directory holding gluecount first on PYTHONPATH."""
    src = str(Path(gluecount.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))

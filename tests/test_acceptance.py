"""Acceptance gate: the full verification suites at their contract sizes.

Each test runs one suite, prints its PASS/FAIL line (visible with -s or
in captured output on failure) and pins its check count, so that no floor
shrinks unseen. Everything here is exact integer equality; there are no
tolerances to tune.
"""

from gluecount import SurfaceSignature, count_brute
from gluecount.verify import (
    suite_brute_oracle,
    suite_closed_vs_recursive,
    suite_gf_identity,
    suite_hz_table,
    suite_row_sums,
    suite_specializations,
    suite_structural,
)


def report(result, checked):
    print(result.line())
    assert result.passed, result.failure
    assert result.checked == checked


def test_acceptance_hz_table_three_routes():
    report(suite_hz_table(max_agree=60), 1068)


def test_acceptance_closed_vs_recursive():
    report(suite_closed_vs_recursive(max_genus=3, max_holes=4, max_n=6), 11184)


def test_acceptance_closed_vs_recursive_along_the_genus():
    report(suite_closed_vs_recursive(max_genus=6, max_holes=3, max_n=3), 567)


def test_acceptance_brute_oracle():
    # Named spot values first, then every signature with polygon size <= 14.
    assert count_brute(SurfaceSignature(0, (1, 1))) == 1
    assert count_brute(SurfaceSignature(0, (1, 2))) == 2
    assert count_brute(SurfaceSignature(0, (1, 3))) == 3
    assert count_brute(SurfaceSignature(0, (1, 0, 0))) == 2
    assert count_brute(SurfaceSignature(1, (1,))) == 1
    report(suite_brute_oracle(max_polygon=14), 311)


def test_acceptance_gf_identity():
    report(suite_gf_identity(order=13), 1)


def test_acceptance_specializations():
    report(suite_specializations(max_catalan=12), 1232)


def test_acceptance_row_sums():
    report(suite_row_sums(max_n=10), 10)


def test_acceptance_structural_invariants():
    report(suite_structural(max_polygon=9), 674377)

"""One-vertex map counts eps_g(N): three routes, classical specializations."""

from fractions import Fraction
from functools import partial
from math import factorial

import pytest

import fraction_kernels
from gluecount import (
    DomainError,
    GfIdentityReport,
    catalan,
    gf_identity_check,
    hz_from_gluing_counts,
    hz_sum,
    hz_tanh,
    hz_toric,
)
from gluecount.formula import _scales, _weight_rows
from gluecount.hz import _half_ratio_coeffs, _ratio_power_coeffs

# eps_g(N) for N = 1..5, genus column g = 0, 1, 2, ...
CLASSICAL = {
    1: (1,),
    2: (2, 1),
    3: (5, 10),
    4: (14, 70, 21),
    5: (42, 420, 483),
}


@pytest.mark.parametrize("route", [hz_sum, hz_tanh, hz_from_gluing_counts])
def test_classical_table(route):
    for n, row in CLASSICAL.items():
        for g, expected in enumerate(row):
            assert route(g, n) == expected, (route.__name__, g, n)


@pytest.mark.parametrize("route", [hz_sum, hz_tanh, hz_from_gluing_counts])
def test_empty_cells_are_zero(route):
    # Genus needs two handles' worth of edges: N < 2g kills the count.
    for g, n in [(1, 1), (2, 2), (2, 3), (3, 5), (5, 9)]:
        assert route(g, n) == 0


def test_routes_agree_beyond_the_table():
    for n in range(1, 11):
        for g in range(n // 2 + 1):
            reference = hz_sum(g, n)
            assert hz_tanh(g, n) == reference
            if n <= 8:
                assert hz_from_gluing_counts(g, n) == reference


def test_row_sums_are_odd_double_factorials():
    # Every complete gluing of the 2N-gon lands at some genus, and there are
    # (2N-1)!! gluings in all.
    for n in range(1, 11):
        total = sum(hz_sum(g, n) for g in range(n // 2 + 1))
        assert total == fraction_kernels.double_factorial_odd(n)


def test_catalan_values():
    assert [catalan(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    for n in range(1, 13):
        assert catalan(n) == hz_sum(0, n)


def test_toric_values():
    assert [hz_toric(n) for n in range(2, 6)] == [1, 10, 70, 420]
    for n in range(2, 13):
        assert hz_toric(n) == hz_sum(1, n)


def test_single_point_examples():
    assert hz_from_gluing_counts(0, 2) == 2
    assert hz_from_gluing_counts(1, 2) == 1
    assert hz_from_gluing_counts(2, 4) == 21


@pytest.mark.parametrize("route", [hz_sum, hz_tanh, hz_from_gluing_counts])
def test_domain_errors(route):
    with pytest.raises(DomainError):
        route(-1, 3)
    with pytest.raises(DomainError):
        route(0, 0)


def test_toric_domain():
    with pytest.raises(DomainError):
        hz_toric(1)
    with pytest.raises(DomainError):
        catalan(0)


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(partial(route, genus, n), genus if type(genus) is not int else n,
                     id=f"{route.__name__}({genus!r}, {n!r})")
        for route in (hz_sum, hz_tanh, hz_from_gluing_counts)
        for genus, n in [(1.0, 3), (1, 3.0), (True, 3), (1, True)]
    ]
    + [
        pytest.param(partial(fn, value), value, id=f"{fn.__name__}({value!r})")
        for fn in (catalan, hz_toric, gf_identity_check)
        for value in (3.0, True)
    ],
)
def test_refuses_what_is_not_an_integer(call, value):
    # A float used to fail deep in the arithmetic, and a bool to pass as 0
    # or 1, or to reach `SurfaceSignature` first.
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError
    assert str(info.value).endswith(f"must be an integer, got {value!r}")


def test_tanh_high_genus():
    assert hz_tanh(9, 18) == hz_sum(9, 18)


@pytest.mark.parametrize(
    "route, max_genus, max_n",
    [
        pytest.param(hz_tanh, 15, 60, id="hz_tanh"),
        pytest.param(hz_sum, 12, 40, id="hz_sum"),
        pytest.param(hz_from_gluing_counts, 12, 40, id="hz_from_gluing_counts"),
    ],
)
def test_routes_match_three_term_recurrence(route, max_genus, max_n, hz_recurrence):
    for g in range(max_genus + 1):
        for n in range(1, max_n + 1):
            assert route(g, n) == hz_recurrence[g][n], (g, n)


def _unscaled(coeffs, s):
    """The x^(2m) coefficients of (x/2)/tanh(x/2) from their scaled integers."""
    return [Fraction(c, s_m) for c, s_m in zip(coeffs, s)]


def _tanh_rows(genus):
    """C_0..C_genus, from the scales and weights that `hz_tanh` passes."""
    s = _scales(genus)
    return _half_ratio_coeffs(genus, s, _weight_rows(genus, s))[: genus + 1]


def test_half_angle_expansion():
    # (x/2)/tanh(x/2) = 1 + x^2/12 - x^4/720 + x^6/30240 - ..., kept in x^2
    # and scaled by s = 1, 12, 720, 60480: 1, 1, -1, 2.
    s = _scales(3)[:4]
    coeffs = _tanh_rows(3)
    assert (coeffs, s) == ([1, 1, -1, 2], [1, 12, 720, 60480])
    assert _unscaled(coeffs, s) == [1, Fraction(1, 12), Fraction(-1, 720), Fraction(1, 30240)]


def test_half_angle_matches_fraction_kernel(empty_tables):
    # The scales do not depend on the genus, so each genus gives a prefix.
    s = _scales(60)[:61]
    full = _tanh_rows(60)
    assert all(type(c) is int for c in full)
    assert _unscaled(full, s) == fraction_kernels.half_ratio_coeffs(60)
    for g in range(60):
        empty_tables()
        assert _tanh_rows(g) == full[: g + 1], g


def test_routes_match_fraction_kernels_on_one_row():
    n = 80
    for g in range(n // 2 + 1):
        assert hz_sum(g, n) == fraction_kernels.hz_sum(g, n), g
        assert hz_tanh(g, n) == fraction_kernels.hz_tanh(g, n), g


def test_ratio_power_coefficients():
    # ((1+x)/(1-x))^y: x^1 carries 2y, x^2 carries 2y^2, x^3 carries
    # (2/3)y + (4/3)y^3; row k holds them times k!.
    f = _ratio_power_coeffs(6)
    assert f[0] == [1, 0, 0, 0, 0, 0, 0]
    assert f[1] == [0, 2, 0, 0, 0, 0, 0]
    assert f[2] == [0, 0, 4, 0, 0, 0, 0]
    assert f[3] == [0, 4, 0, 8, 0, 0, 0]
    unscaled = [[Fraction(c, factorial(k)) for c in row] for k, row in enumerate(f)]
    assert unscaled[2] == [0, 0, 2, 0, 0, 0, 0]
    assert unscaled[3] == [0, Fraction(2, 3), 0, Fraction(4, 3), 0, 0, 0]
    assert unscaled == fraction_kernels.ratio_power_coeffs(6)


def test_ratio_power_agrees_with_integer_powers():
    # At y = m the series is (1+x)^m / (1-x)^m: multiply by 1+x, then take
    # prefix sums (divide by 1-x), m times each.
    order = 6
    f = _ratio_power_coeffs(order)
    for m in range(4):
        direct = [1] + [0] * order
        for _ in range(m):
            direct = [direct[0]] + [direct[k] + direct[k - 1] for k in range(1, order + 1)]
        for _ in range(m):
            direct = [sum(direct[: k + 1]) for k in range(order + 1)]
        evaluated = [sum(c * m**j for j, c in enumerate(row)) for row in f]
        assert evaluated == [factorial(k) * c for k, c in enumerate(direct)], m


def test_gf_identity_holds():
    for order in (2, 6):
        report = gf_identity_check(order)
        assert report.holds
        assert report.first_discrepancy is None
        assert report.order == order


def test_gf_identity_reports_first_discrepancy(monkeypatch):
    # One wrong eps_1(2) shows up at x^3 y^1: N=2, g=1 gives x^(N+1) y^(N-2g+1).
    real = hz_sum
    monkeypatch.setattr(
        "gluecount.hz.hz_sum", lambda g, n: real(g, n) + ((g, n) == (1, 2))
    )
    report = gf_identity_check(6)
    assert (report.holds, report.first_discrepancy) == (False, (3, 1))


@pytest.mark.parametrize("wrong", [None, (1, 2), (0, 9), (4, 11), (12, 25)])
def test_gf_identity_matches_fraction_kernel(monkeypatch, wrong):
    # The same report as the Fraction reference for orders 1..26, with every
    # eps right and with one eps_g(N) one too large.
    def eps(g, n):
        return hz_sum(g, n) + ((g, n) == wrong)

    monkeypatch.setattr("gluecount.hz.hz_sum", eps)
    for order in range(1, 27):
        spot = fraction_kernels.gf_first_discrepancy(order, eps)
        assert gf_identity_check(order) == GfIdentityReport(spot is None, spot, order), order


def test_gf_identity_rejects_bad_order():
    with pytest.raises(DomainError):
        gf_identity_check(0)

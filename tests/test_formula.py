"""Closed-formula counts and signature validation."""

import itertools
import math
from fractions import Fraction
from math import factorial

import pytest

import fraction_kernels
from gluecount import (
    AllPuncturesError,
    SignatureError,
    SurfaceSignature,
    count_brute,
    count_closed,
    count_recursive,
    polygon_size,
)
from gluecount.verify import iter_bounded_signatures
from gluecount import formula
from gluecount.formula import _closed_columns, _power, _scales, _split_sum, _weight_rows


def test_signature_rejects_no_boundaries():
    with pytest.raises(SignatureError):
        SurfaceSignature(0, ())


def test_signature_rejects_negative_genus():
    with pytest.raises(SignatureError):
        SurfaceSignature(-1, (1,))


def test_signature_rejects_negative_size():
    with pytest.raises(SignatureError):
        SurfaceSignature(0, (1, -2))


def test_signature_rejects_all_punctures_distinctly():
    with pytest.raises(AllPuncturesError, match="all-punctures unsupported"):
        SurfaceSignature(1, (0, 0, 0))


NOT_INTEGERS = [(1.5, (1,)), (1, (1.0,)), (True, (1,)), (1, (True,))]


@pytest.mark.parametrize("route", [count_closed, count_recursive, count_brute])
@pytest.mark.parametrize("genus, sizes", NOT_INTEGERS)
def test_signature_refuses_what_is_not_an_integer(route, genus, sizes):
    # count_brute's histogram cache holds the key (5, 1) after this count,
    # and 5.0 == 5 hashes alike, so a float would read that entry.
    assert route(SurfaceSignature(1, (1,))) == 1
    bad = genus if type(genus) is not int else sizes[0]
    with pytest.raises(SignatureError, match=f"integers?, got {bad!r}$"):
        route(SurfaceSignature(genus, sizes))


def test_signature_accepts_lists_and_normalizes():
    sig = SurfaceSignature(0, [2, 0, 1])
    assert sig.boundary_sizes == (2, 0, 1)
    assert sig.sorted_sizes() == (2, 1, 0)
    assert sig.holes == 3
    assert sig.puncture_count == 1
    assert sig.boundary_edge_total == 3


def test_polygon_size_examples():
    assert polygon_size(SurfaceSignature(0, (1, 1))) == 4
    assert polygon_size(SurfaceSignature(1, (1,))) == 5
    assert polygon_size(SurfaceSignature(0, (1, 0, 0))) == 5
    assert polygon_size(SurfaceSignature(2, (3, 2))) == 15


def test_count_closed_known_values():
    # Single boundary on the sphere: always exactly one gluing.
    assert count_closed(SurfaceSignature(0, (7,))) == 1
    # Two sphere boundaries: the product of the sizes.
    assert count_closed(SurfaceSignature(0, (2, 3))) == 6
    # Smallest torus case, and the next one up.
    assert count_closed(SurfaceSignature(1, (1,))) == 1
    assert count_closed(SurfaceSignature(1, (2,))) == 5
    # Punctures in play.
    assert count_closed(SurfaceSignature(0, (1, 0))) == 1
    assert count_closed(SurfaceSignature(0, (1, 0, 0))) == 2
    assert count_closed(SurfaceSignature(1, (1, 0))) == 10
    # Genus two with a single 1-gon boundary.
    assert count_closed(SurfaceSignature(2, (1,))) == 21


def test_count_closed_symmetric_in_boundary_order():
    for genus in range(0, 3):
        for sizes in itertools.product(range(0, 5), repeat=3):
            if sum(sizes) == 0:
                continue
            reference = count_closed(SurfaceSignature(genus, sizes))
            for perm in itertools.permutations(sizes):
                assert count_closed(SurfaceSignature(genus, perm)) == reference


def test_count_closed_is_positive_integer():
    for genus in range(0, 4):
        for sizes in itertools.product(range(0, 4), repeat=2):
            if sum(sizes) == 0:
                continue
            value = count_closed(SurfaceSignature(genus, sizes))
            assert isinstance(value, int)
            assert value >= 1


def test_sphere_reduction():
    # Genus 0 collapses to sizes product times a falling-factorial ratio.
    for holes in range(1, 6):
        for sizes in itertools.product(range(1, 5), repeat=holes):
            total = sum(sizes)
            product = 1
            for n in sizes:
                product *= n
            expected = (
                product
                * factorial(total + 2 * holes - 3)
                // factorial(total + holes - 1)
            )
            assert count_closed(SurfaceSignature(0, sizes)) == expected


def test_torus_reduction():
    # Genus 1: same shape with a quadratic correction per boundary.
    for holes in range(1, 5):
        for sizes in itertools.product(range(1, 5), repeat=holes):
            total = sum(sizes)
            product = 1
            for n in sizes:
                product *= n
            bracket6 = sum((n + 1) * (n + 2) for n in sizes)
            numerator = (
                product * factorial(total + 2 * holes + 1) * bracket6
            )
            denominator = 24 * factorial(total + holes + 1)
            assert numerator % denominator == 0
            assert count_closed(SurfaceSignature(1, sizes)) == numerator // denominator


def test_one_gon_polynomials():
    # Single torus boundary of size n: n(n+1)(n+2)(n+3)/4!.
    for n in range(1, 8):
        expected = n * (n + 1) * (n + 2) * (n + 3) // 24
        assert count_closed(SurfaceSignature(1, (n,))) == expected


def _splittings(genus, holes):
    """Every ordered splitting p_1+...+p_holes = genus."""
    if holes == 1:
        yield (genus,)
        return
    for p in range(genus + 1):
        for rest in _splittings(genus - p, holes - 1):
            yield (p,) + rest


def _composition_sum(genus, sizes):
    # The splitting sum with every splitting listed directly.
    factors = [_factor(genus, n) for n in sizes]
    return sum(
        math.prod(f[p] for f, p in zip(factors, parts))
        for parts in _splittings(genus, len(sizes))
    )


# One, two and three or more distinct sizes.
DEEP_SIZES = [(2,), (1, 1), (0, 0, 0), (3, 0), (2, 2, 1), (3, 1, 0), (4, 2, 1, 1)]


def test_split_sum_matches_composition_sum(empty_tables):
    for g in range(5):
        for holes in range(1, 5):
            for sizes in itertools.product(range(5), repeat=holes):
                value, scale = _split_sum(g, sizes)
                assert scale == _scales(g)[g]
                assert Fraction(value, scale) == _composition_sum(g, sizes), (g, sizes)
    # Genus 0-30 and 41 from empty tables, then from the filled ones.
    genera = [*range(31), 41]
    for sizes in DEEP_SIZES:
        empty_tables()
        expected = [_composition_sum(g, sizes) for g in genera]
        assert [Fraction(*_split_sum(g, sizes)) for g in genera] == expected, sizes
        assert [Fraction(*_split_sum(g, sizes)) for g in genera] == expected, sizes


def _factor(genus, n):
    return [
        Fraction(factorial(2 * p + n), factorial(n) * factorial(2 * p + 1))
        for p in range(genus + 1)
    ]


def _times(a, b):
    """a*b truncated at the length of a (both the same length)."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _split_sum_by_boundary(genus, sizes):
    # The splitting sum with one truncated product per boundary: the
    # reference for the grouping of equal sizes in `_split_sum`.
    acc = [Fraction(1)] + [Fraction(0)] * genus
    for n in sizes:
        acc = _times(acc, _factor(genus, n))
    return acc[genus]


GROUPED_SIZES = (
    [(0,) * k for k in (1, 2, 3, 7, 40)]
    + [(1,) + (0,) * k for k in (1, 2, 5, 39)]
    + [(3,) * 12 + (1,), (3, 3, 2, 2, 2, 0), (0, 2, 0, 5, 2, 0, 0), (4, 1, 4, 1, 4, 1, 1)]
)


@pytest.mark.parametrize("sizes", GROUPED_SIZES)
def test_split_sum_groups_equal_sizes(sizes):
    for g in range(13):
        assert Fraction(*_split_sum(g, sizes)) == _split_sum_by_boundary(g, sizes), g


@pytest.mark.parametrize("sizes", GROUPED_SIZES)
def test_split_sum_matches_fraction_kernel(sizes, empty_tables):
    # The integer sum over its scale s_g is the Fraction kernel's value, at
    # genus 0-30 and 41 from empty tables and again from the filled ones.
    genera = [*range(31), 41]
    expected = [fraction_kernels.split_sum(g, sizes) for g in genera]
    assert [Fraction(*_split_sum(g, sizes)) for g in genera] == expected
    assert [Fraction(*_split_sum(g, sizes)) for g in genera] == expected


def test_closed_columns_match_count_closed(monkeypatch):
    # Unsorted and repeated sizes; a prefix that drops two boundaries, (3,)
    # of (3, 1, 1); tuples listed before their prefixes, (4, 2, 1) before
    # (4, 2) and (4,); then single boundaries alone, which take no weights,
    # and no tuples at all.
    genus = 12
    for tuples in (
        [(2, 1), (1, 2), (0, 3, 0), (3, 0, 0), (1, 1, 1), (2, 0, 2, 1, 2), (4,), (0, 1)],
        [(3,), (3, 1, 1), (4, 2, 1), (4, 2), (4,), (2, 2, 0, 1)],
        [(3,), (1,)],
        [],
    ):
        expected = [
            [count_closed(SurfaceSignature(g, sizes)) for g in range(genus + 1)]
            for sizes in tuples
        ]
        assert list(_closed_columns(genus, tuples)) == expected, tuples

    # In grid order each tuple's prefix comes first, so a tuple with two or
    # more distinct sizes takes one product, and one with one size none.
    products = []

    def times(*args):
        products.append(args)
        return formula_times(*args)

    formula_times = formula._times
    monkeypatch.setattr(formula, "_times", times)
    tuples = [sig.boundary_sizes for sig in iter_bounded_signatures(0, 5, 4)]
    columns = list(_closed_columns(genus, tuples))
    assert len(products) == sum(len(set(sizes)) > 1 for sizes in tuples) == 226
    expected = [
        [count_closed(SurfaceSignature(g, sizes)) for g in (0, 7, genus)] for sizes in tuples
    ]
    assert [[column[g] for g in (0, 7, genus)] for column in columns] == expected


def test_scales_divide_along_products():
    s = _scales(60)
    w = _weight_rows(60, s)[:61]
    assert s[:4] == [1, 12, 720, 60480]
    for i in range(61):
        # The definition: the product over primes q <= 2i+1 of q^floor(2i/(q-1)).
        primes = [q for q in range(2, 2 * i + 2) if all(q % r for r in range(2, q))]
        assert s[i] == math.prod(q ** (2 * i // (q - 1)) for q in primes), i
        assert s[i] % (2 * i + 1) == 0 and s[i] % 4**i == 0, i
        # One table: a lower genus reads a prefix of the same list.
        assert _scales(i) is s
        for j in range(i + 1):
            assert type(w[i][j]) is int and w[i][j] * s[j] * s[i - j] == s[i], (i, j)


def _integral(series):
    """`series` (with constant term 1) with coefficient i scaled by d^i, for
    d the least common denominator of its coefficients, so that every
    coefficient is an integer; returns the integer coefficients and d. On
    this scale a product needs no weights: d^j * d^(i-j) = d^i."""
    d = math.lcm(*(Fraction(c).denominator for c in series))
    scaled = [Fraction(c) * d**p for p, c in enumerate(series)]
    assert all(c.denominator == 1 for c in scaled)
    return [c.numerator for c in scaled], d


def test_power_is_repeated_truncated_product():
    series = [
        _factor(6, 0),
        _factor(9, 3),
        [Fraction(1), Fraction(-2, 3), Fraction(5), Fraction(7, 11), Fraction(-1, 4)],
        [Fraction(1)],
    ]
    for rational in series:
        a, d = _integral(rational)
        ones = [[1] * (i + 1) for i in range(len(a))]
        expected = [1] + [0] * (len(a) - 1)
        for e in range(7):
            p = _power(a, e, ones)
            assert p == expected, (a, e)
            assert all(type(c) is int for c in p)
            unscaled = [Fraction(c, d**i) for i, c in enumerate(p)]
            assert unscaled == fraction_kernels.power(rational, e), (rational, e)
            expected = _times(expected, a)


def test_power_on_weighted_scales():
    # The scales of `_scales` need the weights w[i][j] in every product.
    for rational in (_factor(6, 0), _factor(9, 3), _factor(12, 1)):
        g = len(rational) - 1
        s = _scales(g)
        w = _weight_rows(g, s)[: g + 1]
        a = [int(c * s_i) for c, s_i in zip(rational, s)]
        assert [Fraction(c, s_i) for c, s_i in zip(a, s)] == rational
        for e in range(7):
            p = _power(a, e, w)
            unscaled = [Fraction(c, s_i) for c, s_i in zip(p, s)]
            assert unscaled == fraction_kernels.power(rational, e), (rational, e)
            # The power of a truncated series is the power truncated.
            for k in range(len(a)):
                assert _power(a[: k + 1], e, w) == p[: k + 1], (rational, e, k)

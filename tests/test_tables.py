"""The shared series tables of `formula` and `hz`: the scales s_i, their
odd parts s_i/(2i+1), the weight rows w[i] and the scaled tanh coefficients
C_m. They grow on demand, only through formula._TABLE_GENUS, and no caller
changes a row. Also the factor cache of `formula._split_sum`, and what it
holds."""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import fraction_kernels
from gluecount import (
    SurfaceSignature,
    count_closed,
    factorial,
    gf_identity_check,
    hz_from_gluing_counts,
    hz_sum,
    hz_tanh,
)
from gluecount import formula, hz
from gluecount.formula import _power, _scales, _weight_rows
from gluecount.hz import _half_ratio_coeffs

ROUTES = (hz_sum, hz_tanh, hz_from_gluing_counts)


def _tables():
    return {
        "scales": formula._SCALES,
        "odd parts": formula._ODD_PARTS,
        "weights": formula._WEIGHTS,
        "tanh": hz._HALF_RATIO,
    }


def _definitions(genus):
    """The four tables through row genus, each from its definition."""
    s = [
        math.prod(
            q ** (2 * i // (q - 1))
            for q in range(2, 2 * i + 2)
            if all(q % r for r in range(2, q))
        )
        for i in range(genus + 1)
    ]
    tanh = [Fraction(c) * s_m for c, s_m in zip(fraction_kernels.half_ratio_coeffs(genus), s)]
    assert all(c.denominator == 1 for c in tanh)
    return {
        "scales": s,
        "odd parts": [s_i // (2 * i + 1) for i, s_i in enumerate(s)],
        "weights": [[s[i] // (s[j] * s[i - j]) for j in range(i + 1)] for i in range(genus + 1)],
        "tanh": [c.numerator for c in tanh],
    }


def test_every_route_leaves_the_tables_as_defined(empty_tables, hz_recurrence):
    genus = 20
    for g in range(genus + 1):
        for n in range(max(2 * g, 1), 2 * g + 3):
            for route in ROUTES:
                assert route(g, n) == hz_recurrence[g][n], (route.__name__, g, n)
        for sizes in [(3, 2, 1), (2, 2, 0), (4,), (1, 1, 1, 1)]:
            count_closed(SurfaceSignature(g, sizes))
        s = _scales(g)
        w = _weight_rows(g)[: g + 1]
        _power(_half_ratio_coeffs(s, w), 3, w)
    assert gf_identity_check(2 * genus + 1).holds
    assert _tables() == _definitions(genus)


def test_threads_growing_to_different_genera_write_the_same_rows(empty_tables):
    # Eight threads on a shortened switch interval, so growth interleaves;
    # each round starts from empty tables.
    genera = (5, 18, 31, 44) * 2

    def work(g):
        try:
            results[g] = (hz_tanh(g, 2 * g + 1), hz_sum(g, 2 * g + 1))
            count_closed(SurfaceSignature(g, (3, 1, 1)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    expected = _definitions(max(genera))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            empty_tables()
            results, errors = {}, []
            threads = [threading.Thread(target=work, args=(g,)) for g in genera]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert all(tanh == total for tanh, total in results.values())
            assert _tables() == expected
    finally:
        sys.setswitchinterval(previous)


def test_threads_sharing_factors_count_alike(empty_tables):
    # Eight threads count overlapping signatures, whose distinct sizes share
    # factors, on a shortened switch interval; each round starts from empty
    # tables and an empty factor cache.
    sigs = [
        SurfaceSignature(g, sizes)
        for g in (3, 9, 17, 30, formula._FACTOR_GENUS + 1)
        for sizes in [(2, 1, 1), (1, 1, 2, 0), (2, 2, 1, 0), (0, 0, 1)]
    ]
    expected = [count_closed(sig) for sig in sigs]

    def work(start):
        try:
            order = sigs[start:] + sigs[:start]
            results[start] = [count_closed(sig) for sig in order]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            empty_tables()
            results, errors = {}, []
            threads = [threading.Thread(target=work, args=(start,)) for start in range(0, 16, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            for start, counts in results.items():
                assert counts == expected[start:] + expected[:start], start
    finally:
        sys.setswitchinterval(previous)


def test_a_genus_past_the_cap_keeps_no_rows(empty_tables, monkeypatch, hz_recurrence):
    cap, genus = 4, 12
    monkeypatch.setattr(formula, "_TABLE_GENUS", cap)
    # Past the cap the closed formula's factors are built, uncached, from
    # the rows of that call.
    monkeypatch.setattr(formula, "_FACTOR_GENUS", cap)
    for g in range(genus + 1):
        for n in (max(2 * g, 1), 2 * g + 1, 2 * g + 6):
            for route in ROUTES:
                assert route(g, n) == hz_recurrence[g][n], (route.__name__, g, n)
    s = _scales(genus)
    w = _weight_rows(genus)[: genus + 1]
    expected = _definitions(genus)
    assert (s, w, _half_ratio_coeffs(s, w)) == (
        expected["scales"], expected["weights"], expected["tanh"]
    )
    assert _tables() == _definitions(cap)


def test_full_tables_hold_under_600_kb(empty_tables):
    cap = formula._TABLE_GENUS
    factorial(2 * cap + 1)  # the factorial table's own growth is not counted
    tracemalloc.start()
    try:
        s = _scales(cap)
        _half_ratio_coeffs(s, _weight_rows(cap)[: cap + 1])
        del s
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [len(table) for table in _tables().values()] == [cap + 1] * 4
    assert held < 600_000, held


def test_full_factor_cache_holds_under_800_kb(empty_tables):
    # The stated worst case: every factor at the highest cached genus, with
    # sizes and multiplicities just below 4096.
    genus = formula._FACTOR_GENUS
    _weight_rows(genus)  # the shared tables are not counted
    tracemalloc.start()
    try:
        for k in range(formula._FACTOR_CACHE_SIZE):
            formula._factor(4095 - k, 4095 - k, genus)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert formula._factor.cache_info().currsize == formula._FACTOR_CACHE_SIZE
    assert held < 800_000, held

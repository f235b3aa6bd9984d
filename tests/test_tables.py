"""The shared series tables of `formula`: the scales s_i, the
weight rows w[i] and the scaled tanh coefficients C_m. They grow on demand,
only through formula._TABLE_GENUS, and no caller changes a row. Also the
factors of the closed formula, built once per (size, multiplicity) for a
whole `table` grid, and the one reentrant lock that the shared tables and
the factorials grow under."""

import math
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import fraction_kernels
from gluecount import (
    SurfaceSignature,
    count_closed,
    count_recursive,
    gf_identity_check,
    hz_from_gluing_counts,
    hz_sum,
    hz_tanh,
)
from gluecount import cli, exact, formula
from gluecount.formula import _power, _scales, _split_sum, _weight_rows
from gluecount.hz import _half_ratio_coeffs
from gluecount.verify import _hz_recurrence

ROUTES = (hz_sum, hz_tanh, hz_from_gluing_counts)


def _tables():
    return {
        "scales": formula._SCALES,
        "weights": formula._WEIGHTS,
        "tanh": formula._HALF_RATIO,
    }


def _definitions(genus):
    """The three tables through row genus, each from its definition."""
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
        w = _weight_rows(g, s)
        _power(_half_ratio_coeffs(g, s, w)[: g + 1], 3, w)
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
    # tables.
    sigs = [
        SurfaceSignature(g, sizes)
        for g in (3, 9, 17, 30, 41)
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


def test_a_table_builds_one_factor_per_size_and_multiplicity(empty_tables, capsys, monkeypatch):
    built = []
    factor = formula._factor

    def spy(n, count, genus, s, w):
        built.append((n, count, genus))
        return factor(n, count, genus, s, w)

    monkeypatch.setattr(formula, "_factor", spy)
    assert cli.main(["table", "--max-genus", "6", "--max-holes", "5", "--max-n", "3"]) == 0
    capsys.readouterr()
    # Sizes 0-3, each 1-5 times, except five punctures alone: 19 pairs, each
    # built once, through genus 6.
    assert sorted(built) == sorted(
        (n, count, 6) for n in range(4) for count in range(1, 6) if (n, count) != (0, 5)
    )


def test_a_genus_past_the_cap_keeps_no_rows(empty_tables, monkeypatch, hz_recurrence):
    cap, genus = 4, 12
    monkeypatch.setattr(formula, "_TABLE_GENUS", cap)
    for g in range(genus + 1):
        for n in (max(2 * g, 1), 2 * g + 1, 2 * g + 6):
            for route in ROUTES:
                assert route(g, n) == hz_recurrence[g][n], (route.__name__, g, n)
    expected = _definitions(genus)
    s = _scales(genus)
    w = _weight_rows(genus, s)
    assert (s, w, _half_ratio_coeffs(genus, s, w)) == (
        expected["scales"], expected["weights"], expected["tanh"]
    )
    assert _tables() == _definitions(cap)


def test_routes_match_the_recurrence_past_the_real_cap():
    # Past the cap each call builds its rows in a copy of the tables: the
    # three routes against the recurrence there, not at a cap patched down.
    cap = formula._TABLE_GENUS
    genera = (cap + 1, cap + 5, cap + 10)
    eps = _hz_recurrence(2 * genera[-1] + 6)
    for g in genera:
        for n in (2 * g, 2 * g + 1, 2 * g + 6):
            for route in ROUTES:
                assert route(g, n) == eps[g][n], (route.__name__, g, n)


@pytest.mark.parametrize(
    "genus, sizes", [(151, (3, 2, 1)), (175, (3, 3, 2, 2, 1, 1))], ids=["g151", "g175"]
)
def test_truncated_products_past_the_cap_match_the_fraction_kernel(genus, sizes):
    # Past the cap the scales and weights are rows of a per-call copy. Three
    # distinct sizes take `_power`, a full `_times` and the last `_times`,
    # of t^genus alone, on them; the Fraction kernel shares no code with either.
    assert genus > formula._TABLE_GENUS
    assert Fraction(*_split_sum(genus, sizes)) == fraction_kernels.split_sum(genus, sizes)


def test_a_call_past_the_cap_extends_each_table_once(empty_tables, monkeypatch):
    # From tables full through the cap, a call past it extends each table it
    # reads once, in a copy: only its entry point fetches the scales and
    # weights, and a full shared table is not grown again under the lock.
    cap, genus = formula._TABLE_GENUS, 175
    sig = SurfaceSignature(genus, (3, 3, 2, 2, 1, 1))
    hz_tanh(cap, 2 * cap + 1)
    count_closed(SurfaceSignature(cap, sig.boundary_sizes))
    names = {id(table): name for name, table in _tables().items()}
    grown = formula._grown

    def spy(table, top, grow, limit):
        name = names[id(table)]

        def counted(rows, k):
            before = len(rows)
            grow(rows, k)
            calls[name] += 1
            added[name] += len(rows) - before

        return grown(table, top, counted, limit)

    monkeypatch.setattr(formula, "_grown", spy)
    calls, added = Counter(), Counter()
    hz_tanh(genus, 360)
    past = genus - cap
    assert calls == {"scales": 1, "weights": 1, "tanh": 1}
    assert added == {"scales": past, "weights": past, "tanh": past}
    calls, added = Counter(), Counter()
    count_closed(sig)
    # Its three factors are built for the call, in no shared table.
    assert calls == {"scales": 1, "weights": 1}
    assert added == {"scales": past, "weights": past}


def test_one_reentrant_lock_grows_every_table(empty_tables, monkeypatch, hz_recurrence):
    # The tanh grow calls `_factorial` under the lock, and it grows its
    # table under the same lock, so a lock that is not reentrant hangs there.
    # The calls run in daemon threads joined with a timeout: a hang fails the
    # test instead of pytest.
    def fresh():
        empty_tables()
        monkeypatch.setattr(exact, "_FACTORIALS", [1])

    def run(plans):
        results, errors = {}, []

        def work(k):
            try:
                results[k] = [call(*args) for call, args, _ in plans[k]]
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(k,), daemon=True) for k in range(len(plans))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "a call never finished"
        assert errors == []
        for k, plan in enumerate(plans):
            assert results[k] == [expected for _, _, expected in plan], k

    def tanh(g, n):
        return hz_tanh, (g, n), hz_recurrence[g][n]

    def recursive(g, n):
        sig = SurfaceSignature(g, (1,) + (0,) * (n - 2 * g))
        return count_recursive, (sig,), hz_recurrence[g][n]

    def fact(n):
        return exact._factorial, (n,), math.factorial(n)

    fresh()
    run([[tanh(20, 41)]])
    plans = [
        [tanh(3 * k + 2, 6 * k + 5 + k % 3), recursive(k % 4, 9), fact(97 * k + 300)]
        for k in range(8)
    ]
    plans = [plan[k % 3 :] + plan[: k % 3] for k, plan in enumerate(plans)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fresh()
            run(plans)
    finally:
        sys.setswitchinterval(previous)


def test_full_tables_hold_under_600_kb(empty_tables):
    cap = formula._TABLE_GENUS
    exact._factorial(2 * cap + 1)  # the factorial table's own growth is not counted
    tracemalloc.start()
    try:
        s = _scales(cap)
        _half_ratio_coeffs(cap, s, _weight_rows(cap, s))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [len(table) for table in _tables().values()] == [cap + 1] * 3
    assert held < 600_000, held

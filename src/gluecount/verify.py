"""Verification suites. Most re-derive a body of counts by independent
routes and report agreement; the structural suite checks invariants of
every raw word, and the gf-identity suite one generating-function identity.
Each suite yields its checks to `_run`, which counts them and stops at the
first failure. The CLI `verify` subcommand and the acceptance tests both
run these.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .errors import GluecountError
from .exact import _divide, _double_factorial_odd, _factorial as factorial
from .formula import SurfaceSignature, _Frozen, count_closed
from .gluing import _iter_topologies, _placed, _relabel, _topology, count_brute
from .hz import catalan, gf_identity_check, hz_from_gluing_counts, hz_sum, hz_tanh, hz_toric
from .recursion import CountTable, count_recursive

__all__ = [
    "SuiteResult",
    "suite_hz_table",
    "suite_closed_vs_recursive",
    "suite_brute_oracle",
    "suite_gf_identity",
    "suite_specializations",
    "suite_row_sums",
    "suite_structural",
    "run_suites",
    "iter_bounded_signatures",
    "iter_polygon_signatures",
]

# Classical closed-surface gluing counts for 2N-gons, N = 1..5 (rows) by
# genus (columns); long-established reference values.
HZ_TABLE = {
    (0, 1): 1,
    (0, 2): 2,
    (1, 2): 1,
    (0, 3): 5,
    (1, 3): 10,
    (0, 4): 14,
    (1, 4): 70,
    (2, 4): 21,
    (0, 5): 42,
    (1, 5): 420,
    (2, 5): 483,
}


class SuiteResult(_Frozen):
    __slots__ = ("name", "passed", "checked", "failure")
    name: str
    passed: bool
    checked: int
    failure: str | None

    def __init__(self, name: str, passed: bool, checked: int, failure: str | None = None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "failure", failure)

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.checked} checks)"
        return f"FAIL {self.name}: {self.failure}"


def iter_bounded_signatures(
    max_genus: int, max_holes: int, max_n: int
) -> Iterator[SurfaceSignature]:
    """All valid normalized signatures with g <= max_genus, L <= max_holes,
    every size <= max_n; sorted by (g, L, sizes)."""
    for g in range(max_genus + 1):
        for holes in range(1, max_holes + 1):
            descending = range(max_n, -1, -1)
            for parts in sorted(itertools.combinations_with_replacement(descending, holes)):
                if any(parts):
                    yield SurfaceSignature(g, parts)


def iter_polygon_signatures(max_polygon: int) -> Iterator[SurfaceSignature]:
    """All valid normalized signatures whose polygon has <= max_polygon edges."""
    for n in range(1, max_polygon + 1):
        for g in range(0, (n + 2) // 4 + 1):
            for holes in range(1, (n + 1 - 4 * g) // 2 + 1):
                total = n + 2 - 4 * g - 2 * holes
                descending = range(total, -1, -1)
                for parts in itertools.combinations_with_replacement(descending, holes):
                    if sum(parts) == total:
                        yield SurfaceSignature(g, parts)


def _hz_recurrence(max_n: int) -> list[list[int]]:
    """eps[g][N] for N <= max_n and g <= max_n // 2 + 1, from eps_0(0) = 1 and

        (N+1) eps_g(N) = 2(2N-1) eps_g(N-1) + (N-1)(2N-1)(2N-3) eps_{g-1}(N-2)

    (Harer & Zagier, Invent. Math. 85, 1986). It takes integers only and
    calls none of the three routes, so it checks each of them independently.
    """
    max_genus = max_n // 2 + 1
    eps = [[0] * (max_n + 1) for _ in range(max_genus + 1)]
    eps[0][0] = 1
    for n in range(1, max_n + 1):
        for g in range(max_genus + 1):
            total = 2 * (2 * n - 1) * eps[g][n - 1]
            if g and n >= 2:
                total += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps[g - 1][n - 2]
            eps[g][n] = _divide(total, n + 1, "Harer-Zagier recurrence at g={}, N={}", g, n)
    return eps


class _Broken(Exception):
    """An invariant of the structural suite's set-up, not a counted check."""


def _run(name: str, checks: Iterator[bool | str]) -> SuiteResult:
    """A suite's result from its checks, each True when it holds and its
    failure text otherwise: the first failure stops the suite, and it is
    counted. A `_Broken` raised between checks fails the suite uncounted."""
    checked = 0
    try:
        for checked, outcome in enumerate(checks, 1):
            if outcome is not True:
                return SuiteResult(name, False, checked, outcome)
    except _Broken as exc:
        return SuiteResult(name, False, checked, str(exc))
    return SuiteResult(name, True, checked)


def suite_hz_table(max_agree: int = 60) -> SuiteResult:
    """Classical table by all three routes, plus each route against the
    Harer-Zagier recurrence to N = max_agree (one check per (g, N))."""

    def checks() -> Iterator[bool | str]:
        routes = (("sum", hz_sum), ("series", hz_tanh), ("gluing", hz_from_gluing_counts))
        for n in range(1, 6):
            for g in range(0, n // 2 + 2):
                expected = HZ_TABLE.get((g, n), 0)
                for label, fn in routes:
                    got = fn(g, n)
                    yield got == expected or (
                        f"{label} route gives {got} at g={g}, N={n}, expected {expected}"
                    )
        eps = _hz_recurrence(max_agree)
        for n in range(1, max_agree + 1):
            for g in range(0, n // 2 + 2):
                a, b, c = hz_sum(g, n), hz_tanh(g, n), hz_from_gluing_counts(g, n)
                yield a == b == c == eps[g][n] or (
                    f"routes disagree at g={g}, N={n}: recurrence={eps[g][n]}, "
                    f"sum={a}, series={b}, gluing={c}"
                )

    return _run("hz-table-three-routes", checks())


def suite_closed_vs_recursive(
    max_genus: int = 3, max_holes: int = 4, max_n: int = 6
) -> SuiteResult:
    """Closed formula against the cut recursion over ordered size tuples."""

    def checks() -> Iterator[bool | str]:
        memo = CountTable()
        for g in range(max_genus + 1):
            for holes in range(1, max_holes + 1):
                for sizes in itertools.product(range(max_n + 1), repeat=holes):
                    if sum(sizes) == 0:
                        continue
                    sig = SurfaceSignature(g, sizes)
                    closed = count_closed(sig)
                    recursive = count_recursive(sig, memo)
                    yield closed == recursive or (
                        f"sig=(g={g}, ns={list(sizes)}): closed={closed}, "
                        f"recursive={recursive}"
                    )

    return _run(f"closed-vs-recursive g<={max_genus} L<={max_holes} n<={max_n}", checks())


def suite_brute_oracle(max_polygon: int = 14) -> SuiteResult:
    """The brute route against the closed formula; N <= 14 is the full-level contract."""

    def checks() -> Iterator[bool | str]:
        for sig in iter_polygon_signatures(max_polygon):
            brute = count_brute(sig)
            closed = count_closed(sig)
            yield brute == closed or (
                f"sig=(g={sig.genus}, ns={list(sig.boundary_sizes)}): "
                f"brute={brute}, closed={closed}"
            )

    return _run(f"brute-vs-closed N<={max_polygon}", checks())


def suite_gf_identity(order: int = 13) -> SuiteResult:
    """Bivariate generating-function identity, exact through x^order."""

    def checks() -> Iterator[bool | str]:
        report = gf_identity_check(order)
        yield report.holds or f"first discrepancy at (x,y) power {report.first_discrepancy}"

    return _run(f"gf-identity K={order}", checks())


def _sphere_reference(sizes: tuple[int, ...]) -> int:
    total = sum(sizes)
    holes = len(sizes)
    return _divide(
        math.prod(sizes) * factorial(total + 2 * holes - 3),
        factorial(total + holes - 1),
        "sphere reference at ns={}", sizes,
    )


def _torus_reference(sizes: tuple[int, ...]) -> int:
    total = sum(sizes)
    holes = len(sizes)
    # prod(ns)/4 * (S+2L+1)!/(S+L+1)! * sum_k (n_k+1)(n_k+2)/6, over one denominator.
    bracket = sum((n + 1) * (n + 2) for n in sizes)
    return _divide(
        math.prod(sizes) * factorial(total + 2 * holes + 1) * bracket,
        24 * factorial(total + holes + 1),
        "torus reference at ns={}", sizes,
    )


def _sphere_printed(sizes: tuple[int, ...]) -> int:
    s = sum(sizes)
    n = list(sizes)
    if len(n) == 1:
        return 1
    if len(n) == 2:
        return n[0] * n[1]
    if len(n) == 3:
        return n[0] * n[1] * n[2] * (s + 3)
    if len(n) == 4:
        return n[0] * n[1] * n[2] * n[3] * (s + 4) * (s + 5)
    if len(n) == 5:
        return n[0] * n[1] * n[2] * n[3] * n[4] * (s + 5) * (s + 6) * (s + 7)
    raise ValueError("printed sphere forms cover 1..5 boundaries")


def _torus_printed(sizes: tuple[int, ...]) -> int:
    s = sum(sizes)
    n = list(sizes)
    squares = sum(v * v for v in n)
    if len(n) == 1:
        numerator = n[0] * (n[0] + 1) * (n[0] + 2) * (n[0] + 3)
    elif len(n) == 2:
        numerator = n[0] * n[1] * (s + 4) * (s + 5) * (squares + 3 * s + 4)
    elif len(n) == 3:
        numerator = n[0] * n[1] * n[2] * (s + 5) * (s + 6) * (s + 7) * (squares + 3 * s + 6)
    elif len(n) == 4:
        numerator = (
            n[0] * n[1] * n[2] * n[3]
            * (s + 6) * (s + 7) * (s + 8) * (s + 9)
            * (squares + 3 * s + 8)
        )
    else:
        raise ValueError("printed torus forms cover 1..4 boundaries")
    return _divide(numerator, 24, "printed torus form at ns={}", sizes)


def suite_specializations(max_catalan: int = 12) -> SuiteResult:
    """Genus-0/1 reductions: Catalan and toric sequences, and the short
    polynomial forms of the sphere and torus counts."""

    def checks() -> Iterator[bool | str]:
        for n in range(1, max_catalan + 1):
            yield catalan(n) == hz_sum(0, n) or f"catalan mismatch at N={n}"
        for n in range(2, max_catalan + 1):
            yield hz_toric(n) == hz_sum(1, n) or f"toric mismatch at N={n}"
        for holes in range(1, 6):
            for sizes in itertools.product((1, 2, 3), repeat=holes):
                closed0 = count_closed(SurfaceSignature(0, sizes))
                closed1 = count_closed(SurfaceSignature(1, sizes))
                forms = [
                    ("sphere-general", _sphere_reference(sizes), closed0),
                    ("sphere-printed", _sphere_printed(sizes), closed0),
                    ("torus-general", _torus_reference(sizes), closed1),
                ]
                if holes <= 4:
                    forms.append(("torus-printed", _torus_printed(sizes), closed1))
                for label, expected, got in forms:
                    yield expected == got or (
                        f"{label} mismatch at ns={list(sizes)}: "
                        f"formula={expected}, closed={got}"
                    )

    return _run("specializations", checks())


def suite_row_sums(max_n: int = 10) -> SuiteResult:
    """Sum over genus of the closed-gluing numbers equals (2N-1)!!."""

    def checks() -> Iterator[bool | str]:
        for n in range(1, max_n + 1):
            row = sum(hz_sum(g, n) for g in range(0, n // 2 + 1))
            expected = _double_factorial_odd(n)
            yield row == expected or f"row N={n} sums to {row}, expected {expected}"

    return _run(f"row-sums N<={max_n}", checks())


def _index(
    free_pos: tuple[int, ...], slot_cycles: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """A pairing's slot cycles by position: each free slot becomes its index
    in `free_pos`, the position its label takes in a placement. Returns the
    position cycles and `succ`, where succ[i] is the position after i on its
    cycle."""
    index = {slot: i for i, slot in enumerate(free_pos)}
    positions = tuple(tuple(index[slot] for slot in cycle) for cycle in slot_cycles)
    succ = [0] * len(free_pos)
    for cycle in positions:
        for i, after in zip(cycle, cycle[1:] + cycle[:1]):
            succ[i] = after
    return positions, succ


def _trace(succ: list[int], perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Trace a word's boundaries by label, the labels 1..f placed in order
    at positions 0..f-1 (`perm`): each cycle from its least label, the
    cycles in the order of that label."""
    following = [0] * (len(perm) + 1)
    for i, after in enumerate(succ):
        following[perm[i]] = perm[after]
    traced = []
    left = len(perm)
    start = 0
    while left:
        start += 1
        label = following[start]
        if label:
            cycle = [start]
            while label != start:
                cycle.append(label)
                # Clear the entry of this label, then step to its successor.
                following[label], label = 0, following[label]
            traced.append(tuple(cycle))
            left -= len(cycle)
    return traced


def suite_structural(max_polygon: int = 9) -> SuiteResult:
    """Invariants over every raw word up to max_polygon slots.

    Each pairing is classified once: its boundary walks must partition its
    free slots, and its sizes must add up (N = sum + 4g + 2L - 2). Its slot
    cycles are then indexed once by position in the placement (`_index`).
    Each placement of labels into the free slots is one check: the word's
    label cycles, traced by label (`_trace`), are the pairing's cycles
    relabelled by `gluing._relabel`. Labels only rename slots, so the
    position cycles relabelled by the placement give what the slot cycles
    relabelled by the placed word's labels give. A pairing that breaks one
    of its own invariants fails the suite without counting a check.
    """

    def checks() -> Iterator[bool | str]:
        for n in range(1, max_polygon + 1):
            for free in range(n % 2, n + 1, 2):
                labels = tuple(range(1, free + 1))
                for free_pos, mu in _iter_topologies(n, free):
                    try:
                        genus, punctures, cycles = _topology(n, mu)
                    except GluecountError as exc:
                        raise _Broken(f"walk or classify failed for mu={mu}: {exc}") from exc
                    if sorted(itertools.chain.from_iterable(cycles)) != list(free_pos):
                        raise _Broken(
                            f"boundary walks do not partition the free slots for mu={mu}"
                        )
                    holes = len(cycles) + punctures
                    if free + 4 * genus + 2 * holes - 2 != n:
                        raise _Broken(
                            f"size bookkeeping broken for mu={mu}: "
                            f"sum={free}, g={genus}, holes={holes}, n={n}"
                        )
                    positions, succ = _index(free_pos, cycles)
                    for perm in itertools.permutations(labels):
                        yield _trace(succ, perm) == list(_relabel(positions, perm)) or (
                            f"relabelled cycles differ from the traced ones for "
                            f"mu={mu}, labels={_placed(n, free_pos, perm)}"
                        )

    return _run(f"structural-invariants N<={max_polygon}", checks())


def run_suites(level: str = "quick") -> list[SuiteResult]:
    """quick: fast cross-checks for interactive use; full: every suite at
    the size the acceptance tests pin."""
    if level == "quick":
        return [
            suite_hz_table(max_agree=6),
            suite_closed_vs_recursive(2, 3, 4),
            suite_gf_identity(8),
        ]
    if level == "full":
        return [
            suite_hz_table(max_agree=60),
            suite_closed_vs_recursive(3, 4, 6),
            suite_closed_vs_recursive(6, 3, 3),
            suite_brute_oracle(14),
            suite_gf_identity(13),
            suite_specializations(12),
            suite_row_sums(10),
            suite_structural(9),
        ]
    raise ValueError(f"unknown verify level {level!r}")

"""Verification suites: a suite that meets a disagreement reports it, and
the structural suite's trace by position agrees with a trace of the placed
word by label."""

import itertools

import pytest

from gluecount import SurfaceSignature, count_closed, count_recursive, hz_sum
from gluecount.errors import ConsistencyError
from gluecount.gluing import _iter_topologies, _placed, _topology
from gluecount.hz import GfIdentityReport
from gluecount.verify import (
    _index,
    _trace,
    run_suites,
    suite_brute_oracle,
    suite_closed_vs_recursive,
    suite_gf_identity,
    suite_hz_table,
    suite_row_sums,
    suite_specializations,
    suite_structural,
)


def hz_sum_off_at(genus, n):
    def off_by_one(g, big_n):
        return hz_sum(g, big_n) + ((g, big_n) == (genus, n))

    return off_by_one


def recursive_off_by_one(sig, memo):
    return count_recursive(sig, memo) + (sig == SurfaceSignature(1, (2, 0)))


def closed_off_by_one(sig):
    return count_closed(sig) + (sig == SurfaceSignature(1, (1, 2, 3)))


@pytest.mark.parametrize(
    "target, patch, suite, expected",
    [
        (
            "hz_sum", hz_sum_off_at(1, 7), lambda: suite_hz_table(60),
            (False, 71, "routes disagree at g=1, N=7: recurrence=12012, "
             "sum=12013, series=12012, gluing=12012"),
        ),
        (
            "count_recursive", recursive_off_by_one, lambda: suite_closed_vs_recursive(2, 2, 2),
            (False, 18, "sig=(g=1, ns=[2, 0]): closed=49, recursive=50"),
        ),
        (
            "count_closed", closed_off_by_one, lambda: suite_specializations(12),
            (False, 94, "torus-general mismatch at ns=[1, 2, 3]: formula=16302, closed=16303"),
        ),
        (
            "hz_sum", hz_sum_off_at(1, 7), lambda: suite_row_sums(10),
            (False, 7, "row N=7 sums to 135136, expected 135135"),
        ),
        (
            "gf_identity_check", lambda order: GfIdentityReport(False, (3, 2), order),
            lambda: suite_gf_identity(13),
            (False, 1, "first discrepancy at (x,y) power (3, 2)"),
        ),
    ],
    ids=["hz-table", "closed-vs-recursive", "specializations", "row-sums", "gf-identity"],
)
def test_suite_reports_first_failure(monkeypatch, target, patch, suite, expected):
    # Each suite stops at its first failed check, counts it, and names it.
    monkeypatch.setattr(f"gluecount.verify.{target}", patch)
    result = suite()
    assert (result.passed, result.checked, result.failure) == expected


def test_brute_oracle_reports_first_disagreement(monkeypatch):
    # (g=1, ns=[1]) is the 12th signature with a polygon of at most 6 edges.
    def off_by_one(sig):
        return count_closed(sig) + (sig == SurfaceSignature(1, (1,)))

    monkeypatch.setattr("gluecount.verify.count_closed", off_by_one)
    result = suite_brute_oracle(6)
    assert (result.passed, result.checked) == (False, 12)
    assert result.failure == "sig=(g=1, ns=[1]): brute=1, closed=2"
    assert result.line() == "FAIL brute-vs-closed N<=6: sig=(g=1, ns=[1]): brute=1, closed=2"


def test_structural_reports_unrotated_relabel(monkeypatch):
    # Without the rotation to the least label, the 2-gon with both edges
    # free and labels 2, 1 is the first word whose relabelled cycle differs.
    def unrotated(cycles, labels):
        return tuple(sorted(tuple(labels[k] for k in cycle) for cycle in cycles))

    monkeypatch.setattr("gluecount.verify._relabel", unrotated)
    result = suite_structural(9)
    assert (result.passed, result.checked) == (False, 4)
    assert result.line() == (
        "FAIL structural-invariants N<=9: relabelled cycles differ from the "
        "traced ones for mu=[-1, -1], labels=[2, 1]"
    )


def test_structural_reports_broken_size_bookkeeping(monkeypatch):
    # One genus too many from the 5-gons on: the first 5-gon pairing fails
    # after the 52 words of the smaller polygons were checked.
    def one_genus_more(n, mu):
        genus, punctures, cycles = _topology(n, mu)
        return genus + (n >= 5), punctures, cycles

    monkeypatch.setattr("gluecount.verify._topology", one_genus_more)
    result = suite_structural(9)
    assert (result.passed, result.checked) == (False, 52)
    assert result.failure == (
        "size bookkeeping broken for mu=[-1, 2, 1, 4, 3]: sum=1, g=1, holes=3, n=5"
    )


def test_structural_reports_failed_walk(monkeypatch):
    def walk_fails_once(n, mu):
        if n == 6 and list(mu) == [-1, 3, 4, 1, 2, -1]:
            raise ConsistencyError("corner walk revisited a corner")
        return _topology(n, mu)

    monkeypatch.setattr("gluecount.verify._topology", walk_fails_once)
    result = suite_structural(9)
    assert (result.passed, result.checked) == (False, 288)
    assert result.failure == (
        "walk or classify failed for mu=[-1, 3, 4, 1, 2, -1]: "
        "corner walk revisited a corner"
    )


def test_structural_reports_walks_that_miss_a_free_slot(monkeypatch):
    # The same pairing's walks name its paired slot 1 for its free slot 5:
    # the suite fails there, uncounted, after the same 288 checks.
    def slot_one_for_five(n, mu):
        genus, punctures, cycles = _topology(n, mu)
        if n == 6 and list(mu) == [-1, 3, 4, 1, 2, -1]:
            cycles = [tuple(1 if slot == 5 else slot for slot in cycle) for cycle in cycles]
        return genus, punctures, cycles

    monkeypatch.setattr("gluecount.verify._topology", slot_one_for_five)
    result = suite_structural(9)
    assert (result.passed, result.checked) == (False, 288)
    assert result.failure == (
        "boundary walks do not partition the free slots for mu=[-1, 3, 4, 1, 2, -1]"
    )


def test_run_suites_refuses_an_unknown_level():
    with pytest.raises(ValueError) as info:
        run_suites("x")
    assert str(info.value) == "unknown verify level 'x'"


def label_cycles(slot_cycles, labels):
    """A reference for `_trace`, on slot cycles and the placed word's labels
    rather than positions: the boundaries traced by label through a dict
    from each label to the next, each cycle from its least label, the
    cycles in the order of that label."""
    following = {
        labels[slot]: labels[after]
        for cycle in slot_cycles
        for slot, after in zip(cycle, cycle[1:] + cycle[:1])
    }
    traced = []
    while following:
        label = min(following)
        cycle = []
        while label in following:
            cycle.append(label)
            label = following.pop(label)
        traced.append(tuple(cycle))
    return traced


def test_trace_by_position_matches_trace_by_label():
    placements = 0
    for n in range(1, 8):
        for free in range(n % 2, n + 1, 2):
            for free_pos, mu in _iter_topologies(n, free):
                cycles = _topology(n, mu)[2]
                positions, succ = _index(free_pos, cycles)
                assert [[free_pos[i] for i in cycle] for cycle in positions] == [
                    list(cycle) for cycle in cycles
                ]
                for perm in itertools.permutations(range(1, free + 1)):
                    placements += 1
                    expected = label_cycles(cycles, _placed(n, free_pos, perm))
                    assert _trace(succ, perm) == expected, (mu, perm)
    assert placements == suite_structural(7).checked == 9727

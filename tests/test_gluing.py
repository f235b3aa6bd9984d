"""Explicit gluing words: surfaces, canonical forms, exhaustive counts."""

import functools
import itertools
import math
import random
import time
from functools import partial

import pytest

import reference_brute
from fraction_kernels import double_factorial_odd
from gluecount import (
    CapExceededError,
    ConsistencyError,
    DomainError,
    GluedSurface,
    GluingWord,
    ParityError,
    SurfaceSignature,
    canonicalize,
    count_brute,
    count_closed,
    enumerate_classes,
    glue,
)
from gluecount.formula import polygon_size
from gluecount.gluing import (
    _chord_classes,
    _iter_topologies,
    _placed,
    _topology,
)
from gluecount.verify import iter_polygon_signatures


def word(text):
    return GluingWord.from_letters(text)


def is_least_rotation(cycle):
    return all(cycle <= cycle[i:] + cycle[:i] for i in range(len(cycle)))


def iter_words(size, labels=()):
    """Every raw gluing word of `size` slots with these free labels: every
    pairing that leaves len(labels) slots free, with every placement of the
    labels into them. A reference stream: `enumerate_classes` only
    canonicalizes the words with the least label in slot 0."""
    for free_pos, mu in _iter_topologies(size, len(labels)):
        for perm in itertools.permutations(labels):
            yield GluingWord(tuple(mu), tuple(_placed(size, free_pos, perm)))


def rotated(w, turns):
    """The same polygon as word `w`, read starting `turns` slots further
    along."""
    n = w.size
    pairing = []
    labels = []
    for t in range(n):
        i = (t + turns) % n
        p = w.pairing[i]
        pairing.append(-1 if p == -1 else (p - turns) % n)
        labels.append(w.labels[i])
    return GluingWord(tuple(pairing), tuple(labels))


def decode(canon):
    """The word a canonical code sequence spells, labels kept: codes up to
    size // 2 name glued pairs, a larger code is a free label plus
    size // 2 + 1."""
    half = canon.size // 2
    pairing = [-1] * canon.size
    labels = [0] * canon.size
    opened = {}
    for i, code in enumerate(canon.encoded):
        if code > half:
            labels[i] = code - half - 1
        elif code in opened:
            j = opened.pop(code)
            pairing[i], pairing[j] = j, i
        else:
            opened[code] = i
    assert not opened
    return GluingWord(tuple(pairing), tuple(labels))


def test_word_validation():
    with pytest.raises(DomainError, match="at least one slot"):
        GluingWord((), ())
    with pytest.raises(DomainError, match="labels has"):
        GluingWord((-1,), (1, 2))
    with pytest.raises(DomainError, match="positive label"):
        GluingWord((-1,), (0,))
    with pytest.raises(DomainError, match="appears twice"):
        GluingWord((-1, -1), (3, 3))
    with pytest.raises(DomainError, match="out-of-range"):
        GluingWord((5, 0), (0, 0))
    with pytest.raises(DomainError, match="pair with itself"):
        GluingWord((0, 1), (0, 0))
    with pytest.raises(DomainError, match="do not pair mutually"):
        GluingWord((1, 0, 3, 3), (0, 0, 0, 0))
    with pytest.raises(DomainError, match="carry label 0"):
        GluingWord((1, 0), (5, 0))


def test_from_letters():
    w = word("a,x,a,y")
    assert w.pairing == (2, -1, 0, -1)
    assert w.labels == (0, 1, 0, 2)
    assert word("a x a y") == w
    # Commas and whitespace, in runs and of any kind, separate letters.
    for text in ["a\tx\ta\ty", "a\nx\na\ny", "a\u00a0x\u00a0a\u00a0y",
                 "a\u2003x\u2003a\u2003y", "a\u001cx\u001ca\u001cy", ",,a,,x,,,a,y,,"]:
        assert word(text) == w, repr(text)
    with pytest.raises(DomainError, match="appears 3 times"):
        word("a,a,a,x")
    # The first letter, by first appearance, that appears too often is named.
    with pytest.raises(DomainError, match="letter 'b' appears 3 times"):
        word("b,a,a,a,b,b")
    # Free letters are labelled in order of appearance, around a pair.
    w = word("x,a,y,a,z")
    assert w.pairing == (-1, 3, -1, 1, -1)
    assert w.labels == (1, 0, 2, 0, 3)
    with pytest.raises(DomainError, match="empty"):
        word("  ")


def test_glue_torus():
    s = glue(word("a,b,a,b"))
    assert s == GluedSurface(boundary_cycles=(), puncture_count=1, genus=1)


def test_glue_cylinder():
    s = glue(word("a,x,a,y"))
    assert s == GluedSurface(boundary_cycles=((1,), (2,)), puncture_count=0, genus=0)


def test_glue_disc_with_interior_point():
    s = glue(word("a,a,x,y"))
    assert s == GluedSurface(boundary_cycles=((1, 2),), puncture_count=1, genus=0)


def test_glue_sphere():
    s = glue(word("a,a"))
    assert s == GluedSurface(boundary_cycles=(), puncture_count=2, genus=0)


def test_glue_free_one_gon_is_a_disc():
    s = glue(GluingWord((-1,), (1,)))
    assert s == GluedSurface(boundary_cycles=((1,),), puncture_count=0, genus=0)


def label_runs(n):
    for free in range(n % 2, n + 1, 2):
        yield tuple(range(1, free + 1))


def test_every_small_word_builds_a_consistent_surface():
    for n in range(1, 7):
        for labels in label_runs(n):
            for w in iter_words(n, labels):
                s = glue(w)
                edge_total = sum(map(len, s.boundary_cycles))
                holes = len(s.boundary_cycles) + s.puncture_count
                assert edge_total + 4 * s.genus + 2 * holes - 2 == n
                assert s.boundary_cycles == tuple(sorted(s.boundary_cycles))
                for cycle in s.boundary_cycles:
                    assert is_least_rotation(cycle)


def union_find_topology(n, mu):
    """A reference for `_topology`, independent of its corner walk: a
    union-find merges corner i with mu[i]+1 and corner i+1 with mu[i] for
    every pair, a class no free edge touches is a puncture, and the boundary
    is walked on its own. Returns (genus, punctures, slot cycles)."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    pairs = 0
    for i in range(n):
        j = mu[i]
        if j > i:
            pairs += 1
            parent[find(i)] = find((j + 1) % n)
            parent[find((i + 1) % n)] = find(j)
    roots = [find(v) for v in range(n)]
    groups = {}
    for v, root in enumerate(roots):
        groups.setdefault(root, []).append(v)
    free = [i for i in range(n) if mu[i] == -1]
    touched = {roots[i] for i in free} | {roots[(i + 1) % n] for i in free}

    cycles = []
    walked = set()
    for start in free:
        if start in walked:
            continue
        cycle = []
        k = start
        while True:
            walked.add(k)
            cycle.append(k)
            k = (k + 1) % n
            while mu[k] != -1:
                k = (mu[k] + 1) % n
            if k == start:
                break
        cycles.append(tuple(cycle))

    euler = len(groups) - (n - pairs) + 1
    genus, odd = divmod(2 - len(cycles) - euler, 2)
    assert not odd and genus >= 0
    return genus, len(groups.keys() - touched), tuple(cycles)


def test_topology_matches_the_union_find_reference():
    checked = 0
    for n in range(1, 11):
        for free in range(n % 2, n + 1, 2):
            for _, mu in _iter_topologies(n, free):
                assert _topology(n, mu) == union_find_topology(n, mu), mu
                checked += 1
    assert checked == 13231


@pytest.mark.parametrize(
    "mu, message",
    [
        ((-1, 0), "corner walk revisited a corner"),
        ((-1, -1, 0), "corner walk revisited a corner"),
        ((0, 0), "corner walk revisited a corner"),
        ((0, 1), "does not give an integer genus"),
    ],
)
def test_topology_guards_its_invariants(mu, message):
    # Not pairings (GluingWord refuses them), but each breaks one invariant
    # the corner walk checks instead of returning a wrong surface: the hop
    # is no permutation of the corners, or slot k pairs with itself.
    with pytest.raises(ConsistencyError, match=message):
        _topology(len(mu), mu)


def test_iter_topologies_yields_each_pairing_once():
    for n, free in [(6, 0), (7, 1), (8, 2), (8, 4)]:
        yielded = list(_iter_topologies(n, free))
        expected = math.comb(n, free) * double_factorial_odd((n - free) // 2)
        assert len(yielded) == expected
        assert len({(pos, tuple(mu)) for pos, mu in yielded}) == expected
        for free_pos, mu in yielded:
            assert [i for i in range(n) if mu[i] == -1] == list(free_pos)
            assert all(mu[mu[i]] == i != mu[i] for i in range(n) if mu[i] != -1)


def test_rotation_identity_and_step():
    w = word("a,x,a,y")
    assert rotated(w, 0) == w
    assert rotated(w, 4) == w
    assert rotated(w, 1).pairing == (-1, 3, -1, 1)
    assert rotated(w, 1).labels == (1, 0, 2, 0)


def test_rotation_never_changes_class():
    rng = random.Random(20250819)
    words = list(iter_words(8, (1, 2)))
    for w in rng.sample(words, 40):
        spun = rotated(w, rng.randrange(1, 8))
        assert canonicalize(spun) == canonicalize(w)
        assert glue(spun) == glue(w)


def test_canonical_renames_pairs_but_not_labels():
    assert canonicalize(word("b,a,b,a")) == canonicalize(word("a,b,a,b"))
    assert canonicalize(word("a,a,b,b")) == canonicalize(word("b,b,a,a"))
    # Swapping which label sits where is a genuinely different marked surface.
    flipped = GluingWord((1, 0, -1, -1), (0, 0, 2, 1))
    assert canonicalize(word("a,a,x,y")) != canonicalize(flipped)
    assert canonicalize(word("a,b,a,b")) != canonicalize(word("a,a,b,b"))


def test_canonical_text():
    assert canonicalize(word("a,b,a,b")).text() == "a,b,a,b"
    assert canonicalize(word("a,x,a,y")).text() == "a,1,a,2"
    assert canonicalize(word("a,a,x,y")).text() == "a,a,1,2"
    assert canonicalize(word("x,a,a,y")).text() == "a,a,2,1"


def reference_canonical(n, mu, labels):
    """A reference for `_canonical`: per rotation, glued pairs renamed
    through a dict in order of first occurrence, the codes packed into
    bytes, the least bytes kept. Bytes cap every code at 255, so this holds
    only for small words."""
    half = n // 2
    best = b""
    for r in range(n):
        rename = {}
        row = bytearray(n)
        for t in range(n):
            i = (t + r) % n
            partner = mu[i]
            if partner < 0:
                row[t] = half + 1 + labels[i]
            else:
                row[t] = rename.setdefault(min(i, partner), len(rename))
        if not r or bytes(row) < best:
            best = bytes(row)
    return best


def test_canonical_takes_any_label_and_pair_count():
    assert canonicalize(GluingWord((-1, -1), (300, 301))).text() == "300,301"
    # 300 pairs, each slot glued to the one opposite it, then two free slots.
    big = GluingWord(
        tuple((i + 300) % 600 for i in range(600)) + (-1, -1), (0,) * 600 + (7, 3)
    )
    canon = canonicalize(big)
    assert max(canon.encoded) == 602 // 2 + 1 + 7
    decoded = decode(canon)
    assert canonicalize(decoded) == canon
    assert glue(decoded) == glue(big)


DISC = SurfaceSignature(0, (2,))


@pytest.mark.parametrize(
    "call, message",
    [
        (partial(GluingWord, (1.0, 0), (0, 0)), "pairing entry 0 must be an integer, got 1.0"),
        (partial(GluingWord, (-1, -1), (1, True)), "label 1 must be an integer, got True"),
        (partial(enumerate_classes, 4.0), "polygon size must be an integer, got 4.0"),
        (partial(enumerate_classes, True, (1,)), "polygon size must be an integer, got True"),
        (partial(enumerate_classes, 3, (1, 2.5, 3)), "free label must be an integer, got 2.5"),
    ],
    ids=repr,
)
def test_word_layer_refuses_what_is_not_an_integer(call, message):
    # A float used to raise a raw TypeError or pass into the printed classes,
    # and a bool to pass as 0 or 1.
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError
    assert str(info.value) == message


def test_enumeration_parity_and_label_checks():
    with pytest.raises(ParityError):
        enumerate_classes(3)
    with pytest.raises(ParityError):
        enumerate_classes(4, (1,))
    with pytest.raises(DomainError, match="distinct"):
        enumerate_classes(4, (1, 1))
    with pytest.raises(DomainError, match="positive"):
        enumerate_classes(4, (0, 1))
    with pytest.raises(DomainError, match="cannot fit"):
        enumerate_classes(2, (1, 2, 3))
    with pytest.raises(DomainError, match="size must be"):
        enumerate_classes(0)


def test_enumerate_two_gon():
    classes = enumerate_classes(2)
    assert len(classes) == 1
    surface = classes[0][1]
    assert (surface.genus, surface.puncture_count) == (0, 2)


def test_enumerate_closed_square():
    # Three raw pairings of four edges fall into two rotation classes:
    # the torus word and the sphere word (its two variants are rotations).
    classes = enumerate_classes(4)
    assert len(classes) == 2
    by_genus = {s.genus: s for _, s in classes}
    assert by_genus[1].puncture_count == 1
    assert by_genus[0].puncture_count == 3


def test_enumerate_square_with_two_labels():
    # 12 raw words: labels adjacent (two inequivalent label orders) or
    # opposite (one class; the swap is a half-turn).
    assert sum(1 for _ in iter_words(4, (1, 2))) == 12
    classes = enumerate_classes(4, (1, 2))
    assert len(classes) == 3
    cylinders = [s for _, s in classes if len(s.boundary_cycles) == 2]
    assert len(cylinders) == 1
    assert cylinders[0].boundary_cycles == ((1,), (2,))
    discs = [s for _, s in classes if len(s.boundary_cycles) == 1]
    assert len(discs) == 2
    assert all(s.boundary_cycles == ((1, 2),) and s.puncture_count == 1 for s in discs)


def test_enumerate_pentagon_single_label():
    # 15 raw words, every orbit of size 5: one handle class and two
    # sphere-with-extra-punctures classes.
    assert sum(1 for _ in iter_words(5, (1,))) == 15
    classes = enumerate_classes(5, (1,))
    assert len(classes) == 3
    genus_counts = sorted(s.genus for _, s in classes)
    assert genus_counts == [0, 0, 1]


@pytest.fixture(scope="module")
def canonical_classes():
    """Per (n, labels 1..f) with n <= 8: every raw word with its canonical
    form."""
    found = {}
    for n in range(1, 9):
        for labels in label_runs(n):
            found[n, labels] = [(w, canonicalize(w)) for w in iter_words(n, labels)]
    return found


def test_canonical_matches_the_byte_reference(canonical_classes):
    for words in canonical_classes.values():
        for w, canon in words:
            assert canon.encoded == tuple(reference_canonical(w.size, w.pairing, w.labels)), w
    assert sum(map(len, canonical_classes.values())) == 76192


def test_each_class_holds_n_raw_words(canonical_classes):
    # What count_brute and enumerate_classes rest on: with at least one
    # (distinct) free label no rotation fixes a word, so every class is
    # exactly n rotations.
    for (n, labels), words in canonical_classes.items():
        if labels:
            assert len(words) == n * len({canon for _, canon in words}), (n, labels)


def test_enumerate_classes_are_the_canonical_forms(canonical_classes):
    for (n, labels), words in canonical_classes.items():
        classes = {canon for _, canon in words}
        if n <= 7:
            listed = [canon for canon, _ in enumerate_classes(n, labels)]
            assert listed == sorted(classes, key=lambda c: c.encoded), (n, labels)
    # Labels other than 1..f: the least one is pinned to slot 0.
    for labels in [(5, 2), (9, 4, 7), (3, 1, 2)]:
        n = len(labels) + 2
        expected = {canonicalize(w) for w in iter_words(n, labels)}
        listed = [canon for canon, _ in enumerate_classes(n, labels)]
        assert listed == sorted(expected, key=lambda c: c.encoded), labels


def test_enumerate_representative_is_the_canonical_rotation():
    for n, labels in [(4, ()), (6, ()), (5, (1,)), (6, (3, 1)), (7, (2, 5, 1))]:
        classes = enumerate_classes(n, labels)
        for canon, surface in classes:
            decoded = decode(canon)
            assert canonicalize(decoded) == canon
            assert glue(decoded) == surface
        assert len(classes) > 1


@functools.cache
def pinned_surfaces(n, free):
    """(genus, punctures, boundary cycles) of every word on `n` slots with
    labels 1..free and label 1 in slot 0."""
    if n == 1:
        pinned = [GluingWord((-1,), (1,))]
    else:
        pinned = (
            GluingWord(
                (-1,) + tuple(p + 1 if p >= 0 else -1 for p in w.pairing), (1,) + w.labels
            )
            for w in iter_words(n - 1, tuple(range(2, free + 1)))
        )
    surfaces = [glue(w) for w in pinned]
    return [(s.genus, s.puncture_count, s.boundary_cycles) for s in surfaces]


def count_by_words(sig):
    """The per-word count, a reference for count_brute: every class holds one
    word with label 1 in slot 0; count those whose surface matches `sig`."""
    targets = []
    next_label = 1
    for size in sig.boundary_sizes:
        if size:
            targets.append(tuple(range(next_label, next_label + size)))
            next_label += size
    wanted = (sig.genus, sig.puncture_count, tuple(sorted(targets)))
    surfaces = pinned_surfaces(polygon_size(sig), sig.boundary_edge_total)
    return sum(1 for surface in surfaces if surface == wanted)


def test_placement_rule_matches_the_per_word_count():
    checked = 0
    for sig in iter_polygon_signatures(8):
        assert count_brute(sig) == count_by_words(sig), sig
        checked += 1
    assert checked == 43
    # Boundary order decides which boundary holds label 1.
    for sizes in [(1, 2, 1), (0, 1, 2), (1, 3), (0, 1, 0, 1)]:
        sig = SurfaceSignature(0, sizes)
        assert count_brute(sig) == count_by_words(sig) == count_closed(sig)


def test_count_brute_hand_values():
    # No glued slot: the polygon is a disc, one class whatever its size.
    for n in range(1, 13):
        assert count_brute(SurfaceSignature(0, (n,))) == 1
    assert count_brute(SurfaceSignature(0, (1, 1))) == 1
    assert count_brute(SurfaceSignature(1, (1,))) == 1
    assert count_brute(SurfaceSignature(0, (2, 0))) == 2
    assert count_brute(SurfaceSignature(0, (2, 1))) == 2
    assert count_brute(SurfaceSignature(2, (1,))) == 21


def test_count_brute_matches_formula_on_a_sample():
    for sig in [
        SurfaceSignature(0, (3, 2)),
        SurfaceSignature(1, (2, 0)),
        SurfaceSignature(0, (1, 1, 1)),
        SurfaceSignature(1, (1, 0)),
    ]:
        assert count_brute(sig) == count_closed(sig)


def test_count_brute_matches_the_slot0_histogram_route():
    checked = 0
    for sig in iter_polygon_signatures(12):
        assert count_brute(sig) == reference_brute.slot0_count(sig), sig
        checked += 1
    assert checked == 170


def test_chord_classes_are_the_harer_zagier_numbers(hz_recurrence):
    # The genus totals of the diagrams on m glued slots are eps_g(m/2), the
    # gluings of the m-gon, taken from the recurrence, not the three routes.
    for m in range(2, 13, 2):
        classes = _chord_classes(m)
        assert sum(classes.values()) == double_factorial_odd(m // 2), m
        by_genus = {}
        for (genus, lengths), diagrams in classes.items():
            assert sum(lengths) == m, (m, lengths)
            by_genus[genus] = by_genus.get(genus, 0) + diagrams
        assert by_genus == {g: hz_recurrence[g][m // 2] for g in range(m // 4 + 1)}, m


@pytest.mark.parametrize(
    "sig", [SurfaceSignature(0, (30, 20, 10, 0, 0)), SurfaceSignature(1, (40, 7))], ids=repr
)
def test_count_brute_reaches_large_polygons_with_few_glued_slots(sig):
    # N = 68 with 8 glued slots and N = 53 with 6: the diagrams of the glued
    # slots are walked, never the pairings of the whole polygon.
    n = polygon_size(sig)
    assert n > 50
    assert count_brute(sig) == count_closed(sig)


def test_count_brute_cap(monkeypatch):
    # The chord diagrams are bounded before any is walked: m = 16 glued
    # slots give 15!! of them, over the budget.
    def refuse(*args, **kwargs):
        raise AssertionError("walked chord diagrams")

    _chord_classes.cache_clear()
    monkeypatch.setattr("gluecount.gluing._matchings", refuse)
    with pytest.raises(CapExceededError) as info:
        count_brute(SurfaceSignature(4, (1,)))
    assert str(info.value) == "16 glued slots give more than 200000 chord diagrams to walk"
    # m = 14 gives 13!! = 135,135 diagrams, within it: the walk starts.
    with pytest.raises(AssertionError, match="walked chord diagrams"):
        count_brute(SurfaceSignature(3, (1, 1)))


def test_enumerate_classes_cap(monkeypatch):
    # The words are bounded before any is enumerated: 15!! pairings of 16
    # slots are over the budget, 13!! of 14 within it.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr("gluecount.gluing._iter_topologies", refuse)
    with pytest.raises(CapExceededError) as info:
        enumerate_classes(16)
    assert str(info.value) == (
        "16 slots with 0 free labels give more than 200000 words to canonicalize"
    )
    with pytest.raises(AssertionError, match="enumerated"):
        enumerate_classes(14)


@pytest.mark.parametrize(
    "call",
    [
        partial(count_brute, SurfaceSignature(50000, (1,))),
        partial(enumerate_classes, 200_000),
        partial(enumerate_classes, 10**6 + 1, (1,)),
    ],
    ids=["count_brute g=50000", "enumerate N=200000", "enumerate N=10**6+1 one label"],
)
def test_refusal_is_bounded_whatever_the_polygon_size(call, default_int_digit_limit):
    # The budget test stops at the first partial product past it, so it
    # never builds (N-1)!! nor prints a count past the digit limit.
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="more than 200000"):
        call()
    assert time.perf_counter() - start < 0.5


def test_word_budget_counts_the_canonicalized_words(monkeypatch):
    # With labels, the pairings that leave slot 0 free times the (f-1)!
    # placements of the other labels; with none, every pairing. A budget of
    # exactly that many words starts the walk, one less refuses it.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    def walks(n, labels, budget):
        monkeypatch.setattr("gluecount.gluing._WORD_BUDGET", budget)
        try:
            enumerate_classes(n, labels)
        except CapExceededError:
            return False
        except AssertionError:
            return True
        raise AssertionError("neither refused nor enumerated")

    monkeypatch.setattr("gluecount.gluing._iter_topologies", refuse)
    for n in range(1, 11):
        for labels in label_runs(n):
            free = len(labels)
            pairings = sum(1 for _ in _iter_topologies(n, free, pinned=bool(free)))
            words = pairings * math.factorial(max(free - 1, 0))
            assert not walks(n, labels, words - 1), (n, free)
            assert walks(n, labels, words), (n, free)
    for n, free, words in [(10, 8, 181_440), (12, 10, 19_958_400), (16, 0, 2_027_025)]:
        labels = tuple(range(1, free + 1))
        assert not walks(n, labels, words - 1), (n, free)
        assert walks(n, labels, words), (n, free)
        assert walks(n, labels, 200_000) == (words <= 200_000), (n, free)


def test_enumerate_classes_word_budget(monkeypatch):
    # Past the budget nothing is enumerated; the shape is checked first.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the word budget")

    monkeypatch.setattr("gluecount.gluing._iter_topologies", refuse)
    with pytest.raises(CapExceededError) as info:
        enumerate_classes(11, range(1, 8))
    assert str(info.value) == (
        "11 slots with 7 free labels give more than 200000 words to canonicalize"
    )
    with pytest.raises(CapExceededError, match="12 free labels give more than 200000"):
        enumerate_classes(14, range(1, 13))
    with pytest.raises(ParityError):
        enumerate_classes(12, range(1, 10))


def test_enumerate_classes_word_budget_is_inclusive(monkeypatch):
    # 15 words for six slots with two labels: five places for label 2,
    # three pairings of the other four slots.
    monkeypatch.setattr("gluecount.gluing._WORD_BUDGET", 15)
    assert len(enumerate_classes(6, (1, 2))) == 15
    monkeypatch.setattr("gluecount.gluing._WORD_BUDGET", 14)
    with pytest.raises(CapExceededError, match="more than 14 words"):
        enumerate_classes(6, (1, 2))

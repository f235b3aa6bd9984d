"""Brute-force route: explicit polygon gluing words and their surfaces.

A *gluing word* describes one way to treat the N edges of a polygon (slots
0..N-1, counterclockwise): each slot is either glued to a partner slot or
left free and carries a positive integer label. Gluing slot i to slot j
identifies edge i with edge j reversing orientation, which merges polygon
corner v_i with v_{j+1} and corner v_{i+1} with v_j (indices mod N, edge i
running from v_i to v_{i+1}).

From the merged corners the surface is read off exactly:

* euler characteristic = vertex classes - (N - glued pairs) + 1;
* free edges chain into boundary cycles: after free slot i the boundary
  continues at k = i+1, hopping k -> partner(k)+1 while k is glued;
* genus from euler = 2 - 2*genus - boundary cycles;
* a vertex class no free edge touches is a puncture (marked interior point).

Two words are equivalent iff one is a rotation of the other, with glued-pair
letters renamed consistently; free labels are never renamed. `canonicalize`
returns the least encoding over all rotations, so equal canonical forms mean
equivalent words. `count_brute` exhaustively counts equivalence classes whose
surface matches a requested signature, labels and cyclic boundary order
included (cyclic shifts only; traces are never compared reversed). A word
with a free label has no rotational symmetry, so its class is exactly its N
rotations and holds one word with label 1 in slot 0: `count_brute`
classifies only those words and needs no canonical forms.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    CapExceededError,
    ConsistencyError,
    DomainError,
    ParityError,
)
from .formula import SurfaceSignature, polygon_size

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "GluingWord",
    "GluedSurface",
    "CanonicalWord",
    "glue",
    "canonicalize",
    "iter_words",
    "enumerate_classes",
    "count_brute",
]

DEFAULT_ENUMERATION_CAP = 12

_TOKEN_SPLIT = re.compile(r"[,\s]+")


@dataclass(frozen=True)
class GluingWord:
    """One polygon word: per-slot partner index (-1 = free) and free labels.

    `labels[i]` is the positive label of free slot i and 0 at glued slots.
    """

    pairing: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        pairing = tuple(self.pairing)
        labels = tuple(self.labels)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "labels", labels)
        n = len(pairing)
        if n < 1:
            raise DomainError("a gluing word needs at least one slot")
        if len(labels) != n:
            raise DomainError(
                f"pairing has {n} slots but labels has {len(labels)} entries"
            )
        seen_labels = set()
        for i, partner in enumerate(pairing):
            if partner == -1:
                if labels[i] < 1:
                    raise DomainError(f"free slot {i} needs a positive label")
                if labels[i] in seen_labels:
                    raise DomainError(f"free label {labels[i]} appears twice")
                seen_labels.add(labels[i])
                continue
            if not 0 <= partner < n:
                raise DomainError(f"slot {i} pairs with out-of-range slot {partner}")
            if partner == i:
                raise DomainError(f"slot {i} cannot pair with itself")
            if pairing[partner] != i:
                raise DomainError(f"slots {i} and {partner} do not pair mutually")
            if labels[i] != 0:
                raise DomainError(f"glued slot {i} must carry label 0")

    @property
    def size(self) -> int:
        return len(self.pairing)

    @classmethod
    def from_letters(cls, text: str) -> "GluingWord":
        """Parse a word like "a,x,a,y": letters seen twice pair up, letters
        seen once are free and get labels 1, 2, ... in order of appearance."""
        tokens = [t for t in _TOKEN_SPLIT.split(text.strip()) if t]
        if not tokens:
            raise DomainError("empty gluing word")
        slots_by_token: dict[str, list[int]] = {}
        for i, tok in enumerate(tokens):
            slots_by_token.setdefault(tok, []).append(i)
        n = len(tokens)
        pairing = [-1] * n
        labels = [0] * n
        next_label = 1
        for tok in tokens:
            slots = slots_by_token[tok]
            if len(slots) > 2:
                raise DomainError(f"letter {tok!r} appears {len(slots)} times (max 2)")
            if len(slots) == 1 and labels[slots[0]] == 0:
                labels[slots[0]] = next_label
                next_label += 1
            elif len(slots) == 2:
                a, b = slots
                pairing[a] = b
                pairing[b] = a
        return cls(tuple(pairing), tuple(labels))

    def rotated(self, turns: int) -> "GluingWord":
        """The same polygon read starting `turns` slots further along."""
        n = self.size
        turns %= n
        pairing = []
        labels = []
        for t in range(n):
            i = (t + turns) % n
            p = self.pairing[i]
            pairing.append(-1 if p == -1 else (p - turns) % n)
            labels.append(self.labels[i])
        return GluingWord(tuple(pairing), tuple(labels))


@dataclass(frozen=True)
class GluedSurface:
    """What a gluing word builds: vertex classes, traced boundaries, topology."""

    vertex_classes: tuple[tuple[int, ...], ...]
    boundary_cycles: tuple[tuple[int, ...], ...]
    puncture_count: int
    genus: int
    euler_char: int

    @property
    def boundary_count(self) -> int:
        return len(self.boundary_cycles)

    @property
    def boundary_profile(self) -> tuple[int, ...]:
        """Boundary sizes, punctures included as zeros, non-increasing."""
        sizes = [len(c) for c in self.boundary_cycles] + [0] * self.puncture_count
        return tuple(sorted(sizes, reverse=True))


@dataclass(frozen=True)
class CanonicalWord:
    """Rotation- and renaming-invariant key for a gluing word."""

    size: int
    encoded: bytes

    def text(self) -> str:
        """Human-readable form: pair ids as letters, free labels as integers."""
        half = self.size // 2
        tokens = []
        for code in self.encoded:
            if code <= half:
                tokens.append(chr(ord("a") + code) if code < 26 else f"p{code}")
            else:
                tokens.append(str(code - half - 1))
        return ",".join(tokens)


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _min_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    if len(cycle) <= 1:
        return cycle
    doubled = cycle + cycle
    size = len(cycle)
    return min(doubled[i : i + size] for i in range(size))


def _next_free(n: int, mu: list[int] | tuple[int, ...], k: int) -> int:
    """The free slot the boundary walk reaches after free slot k: step to
    k+1, then hop j -> mu[j]+1 while slot j is glued."""
    step = (k + 1) % n
    hops = 0
    while mu[step] != -1:
        step = (mu[step] + 1) % n
        hops += 1
        if hops > n:
            raise ConsistencyError("boundary walk never reached a free slot")
    return step


def _classify(
    n: int, mu: list[int] | tuple[int, ...], labels: list[int] | tuple[int, ...]
) -> tuple[int, int, int, tuple[tuple[int, ...], ...], list[int]]:
    """Surface data for one word: (euler, genus, punctures, cycles, roots).

    `cycles` are the traced boundary label sequences, each rotated to its
    least representative and the whole collection sorted; `roots` maps each
    polygon corner to its merged-class representative.
    """
    parent = list(range(n))
    pairs = 0
    for i in range(n):
        j = mu[i]
        if j > i:
            pairs += 1
            a = _find(parent, i)
            b = _find(parent, (j + 1) % n)
            if a != b:
                parent[a] = b
            a = _find(parent, (i + 1) % n)
            b = _find(parent, j)
            if a != b:
                parent[a] = b
    roots = [_find(parent, v) for v in range(n)]
    vertex_count = len(set(roots))
    euler = vertex_count - (n - pairs) + 1

    cycles = []
    seen = [False] * n
    for start in range(n):
        if mu[start] != -1 or seen[start]:
            continue
        trace = []
        k = start
        while True:
            seen[k] = True
            trace.append(labels[k])
            k = _next_free(n, mu, k)
            if k == start:
                break
            if seen[k]:
                raise ConsistencyError("boundary walk revisited a free slot")
        cycles.append(_min_rotation(tuple(trace)))

    boundary_count = len(cycles)
    doubled_genus = 2 - boundary_count - euler
    if doubled_genus < 0 or doubled_genus % 2:
        raise ConsistencyError(
            f"euler characteristic {euler} with {boundary_count} boundaries "
            "does not give an integer genus"
        )
    genus = doubled_genus // 2

    touched = set()
    for i in range(n):
        if mu[i] == -1:
            touched.add(roots[i])
            touched.add(roots[(i + 1) % n])
    punctures = len(set(roots) - touched)
    return euler, genus, punctures, tuple(sorted(cycles)), roots


def _build_surface(
    n: int, mu: list[int] | tuple[int, ...], labels: list[int] | tuple[int, ...]
) -> GluedSurface:
    euler, genus, punctures, cycles, roots = _classify(n, mu, labels)
    groups: dict[int, list[int]] = {}
    for v, root in enumerate(roots):
        groups.setdefault(root, []).append(v)
    classes = tuple(sorted(tuple(g) for g in groups.values()))
    return GluedSurface(classes, cycles, punctures, genus, euler)


def glue(word: GluingWord) -> GluedSurface:
    """Build the surface a word describes; raises ConsistencyError only if an
    internal invariant breaks (never for a merely unusual surface)."""
    return _build_surface(word.size, word.pairing, word.labels)


def _canonical_bytes(
    n: int, mu: list[int] | tuple[int, ...], labels: list[int] | tuple[int, ...]
) -> bytes:
    half = n // 2
    best: bytes | None = None
    for r in range(n):
        rename: dict[int, int] = {}
        fresh = 0
        row = bytearray(n)
        for t in range(n):
            i = t + r
            if i >= n:
                i -= n
            partner = mu[i]
            if partner < 0:
                code = half + 1 + labels[i]
                if code > 255:
                    raise DomainError(f"free label {labels[i]} too large to encode")
            else:
                pid = i if i < partner else partner
                got = rename.get(pid)
                if got is None:
                    got = fresh
                    rename[pid] = fresh
                    fresh += 1
                code = got
            row[t] = code
        key = bytes(row)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def canonicalize(word: GluingWord) -> CanonicalWord:
    """Least encoding over all rotations; glued letters renamed by first
    occurrence, free labels kept verbatim (glued codes sort before free)."""
    return CanonicalWord(word.size, _canonical_bytes(word.size, word.pairing, word.labels))


def _validate_labels(labels: tuple[int, ...]) -> None:
    if len(set(labels)) != len(labels):
        raise DomainError("free labels must be pairwise distinct")
    for lab in labels:
        if lab < 1:
            raise DomainError(f"free labels must be positive, got {lab}")


def _pairings(positions: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not positions:
        yield ()
        return
    first = positions[0]
    rest = positions[1:]
    for idx, partner in enumerate(rest):
        remaining = rest[:idx] + rest[idx + 1 :]
        for sub in _pairings(remaining):
            yield ((first, partner),) + sub


def _iter_raw(n: int, labels: tuple[int, ...]) -> Iterator[tuple[list[int], list[int]]]:
    """Stream every raw word: all label placements x all pairings of the rest.

    Yields borrowed (mu, labels) lists that the next step may overwrite;
    callers must copy anything they keep.
    """
    if n < 1:
        raise DomainError(f"polygon size must be >= 1, got {n}")
    free = len(labels)
    if free > n:
        raise DomainError(f"{free} free labels cannot fit {n} slots")
    if (n - free) % 2:
        raise ParityError(
            f"{n} slots minus {free} free labels leaves an odd number to pair"
        )
    _validate_labels(labels)
    all_slots = range(n)
    for free_pos in itertools.combinations(all_slots, free):
        free_set = set(free_pos)
        glued_pos = tuple(i for i in all_slots if i not in free_set)
        matchings = list(_pairings(glued_pos))
        for perm in itertools.permutations(labels):
            labs = [0] * n
            for pos, lab in zip(free_pos, perm):
                labs[pos] = lab
            for matching in matchings:
                mu = [-1] * n
                for a, b in matching:
                    mu[a] = b
                    mu[b] = a
                yield mu, labs


def iter_words(size: int, free_labels: Iterable[int] = ()) -> Iterator[GluingWord]:
    """Stream every raw gluing word of `size` slots using the given labels."""
    for mu, labs in _iter_raw(size, tuple(free_labels)):
        yield GluingWord(tuple(mu), tuple(labs))


def enumerate_classes(
    size: int, free_labels: Iterable[int] = ()
) -> list[tuple[CanonicalWord, GluedSurface]]:
    """All equivalence classes of words, sorted by canonical encoding.

    Exhausts every placement of the distinct labels into `size` slots and
    every perfect pairing of the remaining slots, deduplicating by canonical
    form; one representative surface is kept per class.
    """
    labels = tuple(free_labels)
    classes: dict[bytes, GluedSurface] = {}
    for mu, labs in _iter_raw(size, labels):
        key = _canonical_bytes(size, mu, labs)
        if key not in classes:
            classes[key] = _build_surface(size, mu, labs)
    return [(CanonicalWord(size, key), classes[key]) for key in sorted(classes)]


def count_brute(sig: SurfaceSignature, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Count equivalence classes matching `sig` by exhaustive enumeration.

    Boundary k of size s gets the next s consecutive labels (1-based, in the
    order the signature lists its boundaries); a class matches when genus and
    puncture count agree and the traced cycles equal the labeled targets up
    to cyclic shift, under some assignment of traces to boundaries. Each
    class is represented by its one word with label 1 in slot 0, so only
    those words (1/N of all raw words) are built and classified. Refuses
    polygons larger than `cap` rather than grinding silently.
    """
    n = polygon_size(sig)
    if n > cap:
        raise CapExceededError(f"polygon size {n} exceeds enumeration cap {cap}")
    genus = sig.genus
    puncture_target = sig.puncture_count
    labels = tuple(range(1, sig.boundary_edge_total + 1))
    targets = []
    next_label = 1
    for size in sig.boundary_sizes:
        if size:
            targets.append(_min_rotation(tuple(range(next_label, next_label + size))))
            next_label += size
    target_cycles = tuple(sorted(targets))

    if n == 1:
        pinned: Iterable[tuple[list[int], list[int]]] = [([-1], [1])]
    else:
        pinned = (
            ([-1] + [p + 1 if p >= 0 else -1 for p in mu], [1] + labs)
            for mu, labs in _iter_raw(n - 1, labels[1:])
        )
    # Free labels are distinct and SurfaceSignature guarantees at least one,
    # so no rotation fixes a word: each class holds exactly n raw words, and
    # exactly one of them has label 1 in slot 0. Counting those counts classes.
    matches = 0
    for mu, labs in pinned:
        _, g, punct, cycles, _ = _classify(n, mu, labs)
        if g == genus and punct == puncture_target and cycles == target_cycles:
            matches += 1
    return matches

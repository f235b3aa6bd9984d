"""Brute-force route: explicit polygon gluing words and their surfaces.

A *gluing word* describes one way to treat the N edges of a polygon (slots
0..N-1, counterclockwise): each slot is either glued to a partner slot or
left free and carries a positive integer label. Gluing slot i to slot j
identifies edge i with edge j reversing orientation, which merges polygon
corner v_i with v_{j+1} and corner v_{i+1} with v_j (indices mod N, edge i
running from v_i to v_{i+1}).

Every merge is one hop: corner k of a glued slot k merges with corner
partner(k)+1. So the surface is read off the cycles of one permutation of
the corners, phi(k) = k+1 after a free slot k and phi(k) = partner(k)+1
after a glued one:

* a cycle of phi that passes free slots is one boundary: its free slots,
  in walk order, are the boundary's edges, and between two of them it
  passes the corners of one vertex class on the boundary, one per free
  slot;
* a cycle that passes no free slot is a vertex class no free edge
  touches: a puncture (marked interior point);
* euler characteristic = (free slots + punctures) - (N + free slots)/2 + 1;
* genus from euler = 2 - 2*genus - boundary cycles.

None of this depends on the labels. The genus, the punctures and the slot
cycles (the free slots in boundary-walk order) are fixed by which slots are
free and how the others pair: call that the word's *topology*. The labels
only rename the slot cycles into the traced label cycles. This is the
permutation model of maps (Lando & Zvonkin, *Graphs on Surfaces and Their
Applications*, 2004, ch. 1). So each pairing is classified once and its
label placements reuse the result.

Two words are equivalent iff one is a rotation of the other, with glued-pair
letters renamed consistently; free labels are never renamed. `canonicalize`
returns the least code sequence over all rotations, so equal canonical forms
mean equivalent words. A word with a free label has no rotational symmetry, so
its class is exactly its N rotations and holds one word with a given label
in slot 0. `count_brute` counts the classes whose surface matches a
requested signature, labels and cyclic boundary order included (cyclic
shifts only; traces are never compared reversed). A word's m glued slots,
numbered 0..m-1 in polygon order, form a chord diagram, which fixes the
genus; with the free slots left out the corner walk is sigma(j) =
partner(j) + 1, and the free slots just before glued slot j lie on the
cycle of j. So a word read from a glued slot is a diagram, a spread of each
boundary's n_i edges over the gaps of a cycle of its own, and one of the
n_i rotations of its labels; cycles left empty are punctures. Each class
holds m such words. `enumerate_classes` canonicalizes only the words with
the least label in slot 0. Both refuse, before any work, a call with more
than `_WORD_BUDGET` words or chord diagrams: that budget, not the polygon
size, is what limits the brute route.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterable, Iterator

from .errors import (
    CapExceededError,
    ConsistencyError,
    DomainError,
    ParityError,
)
from .exact import _divide, _integer
from .formula import SurfaceSignature, _Frozen, polygon_size

__all__ = [
    "GluingWord",
    "GluedSurface",
    "CanonicalWord",
    "glue",
    "canonicalize",
    "enumerate_classes",
    "count_brute",
]

# The most words one `enumerate_classes` call canonicalizes, and the most
# chord diagrams one `count_brute` call walks, whatever the polygon size:
# N = 10 with 8 labels (181,440 words), N = 15 with 1 label (135,135) and 14
# glued slots (135,135 diagrams) fit; N = 12 with 10 labels and 16 do not.
_WORD_BUDGET = 200_000


class GluingWord(_Frozen):
    """One polygon word: per-slot partner index (-1 = free) and free labels.

    `labels[i]` is the positive label of free slot i and 0 at glued slots.
    """

    __slots__ = ("pairing", "labels")
    pairing: tuple[int, ...]
    labels: tuple[int, ...]

    def __init__(self, pairing: tuple[int, ...], labels: tuple[int, ...]) -> None:
        pairing = tuple(pairing)
        labels = tuple(labels)
        n = len(pairing)
        if n < 1:
            raise DomainError("a gluing word needs at least one slot")
        if len(labels) != n:
            raise DomainError(
                f"pairing has {n} slots but labels has {len(labels)} entries"
            )
        for i in range(n):
            _integer(f"pairing entry {i}", pairing[i])
            _integer(f"label {i}", labels[i])
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
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.pairing)

    @classmethod
    def from_letters(cls, text: str) -> "GluingWord":
        """Parse a word like "a,x,a,y": letters seen twice pair up, letters
        seen once are free and get labels 1, 2, ... in order of appearance."""
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise DomainError("empty gluing word")
        slots_by_token: dict[str, list[int]] = {}
        for i, tok in enumerate(tokens):
            slots_by_token.setdefault(tok, []).append(i)
        n = len(tokens)
        pairing = [-1] * n
        labels = [0] * n
        next_label = 1
        # The letters in order of first appearance.
        for slots in slots_by_token.values():
            if len(slots) == 1:
                labels[slots[0]] = next_label
                next_label += 1
            elif len(slots) == 2:
                a, b = slots
                pairing[a] = b
                pairing[b] = a
            else:
                raise DomainError(
                    f"letter {tokens[slots[0]]!r} appears {len(slots)} times (max 2)"
                )
        return cls(tuple(pairing), tuple(labels))


class GluedSurface(_Frozen):
    """What a gluing word builds: its traced boundary label cycles (each
    from its least label, the cycles sorted), its punctures and its genus."""

    __slots__ = ("boundary_cycles", "puncture_count", "genus")
    boundary_cycles: tuple[tuple[int, ...], ...]
    puncture_count: int
    genus: int

    def __init__(
        self, boundary_cycles: tuple[tuple[int, ...], ...], puncture_count: int, genus: int
    ) -> None:
        object.__setattr__(self, "boundary_cycles", boundary_cycles)
        object.__setattr__(self, "puncture_count", puncture_count)
        object.__setattr__(self, "genus", genus)


class CanonicalWord(_Frozen):
    """Rotation- and renaming-invariant key for a gluing word."""

    __slots__ = ("size", "encoded")
    size: int
    encoded: tuple[int, ...]

    def __init__(self, size: int, encoded: tuple[int, ...]) -> None:
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "encoded", encoded)

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


Topology = tuple[int, int, tuple[tuple[int, ...], ...]]


def _topology(n: int, mu: list[int] | tuple[int, ...]) -> Topology:
    """Label-free surface data of a pairing: (genus, punctures, slot cycles),
    read off the cycles of phi (see the module docstring). The slot cycles
    are the free slots of each boundary in walk order, each starting at its
    least slot and listed by that slot, so a free slot 0 opens the first one.
    """
    seen = [False] * n
    cycles = []
    loops = 0
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        k = start
        while not seen[k]:
            seen[k] = True
            if mu[k] == -1:
                cycle.append(k)
                k = (k + 1) % n
            else:
                k = (mu[k] + 1) % n
        if k != start:
            raise ConsistencyError("corner walk revisited a corner")
        if cycle:
            least = cycle.index(min(cycle))
            cycles.append(tuple(cycle[least:] + cycle[:least]))
        else:
            loops += 1
    cycles.sort()

    free = sum(map(len, cycles))
    euler = free + loops - (n + free) // 2 + 1
    boundary_count = len(cycles)
    doubled_genus = 2 - boundary_count - euler
    if doubled_genus < 0 or doubled_genus % 2:
        raise ConsistencyError(
            f"euler characteristic {euler} with {boundary_count} boundaries "
            "does not give an integer genus"
        )
    return doubled_genus // 2, loops, tuple(cycles)


def _relabel(
    slot_cycles: tuple[tuple[int, ...], ...], labels: list[int] | tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The traced boundary label sequences of a word with these slot cycles,
    each rotated to start at its least label (free labels are distinct), the
    collection sorted."""
    traced = []
    for cycle in slot_cycles:
        sequence = [labels[k] for k in cycle]
        start = sequence.index(min(sequence))
        traced.append(tuple(sequence[start:] + sequence[:start]))
    traced.sort()
    return tuple(traced)


def _surface(topology: Topology, labels: list[int] | tuple[int, ...]) -> GluedSurface:
    """The surface of a word with this topology and these labels."""
    genus, punctures, slot_cycles = topology
    return GluedSurface(_relabel(slot_cycles, labels), punctures, genus)


def glue(word: GluingWord) -> GluedSurface:
    """Build the surface a word describes; raises ConsistencyError only if an
    internal invariant breaks (never for a merely unusual surface)."""
    return _surface(_topology(word.size, word.pairing), word.labels)


def _canonical(
    n: int, mu: list[int] | tuple[int, ...], labels: list[int] | tuple[int, ...]
) -> tuple[int, ...]:
    """The least code sequence over all rotations: read from slot r, a glued
    slot takes its partner's code when the partner came earlier and the next
    fresh code otherwise, and a free slot takes its label plus n // 2 + 1.
    A row read from a glued slot opens with code 0 and one read from a free
    slot with more, so only the glued starts are tried when there are any.
    A row is dropped at its first code above the best row's."""
    offset = n // 2 + 1
    best: list[int] = []
    for r in [r for r in range(n) if mu[r] >= 0] or range(n):
        row: list[int] = []
        fresh = 0
        tied = bool(best)  # the row so far equals the best row's prefix
        for t in range(n):
            i = t + r
            if i >= n:
                i -= n
            partner = mu[i]
            if partner < 0:
                code = offset + labels[i]
            else:
                earlier = partner - r + (n if partner < r else 0)
                if earlier < t:
                    code = row[earlier]
                else:
                    code = fresh
                    fresh += 1
            if tied:
                if code > best[t]:
                    break
                tied = code == best[t]
            row.append(code)
        else:
            best = row
    return tuple(best)


def canonicalize(word: GluingWord) -> CanonicalWord:
    """Least code sequence over all rotations; glued letters renamed by first
    occurrence, free labels kept verbatim (glued codes sort before free)."""
    return CanonicalWord(word.size, _canonical(word.size, word.pairing, word.labels))


def _matchings(mu: list[int], open_slots: tuple[int, ...]) -> Iterator[list[int]]:
    """Every pairing of the open slots, written into `mu` and yielded as a
    copy: the first open slot pairs with each of the others in turn."""
    if not open_slots:
        yield mu[:]
        return
    first = open_slots[0]
    for idx in range(1, len(open_slots)):
        partner = open_slots[idx]
        mu[first] = partner
        mu[partner] = first
        yield from _matchings(mu, open_slots[1:idx] + open_slots[idx + 1 :])


def _iter_topologies(
    n: int, free: int, pinned: bool = False
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Every topology of `n` slots with `free` of them free, that is every
    choice of free slots (with `pinned`, only those including slot 0) and
    every pairing of the rest: yields (free slots, mu). The caller checks
    that the shape is valid."""
    if pinned:
        choices: Iterable[tuple[int, ...]] = (
            (0,) + rest for rest in itertools.combinations(range(1, n), free - 1)
        )
    else:
        choices = itertools.combinations(range(n), free)
    for free_pos in choices:
        glued_pos = tuple(i for i in range(n) if i not in free_pos)
        for mu in _matchings([-1] * n, glued_pos):
            yield free_pos, mu


def _placed(n: int, free_pos: Iterable[int], labels: Iterable[int]) -> list[int]:
    """The labels of `n` slots: `labels` in the slots `free_pos`, in order,
    and 0 in every other slot."""
    labs = [0] * n
    for pos, lab in zip(free_pos, labels):
        labs[pos] = lab
    return labs


def _over_budget(factors: Iterable[int]) -> bool:
    """Whether the product of `factors` (each at least 1) exceeds
    `_WORD_BUDGET`. Stops at the first partial product over it, so a refusal
    costs a few multiplications however large the count would be."""
    products = itertools.accumulate(factors, operator.mul, initial=1)
    return any(product > _WORD_BUDGET for product in products)


def enumerate_classes(
    size: int, free_labels: Iterable[int] = ()
) -> list[tuple[CanonicalWord, GluedSurface]]:
    """All equivalence classes of words, sorted by canonical code sequence.

    Each class comes with its surface, which every word of the class
    builds. Only the words with the least label in slot 0 are
    canonicalized; with free labels each class holds exactly one of them.
    Without labels every word qualifies and a rotation can fix a word, so a
    class is kept at its first word and later ones are dropped.
    Refuses, before any enumeration, shapes with more than `_WORD_BUDGET`
    words to canonicalize. With f labels these are the C(N-1, f-1) choices
    of the other free slots, the (N-f-1)!! pairings of the rest and the
    (f-1)! placements of the other labels, (N-1)(N-2)...(N-f+1) * (N-f-1)!!
    in all; with none, the (N-1)!! pairings.
    """
    _integer("polygon size", size)
    labels = tuple(free_labels)
    for label in labels:
        _integer("free label", label)
    if size < 1:
        raise DomainError(f"polygon size must be >= 1, got {size}")
    free = len(labels)
    if free > size:
        raise DomainError(f"{free} free labels cannot fit {size} slots")
    if (size - free) % 2:
        raise ParityError(f"{size} slots minus {free} free labels leaves an odd number to pair")
    if len(set(labels)) != free:
        raise DomainError("free labels must be pairwise distinct")
    for lab in labels:
        if lab < 1:
            raise DomainError(f"free labels must be positive, got {lab}")
    factors = itertools.chain(range(size - free + 1, size), range(1, size - free, 2))
    if _over_budget(factors):
        raise CapExceededError(
            f"{size} slots with {free} free labels give more than {_WORD_BUDGET} "
            "words to canonicalize"
        )
    first, others = sorted(labels)[:1], sorted(labels)[1:]
    classes: dict[tuple[int, ...], GluedSurface] = {}
    for free_pos, mu in _iter_topologies(size, len(labels), pinned=bool(labels)):
        topology = None
        for perm in itertools.permutations(others):
            labs = _placed(size, free_pos, (*first, *perm))
            key = _canonical(size, mu, labs)
            if key not in classes:
                topology = topology or _topology(size, mu)
                classes[key] = _surface(topology, labs)
    return [(CanonicalWord(size, key), classes[key]) for key in sorted(classes)]


# Shared by every count_brute call with this many glued slots: never mutate
# the result.
@functools.cache
def _chord_classes(m: int) -> Counter:
    """The chord diagrams on `m` glued slots counted by (genus, sorted
    lengths of the sigma-cycles). Each is read as the 2m-gon whose even
    slots pair as the diagram does: one free slot after each glued slot
    makes every boundary one sigma-cycle, with the diagram's genus."""
    classes: Counter = Counter()
    for mu in _matchings([-1] * (2 * m), tuple(range(0, 2 * m, 2))):
        genus, _, cycles = _topology(2 * m, mu)
        classes[genus, tuple(sorted(map(len, cycles)))] += 1
    return classes


def count_brute(sig: SurfaceSignature) -> int:
    """Count equivalence classes matching `sig` by exhaustive enumeration.

    Boundary k of size s gets the next s consecutive labels (1-based, in the
    order the signature lists its boundaries); a class matches when genus and
    puncture count agree and the traced cycles equal the labeled targets up
    to cyclic shift, under some assignment of traces to boundaries. A chord
    diagram of the m glued slots with the signature's genus has L cycles;
    a boundary of size n_i > 0 takes one of length s in n_i * C(n_i + s - 1,
    s - 1) ways (edges over its s gaps, labels in n_i rotations). The sum
    counts each class m times, once per glued slot, so it is divided by m;
    with m = 0 the polygon is a disc, one class. The diagrams are walked
    once per m, shared by all calls, so the cost depends on m and not on N.
    Refuses, before any walk, more than `_WORD_BUDGET` chord diagrams: the
    (m-1)!! of m >= 16, whatever the polygon size.
    """
    glued = polygon_size(sig) - sig.boundary_edge_total
    if _over_budget(range(1, glued, 2)):
        raise CapExceededError(
            f"{glued} glued slots give more than {_WORD_BUDGET} chord diagrams to walk"
        )
    if not glued:
        return 1
    sizes = [size for size in sig.boundary_sizes if size]
    total = 0
    for (genus, lengths), diagrams in _chord_classes(glued).items():
        if genus == sig.genus:
            for taken in itertools.permutations(lengths, len(sizes)):
                total += diagrams * math.prod(
                    math.comb(size + s - 1, s - 1) for size, s in zip(sizes, taken)
                )
    return _divide(total * math.prod(sizes), glued, "brute count of {}", sig)

"""The slot-0 histogram route that `count_brute` replaced, kept as a test
reference.

It classifies every pairing of the polygon's slots that leaves slot 0 free,
tallies them by shape, and counts the label placements with label 1 in
slot 0 that fit a signature: C(N-1, f-1) * (N-f-1)!! corner walks per
(N, f). Its answer, `slot0_count(sig)`, is what `count_brute` must
reproduce.
"""

import functools
from collections import Counter
from math import factorial

from gluecount import SurfaceSignature
from gluecount.formula import polygon_size
from gluecount.gluing import _iter_topologies, _topology


# Shared by every count_brute call with this shape: never mutate the result.
@functools.cache
def _slot0_histogram(n: int, free: int) -> Counter:
    """The topologies of `n` slots with `free` free slots, slot 0 among them,
    counted by shape: (genus, punctures, length of slot 0's cycle, sorted
    lengths of the other cycles)."""
    histogram: Counter = Counter()
    for _, mu in _iter_topologies(n, free, pinned=True):
        genus, punctures, cycles = _topology(n, mu)
        others = tuple(sorted(len(c) for c in cycles[1:]))
        histogram[genus, punctures, len(cycles[0]), others] += 1
    return histogram


def _placements(histogram: Counter, sig: SurfaceSignature) -> int:
    """count_brute's answer for `sig`, read from the slot-0 histogram of its
    polygon size and boundary edge total.

    Label 1 sits in slot 0, so slot 0's cycle carries the boundary holding
    label 1 and exactly one placement of that boundary's labels fits it. The
    c_l other boundaries of size l take c_l other cycles of length l, in
    c_l! orders and with l cyclic shifts each.
    """
    first, *others = (size for size in sig.boundary_sizes if size)
    others.sort()
    weight = 1
    for size, count in Counter(others).items():
        weight *= factorial(count) * size**count
    # Counter's lookup of a missing shape gives 0 and inserts nothing.
    return weight * histogram[sig.genus, sig.puncture_count, first, tuple(others)]


def slot0_count(sig: SurfaceSignature) -> int:
    """count_brute's answer for `sig` by the slot-0 histogram route."""
    return _placements(_slot0_histogram(polygon_size(sig), sig.boundary_edge_total), sig)

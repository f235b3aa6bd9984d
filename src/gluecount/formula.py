"""Closed-form count of polygon edge gluings by target surface.

A *signature* names an orientable surface: a genus g together with L >= 1
polygonal boundary components of sizes n_1..n_L (a size-0 component is a
puncture, i.e. a marked interior point left by a vertex that no boundary
touches). A polygon with

    N = n_1 + ... + n_L + 4g + 2L - 2

edges admits gluings that pair off some of its edges and leave the n_i edges
of the boundaries free; `count_closed` evaluates the number of inequivalent
such gluings directly, as an exact integer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import AllPuncturesError, SignatureError
from .exact import _divide, factorial

__all__ = ["SurfaceSignature", "count_closed", "polygon_size"]


@dataclass(frozen=True)
class SurfaceSignature:
    """Target surface: genus plus the multiset of boundary sizes.

    Invalid combinations are rejected at construction time, so any instance
    in hand is safe to count. The all-punctures case (every size zero) is
    outside the scope of every counting route and gets its own error.
    """

    genus: int
    boundary_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(self.boundary_sizes)
        object.__setattr__(self, "boundary_sizes", sizes)
        if self.genus < 0:
            raise SignatureError(f"genus must be >= 0, got {self.genus}")
        if len(sizes) < 1:
            raise SignatureError("at least one boundary component is required")
        for n in sizes:
            if n < 0:
                raise SignatureError(f"boundary sizes must be >= 0, got {n}")
        if sum(sizes) == 0:
            raise AllPuncturesError(
                "all-punctures unsupported: at least one boundary size must be positive"
            )

    @property
    def holes(self) -> int:
        """Number of boundary components L (punctures included)."""
        return len(self.boundary_sizes)

    @property
    def boundary_edge_total(self) -> int:
        """Total count of free polygon edges, n_1 + ... + n_L."""
        return sum(self.boundary_sizes)

    @property
    def puncture_count(self) -> int:
        """How many boundary sizes are zero."""
        return self.boundary_sizes.count(0)

    def sorted_sizes(self) -> tuple[int, ...]:
        """Boundary sizes in non-increasing order (the normalized form)."""
        return tuple(sorted(self.boundary_sizes, reverse=True))


def polygon_size(sig: SurfaceSignature) -> int:
    """Edge count N of the polygon whose gluings produce `sig`."""
    return sig.boundary_edge_total + 4 * sig.genus + 2 * sig.holes - 2


def _power(a: list[Fraction], exponent: int) -> list[Fraction]:
    """Coefficients of t^0..t^K in a(t)**exponent, for K = len(a) - 1 and
    a[0] == 1.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with p = a**e,
    p_0 = 1 and i*p_i = sum_{j=1..i} ((e+1)*j - i) * a_j * p_(i-j). It costs
    O(K^2) whatever the exponent.
    """
    p = [Fraction(1)]
    for i in range(1, len(a)):
        acc = sum(((exponent + 1) * j - i) * a[j] * p[i - j] for j in range(1, i + 1))
        p.append(acc / i)
    return p


def _split_sum(genus: int, sizes: tuple[int, ...]) -> Fraction:
    """[t^genus] of prod_k F_{n_k}(t), F_n(t) = sum_p (2p+n)!/(n!(2p+1)!) t^p:
    the sum over splittings p_1+...+p_L = genus of prod_k [t^(p_k)] F_{n_k}.
    Each distinct size's F_n is raised to its multiplicity by `_power`, and
    the D >= 1 distinct factors are multiplied, truncated at t^genus:
    O(D*genus^2) exact operations; listing the splittings would take
    C(genus+L-1, L-1)."""
    acc = None
    for n, count in Counter(sizes).items():
        f = [
            Fraction(factorial(2 * p + n), factorial(n) * factorial(2 * p + 1))
            for p in range(genus + 1)
        ]
        if count > 1:
            f = _power(f, count)
        if acc is None:
            acc = f
        else:
            acc = [sum(acc[i] * f[k - i] for i in range(k + 1)) for k in range(genus + 1)]
    return acc[genus]


def count_closed(sig: SurfaceSignature) -> int:
    """Count inequivalent gluings yielding `sig`, via the closed formula.

    The value is a product of exact rational factors

        (1/4^g) * (1/z!) * m_1*...*m_L * (S+4g+2L-3)! / (S+2g+L-1)!

    times a sum over all ordered splittings of the genus into L non-negative
    parts (one per boundary) of

        prod_k (2p_k + n_k)! / (n_k! * (2p_k + 1)!)

    where S = sum(n_i), z = number of zero sizes, and m_k = max(n_k, 1).
    `_split_sum` takes the splitting sum in time polynomial in g and the
    number of distinct sizes.
    Every division cancels; `exact._divide` checks that it did and raises
    ConsistencyError rather than truncating.
    """
    g = sig.genus
    sizes = sig.boundary_sizes
    holes = len(sizes)
    total = sum(sizes)
    zeros = sizes.count(0)

    size_product = 1
    for n in sizes:
        size_product *= n if n > 0 else 1

    value = (
        _split_sum(g, sizes)
        * size_product
        * Fraction(
            factorial(total + 4 * g + 2 * holes - 3),
            factorial(total + 2 * g + holes - 1),
        )
        / 4**g
        / factorial(zeros)
    )
    return _divide(value.numerator, value.denominator, "closed formula for {}", sig)

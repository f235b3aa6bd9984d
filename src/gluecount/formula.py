"""Closed-form count of polygon edge gluings by target surface.

A *signature* names an orientable surface: a genus g together with L >= 1
polygonal boundary components of sizes n_1..n_L (a size-0 component is a
puncture, i.e. a marked interior point left by a vertex that no boundary
touches). A polygon with

    N = n_1 + ... + n_L + 4g + 2L - 2

edges admits gluings that pair off some of its edges and leave the n_i edges
of the boundaries free; `count_closed` evaluates the number of inequivalent
such gluings directly, as an exact integer.

The integer series behind it and behind `hz.hz_tanh` are three row tables
shared by the process, all kept here: the scales s_i (`_scales`), the
product weights w[i][j] (`_weight_rows`) and the scaled tanh coefficients
C_m (`_half_ratio_coeffs`). Row i of each depends only on rows below it,
never on the genus asked for, so a call extends a table through
`exact._grown` by the rows it lacks (none at import), and every later call
reads a prefix. A row is checked once, when it is made: each of its
divisions goes through `exact._divide`. The tables are kept through genus
_TABLE_GENUS = 150. A higher genus computes its extra rows once, for that
call only: only the entry points fetch them, and pass them on. The
splitting sum's factors F_n(t)^c are built per call.

`table` takes a grid of size tuples through `_closed_columns`. A tuple's
product, truncated at the grid's highest genus, is its prefix tuple's
product times one factor, and its first coefficients serve every lower
genus. The terms of the quotient that depend on the sizes alone (L, S, z!
and the product of the m_k) are taken once per tuple, by `_quotients`,
which `count_closed` calls for its one genus.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable, Iterator

from .errors import AllPuncturesError, SignatureError
from .exact import _divide, _grown, _factorial as factorial

__all__ = ["SurfaceSignature", "count_closed", "polygon_size"]


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its two or more fields in `__slots__` and sets each
    once in its `__init__` through `object.__setattr__`. An instance equals
    only an instance of the same class with equal fields, hashes as the
    tuple of its fields, reprs as `Name(field=value, ...)`, refuses
    assignment and deletion with `AttributeError`, and pickles and copies
    by calling its class on its fields. It is written out so that no
    command pays for importing the standard library's class generator, which
    took a third of the start-up.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__
        # One getter per class reads all the fields in one C call; a
        # generator over the names made hashing 4 and equality 12 times slower.
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields(self)


class SurfaceSignature(_Frozen):
    """Target surface: genus plus the multiset of boundary sizes.

    Invalid combinations are rejected at construction time, so any instance
    in hand is safe to count. The all-punctures case (every size zero) is
    outside the scope of every counting route and gets its own error.
    """

    __slots__ = ("genus", "boundary_sizes")
    genus: int
    boundary_sizes: tuple[int, ...]

    def __init__(self, genus: int, boundary_sizes: tuple[int, ...]) -> None:
        sizes = tuple(boundary_sizes)
        # A bool is an int to Python, but no genus or size. A float equal to
        # an int would hash as that int in the caches of every route.
        if type(genus) is not int:
            raise SignatureError(f"genus must be an integer, got {genus!r}")
        for n in sizes:
            if type(n) is not int:
                raise SignatureError(f"boundary sizes must be integers, got {n!r}")
        if genus < 0:
            raise SignatureError(f"genus must be >= 0, got {genus}")
        if len(sizes) < 1:
            raise SignatureError("at least one boundary component is required")
        for n in sizes:
            if n < 0:
                raise SignatureError(f"boundary sizes must be >= 0, got {n}")
        if sum(sizes) == 0:
            raise AllPuncturesError(
                "all-punctures unsupported: at least one boundary size must be positive"
            )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "boundary_sizes", sizes)

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


# The shared tables of the module docstring. The cap bounds what one large
# genus pins: the weights take O(g^3 log g) bits.
_TABLE_GENUS = 150
_SCALES = [1]
_WEIGHTS = [[1]]
_HALF_RATIO = [1]


def _grow_scales(s: list[int], genus: int) -> None:
    """Append rows len(s)..genus of the scales s, checking through `_divide`
    that 2i+1 divides each new s_i, as `_factor` needs."""
    start = len(s)
    # s_i / s_(i-1) is 4 times the odd primes q for which (q-1)/2 divides i;
    # the primes come from a sieve of the odd numbers up to 2*genus+1.
    steps = [4] * (genus + 1 - start)
    top = 2 * genus + 1
    composite = bytearray(top + 1)
    for q in range(3, top + 1, 2):
        if not composite[q]:
            composite[q * q :: 2 * q] = b"\1" * len(range(q * q, top + 1, 2 * q))
            d = (q - 1) // 2
            for i in range(-(-start // d) * d - start, genus + 1 - start, d):
                steps[i] *= q
    for i, step in enumerate(steps, start):
        s.append(s[-1] * step)
        _divide(s[i], 2 * i + 1, "scale s_{} over 2i+1", i)


def _weight_rows(genus: int, s: list[int]) -> list[list[int]]:
    """The product weights w[i][j] = s_i / (s_j * s_(i-j)), rows 0..genus
    (see `exact._grown`), from the scales s of `_scales` through row genus.

    Since floor(x) + floor(y) <= floor(x+y), s_j * s_(i-j) divides s_i, so
    each weight is an integer, and coefficient i of a truncated product of
    two scaled series is the integer sum_j w[i][j] * A_j * B_(i-j).
    """

    def grow(w: list[list[int]], top: int) -> None:
        for i in range(len(w), top + 1):
            # w[i][j] = w[i][i-j]: divide for j <= i/2 and mirror.
            half = [_divide(s[i], s[j] * s[i - j], "weight w[{}][{}]", i, j)
                    for j in range(i // 2 + 1)]
            w.append(half + half[(i - 1) // 2 :: -1])

    return _grown(_WEIGHTS, genus, grow, _TABLE_GENUS)


def _scales(genus: int) -> list[int]:
    """The coefficient scales s_0..s_genus of the integer series (see
    `exact._grown`).

    s_i is the product over primes q <= 2i+1 of q^floor(2i/(q-1)). A series
    with rational coefficients a_i is kept as the integers A_i = s_i * a_i.
    s_i is a multiple of 4^i and of 2i+1 (a prime power q^e dividing 2i+1
    has e*(q-1) <= q^e - 1 <= 2i), and has O(i log i) bits. One scale d^i
    for every coefficient would need d divisible by each prime up to
    2*genus+1, and O(i*genus) bits.
    """
    return _grown(_SCALES, genus, _grow_scales, _TABLE_GENUS)


def _half_ratio_coeffs(genus: int, s: list[int], w: list[list[int]]) -> list[int]:
    """C_m = s_m * c_m for m <= genus (see `exact._grown`), where c_m is
    the coefficient of x^(2m) in (x/2)/tanh(x/2), from the scales s and
    weights w through row genus.

    The series is even, so it is kept as a series in x^2. c_m is
    B_(2m)/(2m)!, whose denominator divides s_m (von Staudt-Clausen and
    Legendre's formula), so every C_m is an integer and C_0 = 1. It is
    cosh(x/2) divided by sinh(x/2)/(x/2), whose coefficients 1/(4^k (2k)!)
    and 1/(4^k (2k+1)!) are cleared by 4^m (2m+1)!, so the x=0 pole never
    appears, and

        4^m (2m+1)! C_m = s_m (2m+1)
            - sum_{k=1..m} w[m][k] s_k 4^(m-k) (2m+1)!/(2k+1)! C_(m-k).

    A failed division names the genus of this call.
    """

    def grow(out: list[int], top: int) -> None:
        for m in range(len(out), top + 1):
            acc = s[m] * (2 * m + 1)
            weight = 1  # 4^(m-k) (2m+1)!/(2k+1)!, for k = m down to 1
            for k in range(m, 0, -1):
                acc -= weight * w[m][k] * s[k] * out[m - k]
                weight *= 8 * k * (2 * k + 1)
            denominator = 4**m * factorial(2 * m + 1)
            out.append(_divide(acc, denominator, "tanh coefficient {} at g={}", m, genus))

    return _grown(_HALF_RATIO, genus, grow, _TABLE_GENUS)


def _power(a: list[int], exponent: int, w: list[list[int]]) -> list[int]:
    """The coefficients of a(t)**exponent through t^K for K = len(a) - 1,
    on an integer scale whose product weights are w (see `_weight_rows`),
    with a[0] == 1.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with p = a**e,
    p_0 = 1 and i*p_i = sum_{j=1..i} ((e+1)*j - i) * a_j * p_(i-j), so row
    i needs only rows below it; on the scaled coefficients each term carries
    the weight w[i][j]. It costs O(K^2) whatever the exponent. The power's
    scaled coefficients are integers, so each step's division by i is exact
    and goes through `_divide`.
    """
    # This module's inner sums (here, in `_times` and in
    # `_half_ratio_coeffs`) are plain loops: at g <= 12 a generator in sum()
    # took about a third of this function's time.
    p = [1]
    e1 = exponent + 1
    for i in range(1, len(a)):
        wi = w[i]
        acc = 0
        for j in range(1, i + 1):
            acc += (e1 * j - i) * wi[j] * a[j] * p[i - j]
        p.append(_divide(acc, i, "Miller's power step at t^{}, exponent {}", i, exponent))
    return p


def _factor(n: int, count: int, genus: int, s: list[int], w: list | None) -> list[int]:
    """Scaled coefficients of t^0..t^genus of F_n(t)**count (see
    `_split_sum`), from the scales s and, when count > 1, the weight rows w,
    through row genus."""
    # Exact: `_grow_scales` checked that 2i+1 divides each s_i.
    f = [math.comb(2 * i + n, n) * (s[i] // (2 * i + 1)) for i in range(genus + 1)]
    return _power(f, count, w) if count > 1 else f


def _times(a: list[int], b: list[int], w: list[list[int]], genus: int, low: int = 0) -> list[int]:
    """Scaled coefficients of t^low..t^genus of a(t)*b(t), at O(genus) each."""
    out = []
    for k in range(low, genus + 1):
        wk = w[k]
        acc = 0
        for i in range(k + 1):
            acc += wk[i] * a[i] * b[k - i]
        out.append(acc)
    return out


def _split_sum(genus: int, sizes: tuple[int, ...]) -> tuple[int, int]:
    """[t^genus] of prod_k F_{n_k}(t), F_n(t) = sum_p (2p+n)!/(n!(2p+1)!) t^p,
    as an integer numerator over its scale s_genus (see `_scales`).

    The coefficient is the sum over splittings p_1+...+p_L = genus of
    prod_k [t^(p_k)] F_{n_k}. F_n is kept as its scaled coefficients
    C(2p+n, n) * s_p/(2p+1). Each distinct size's series is raised to its
    multiplicity by `_power`, at O(genus^2) integer operations, giving
    D >= 1 factors (`_factor`). The first D-1 factors are multiplied,
    truncated at t^genus, at O(genus^2) per product (`_times`), and only
    [t^genus] of their product with the last is taken, at O(genus), by the
    same `_times`. Listing the splittings would take C(genus+L-1, L-1) terms.
    The scaled coefficients grow to O(genus log N) bits for a polygon of N
    edges, O(genus log genus) for fixed sizes, so each operation costs more
    as genus grows and the time grows faster than genus^2.
    """
    s = _scales(genus)
    # One boundary takes no product.
    w = _weight_rows(genus, s) if len(sizes) > 1 else None
    factors = [_factor(n, count, genus, s, w) for n, count in Counter(sizes).items()]
    acc = factors[0]
    if len(factors) == 1:
        return acc[genus], s[genus]
    for f in factors[1:-1]:
        acc = _times(acc, f, w, genus)
    [value] = _times(acc, factors[-1], w, genus, genus)
    return value, s[genus]


def _closed_columns(max_genus: int, size_tuples: list[tuple[int, ...]]) -> Iterator[list[int]]:
    """Each tuple's closed counts at genus 0..max_genus, in turn: a product
    truncated at t^max_genus serves every lower genus as a prefix.

    A tuple's product is its prefix's times one factor, at one `_times`;
    the prefix is the tuple without its last (size, multiplicity) group.
    In the grid order of `verify.iter_bounded_signatures` every prefix is
    an earlier tuple; any other prefix is built on demand. The products,
    single factors among them, are kept for this call only. An empty grid
    fetches no row.
    """
    if not size_tuples:
        return
    s = _scales(max_genus)
    # Single boundaries take no product.
    w = _weight_rows(max_genus, s) if any(len(sizes) > 1 for sizes in size_tuples) else None
    products: dict[tuple[tuple[int, int], ...], list[int]] = {}

    def product(groups: tuple[tuple[int, int], ...]) -> list[int]:
        acc = products.get(groups)
        if acc is None:
            if len(groups) == 1:
                acc = _factor(*groups[0], max_genus, s, w)
            else:
                acc = _times(product(groups[:-1]), product(groups[-1:]), w, max_genus)
            products[groups] = acc
        return acc

    for sizes in size_tuples:
        yield _quotients(sizes, 0, zip(product(tuple(Counter(sizes).items())), s))


def _quotients(sizes: tuple[int, ...], genus: int, sums: Iterable[tuple[int, int]]) -> list[int]:
    """The closed counts of `sizes` at genus, genus+1, ..., one per
    splitting sum value/scale in `sums` (see `count_closed`). The terms that
    depend on the sizes alone are taken once for the whole column."""
    holes, total = len(sizes), sum(sizes)
    size_product = math.prod(filter(None, sizes))  # each m_k = max(n_k, 1)
    zeros = factorial(sizes.count(0))
    what = "closed formula for SurfaceSignature(genus={}, boundary_sizes={})"
    return [
        _divide(
            value * size_product * factorial(total + 4 * g + 2 * holes - 3),
            scale * factorial(total + 2 * g + holes - 1) * 4**g * zeros,
            what, g, sizes,
        )
        for g, (value, scale) in enumerate(sums, genus)
    ]


def count_closed(sig: SurfaceSignature) -> int:
    """Count inequivalent gluings yielding `sig`, via the closed formula.

    The value is a product of exact rational factors

        (1/4^g) * (1/z!) * m_1*...*m_L * (S+4g+2L-3)! / (S+2g+L-1)!

    times a sum over all ordered splittings of the genus into L non-negative
    parts (one per boundary) of

        prod_k (2p_k + n_k)! / (n_k! * (2p_k + 1)!)

    where S = sum(n_i), z = number of zero sizes, and m_k = max(n_k, 1).
    `_split_sum` takes the splitting sum in time polynomial in g and the
    number of distinct sizes, as an integer over its scale, so the count is
    one quotient of integers. It cancels; `exact._divide` checks that it
    did and raises ConsistencyError rather than truncating.
    """
    sizes = sig.boundary_sizes
    [count] = _quotients(sizes, sig.genus, [_split_sum(sig.genus, sizes)])
    return count

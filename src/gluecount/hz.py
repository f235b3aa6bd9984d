"""Harer-Zagier numbers by three routes, plus classical checks.

eps_g(N) counts complete pairwise gluings of a 2N-gon into a closed
orientable genus-g surface. Three ways to compute it live here:

* ``hz_sum``          -- a finite sum over genus splittings (the reference route),
  shared with the closed formula: its N-2g+1 equal factors make one power;
* ``hz_tanh``         -- coefficient extraction from ((x/2)/tanh(x/2))^(N+1),
  a power of the scaled coefficients of (x/2)/tanh(x/2). ``formula._power``
  (Miller's recurrence) takes both powers;
* ``hz_from_gluing_counts`` -- the boundary specialization: a genus-g surface
  with one 1-gon boundary and N-2g punctures is produced by gluings of the
  same 2N-gon with one edge left free, so the polygon count with signature
  (g, [1, 0, ..., 0]) equals eps_g(N).

The routes are not independent: hz_sum and hz_from_gluing_counts both
evaluate `formula._split_sum`, and hz_tanh shares `formula._power`,
`_scales` and `_weight_rows` with it. The independent check is
`verify._hz_recurrence`, which takes integers only.

For N < 2g every route returns 0 (the table's empty cells). All values are
exact integers.

``gf_identity_check`` tests hz_sum against the bivariate generating function
((1+x)/(1-x))^y, whose coefficients come from the recurrence of
(1-x^2) F' = 2y F. The series routines here are private: each computes only
the coefficients its caller reads, as integers. The splitting sum and
(x/2)/tanh(x/2) keep each rational coefficient a_m as the integer s_m * a_m,
on the scales s_m of `formula._scales`; hz_sum and hz_tanh divide s_g back
out once, at the end, through `exact._divide`. The scaled tanh coefficients
C_m are the third of `formula`'s shared row tables, whose docstring states
how the three grow, how far they are kept and where each row is checked.
The generating function keeps k! times its x^k coefficient and is compared
cross-multiplied.
"""

from __future__ import annotations

from .errors import DomainError
from .exact import _divide, _double_factorial_odd, _integer, _factorial as factorial
from .formula import (
    SurfaceSignature, _Frozen, _half_ratio_coeffs, _power, _scales, _split_sum, _weight_rows,
    count_closed,
)

__all__ = [
    "hz_sum",
    "hz_tanh",
    "hz_from_gluing_counts",
    "catalan",
    "hz_toric",
    "gf_identity_check",
    "GfIdentityReport",
]


def _validate(genus: int, n: int) -> None:
    _integer("genus", genus)
    _integer("N", n)
    if genus < 0:
        raise DomainError(f"genus must be >= 0, got {genus}")
    if n < 1:
        raise DomainError(f"N must be >= 1, got {n}")


def hz_sum(genus: int, n: int) -> int:
    """eps_g(N) by the splitting sum.

    With L = N - 2g + 1 vertices on the glued surface,

        eps_g(N) = (1/4^g) * (2N)! / (L! * N!) * sum over splittings
                   p_1+...+p_L = g of prod_k 1/(2p_k + 1).

    This is the splitting sum of `count_closed` with every size 0, whose
    factor (2p)!/(2p+1)! is 1/(2p+1); `formula._split_sum` evaluates it as
    one power of that single factor, as an integer over its scale.
    """
    _validate(genus, n)
    if n < 2 * genus:
        return 0
    parts = n - 2 * genus + 1
    value, scale = _split_sum(genus, (0,) * parts)
    denominator = scale * factorial(parts) * factorial(n) * 4**genus
    return _divide(value * factorial(2 * n), denominator, "hz_sum at g={}, N={}", genus, n)


def hz_tanh(genus: int, n: int) -> int:
    """eps_g(N) by series coefficient extraction:

        eps_g(N) = (2N)! / ((N+1)! (N-2g)!) * [x^(2g)] ((x/2)/tanh(x/2))^(N+1).

    The power is taken on the scaled coefficients of `_half_ratio_coeffs`,
    so its x^(2g) coefficient comes s_g times too large and is divided back.
    """
    _validate(genus, n)
    if n < 2 * genus:
        return 0
    s = _scales(genus)
    w = _weight_rows(genus, s)
    c = _power(_half_ratio_coeffs(genus, s, w)[: genus + 1], n + 1, w)[genus]
    denominator = factorial(n + 1) * factorial(n - 2 * genus) * s[genus]
    return _divide(factorial(2 * n) * c, denominator, "hz_tanh at g={}, N={}", genus, n)


def hz_from_gluing_counts(genus: int, n: int) -> int:
    """eps_g(N) as the polygon gluing count with one 1-gon boundary.

    The 2N-gon with a single free edge glues to genus g with one boundary of
    size 1 plus N-2g punctures; that signature's count is eps_g(N).
    """
    _validate(genus, n)
    if n < 2 * genus:
        return 0
    holes = n - 2 * genus + 1
    sig = SurfaceSignature(genus, (1,) + (0,) * (holes - 1))
    return count_closed(sig)


def catalan(n: int) -> int:
    """eps_0(N) = (2N)!/((N+1)! N!), the Catalan numbers."""
    _validate(0, n)
    return _divide(factorial(2 * n), factorial(n + 1) * factorial(n), "catalan at N={}", n)


def hz_toric(n: int) -> int:
    """eps_1(N) = (1/12) (2N)!/((N-2)! N!) for N >= 2."""
    _validate(1, n)
    if n < 2:
        raise DomainError(f"hz_toric requires N >= 2, got {n}")
    denominator = 12 * factorial(n - 2) * factorial(n)
    return _divide(factorial(2 * n), denominator, "hz_toric at N={}", n)


class GfIdentityReport(_Frozen):
    """Outcome of gf_identity_check: exact equality or the first bad spot."""

    __slots__ = ("holds", "first_discrepancy", "order")
    holds: bool
    first_discrepancy: tuple[int, int] | None
    order: int

    def __init__(self, holds: bool, first_discrepancy: tuple[int, int] | None, order: int) -> None:
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "first_discrepancy", first_discrepancy)
        object.__setattr__(self, "order", order)


def _ratio_power_coeffs(order: int) -> list[list[int]]:
    """k! times ((1+x)/(1-x))^y through x^order >= 1: entry k lists the
    y^0..y^order coefficients of F_k = k! * [x^k].

    F = ((1+x)/(1-x))^y satisfies (1-x^2) F' = 2y F, so its x^k coefficients
    obey (k+1) f_(k+1) = 2y f_k + (k-1) f_(k-1), with f_0 = 1 and f_1 = 2y.
    Times (k+1)! that is F_(k+1) = 2y F_k + k(k-1) F_(k-1), over the integers.
    """
    width = order + 1
    f = [[0] * width for _ in range(order + 1)]
    f[0][0] = 1
    f[1][1] = 2
    for k in range(1, order):
        for j in range(width):
            shifted = 2 * f[k][j - 1] if j else 0
            f[k + 1][j] = shifted + k * (k - 1) * f[k - 1][j]
    return f


def gf_identity_check(order: int) -> GfIdentityReport:
    """Check the bivariate generating-function identity through x^order:

        1 + 2 * sum_{g>=0} sum_{N>=2g} eps_g(N) x^(N+1) y^(N-2g+1) / (2N-1)!!
            = ((1+x)/(1-x))^y.

    The left side is assembled from hz_sum values (the N=0 seed term is the
    empty gluing, eps_0(0)=1, whose 2xy term the identity needs at order 1);
    the right side comes from the differential equation (1-x^2) F' = 2y F,
    which does not use hz_sum. Both sides are kept as integers: the left
    side's x^(N+1) holds 2*eps_g(N), its numerator over (2N-1)!!, and the
    right side's x^k holds k! times the coefficient, so the two are compared
    cross-multiplied. Returns whether every coefficient through x^order
    matches, and if not, the smallest (x_power, y_power) where the two sides
    differ.
    """
    _integer("order", order)
    if order < 1:
        raise DomainError(f"gf_identity_check requires order >= 1, got {order}")

    lhs = [[0] * (order + 1) for _ in range(order + 1)]
    lhs[0][0] = 1
    for n in range(0, order):
        for g in range(0, n // 2 + 1):
            eps = 1 if n == 0 else hz_sum(g, n)
            lhs[n + 1][n - 2 * g + 1] += 2 * eps
    rhs = _ratio_power_coeffs(order)

    for xp in range(order + 1):
        lhs_scale = factorial(xp)
        rhs_scale = _double_factorial_odd(max(xp - 1, 0))
        for yp in range(order + 1):
            if lhs[xp][yp] * lhs_scale != rhs[xp][yp] * rhs_scale:
                return GfIdentityReport(False, (xp, yp), order)
    return GfIdentityReport(True, None, order)

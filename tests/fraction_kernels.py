"""The Fraction kernels that gluecount's integer series replaced, kept as
test references.

Each computes the unscaled rational coefficients that the package's integer
kernels carry multiplied by their scales. They are slower and share no
code with the package, so agreement with them checks the scaling and every
exact division behind it.
"""

from collections import Counter
from fractions import Fraction
from math import factorial


def double_factorial_odd(n):
    """(2n-1)!! = 1*3*5*...*(2n-1) for n >= 0, as (2n)!/(2^n n!)."""
    return factorial(2 * n) // (2**n * factorial(n))


def power(a, exponent):
    """a(t)**exponent through t^(len(a)-1) for a[0] == 1, by J.C.P. Miller's
    recurrence i*p_i = sum_{j=1..i} ((e+1)*j - i) * a_j * p_(i-j)."""
    p = [Fraction(1)]
    for i in range(1, len(a)):
        acc = sum(((exponent + 1) * j - i) * a[j] * p[i - j] for j in range(1, i + 1))
        p.append(acc / i)
    return p


def split_sum(genus, sizes):
    """[t^genus] of prod_k F_{n_k}(t), F_n(t) = sum_p (2p+n)!/(n!(2p+1)!) t^p."""
    acc = None
    for n, count in Counter(sizes).items():
        f = [
            Fraction(factorial(2 * p + n), factorial(n) * factorial(2 * p + 1))
            for p in range(genus + 1)
        ]
        if count > 1:
            f = power(f, count)
        if acc is None:
            acc = f
        else:
            acc = [sum(acc[i] * f[k - i] for i in range(k + 1)) for k in range(genus + 1)]
    return acc[genus]


def half_ratio_coeffs(genus):
    """Coefficients of x^0, x^2, ..., x^(2*genus) in (x/2)/tanh(x/2): cosh(x/2)
    divided by sinh(x/2)/(x/2)."""
    cosh_half = [Fraction(1, 4**k * factorial(2 * k)) for k in range(genus + 1)]
    sinh_ratio = [Fraction(1, 4**k * factorial(2 * k + 1)) for k in range(genus + 1)]
    out = []
    for m in range(genus + 1):
        out.append(cosh_half[m] - sum(sinh_ratio[k] * out[m - k] for k in range(1, m + 1)))
    return out


def ratio_power_coeffs(order):
    """((1+x)/(1-x))^y through x^order >= 1: entry k lists the y^0..y^order
    coefficients of x^k, from (k+1) f_(k+1) = 2y f_k + (k-1) f_(k-1)."""
    width = order + 1
    f = [[Fraction(0)] * width for _ in range(order + 1)]
    f[0][0] = Fraction(1)
    f[1][1] = Fraction(2)
    for k in range(1, order):
        for j in range(width):
            shifted = 2 * f[k][j - 1] if j else 0
            f[k + 1][j] = (shifted + (k - 1) * f[k - 1][j]) / (k + 1)
    return f


def hz_sum(genus, n):
    """eps_g(N) = (2N)!/(4^g L! N!) * [t^g] F_0(t)^L with L = N - 2g + 1,
    for N >= 2g."""
    parts = n - 2 * genus + 1
    return (
        split_sum(genus, (0,) * parts)
        * Fraction(factorial(2 * n), factorial(parts) * factorial(n))
        / 4**genus
    )


def hz_tanh(genus, n):
    """eps_g(N) = (2N)!/((N+1)! (N-2g)!) * [x^(2g)] ((x/2)/tanh(x/2))^(N+1),
    for N >= 2g."""
    c = power(half_ratio_coeffs(genus), n + 1)[genus]
    return Fraction(factorial(2 * n), factorial(n + 1) * factorial(n - 2 * genus)) * c


def gf_first_discrepancy(order, eps):
    """The smallest (x_power, y_power) through x^order where
    1 + 2 * sum eps(g, N) x^(N+1) y^(N-2g+1) / (2N-1)!! and
    ((1+x)/(1-x))^y differ, or None; eps(g, N) for N >= 1."""
    lhs = [[Fraction(0)] * (order + 1) for _ in range(order + 1)]
    lhs[0][0] = Fraction(1)
    for n in range(order):
        for g in range(n // 2 + 1):
            value = 1 if n == 0 else eps(g, n)
            lhs[n + 1][n - 2 * g + 1] += Fraction(2 * value, double_factorial_odd(n))
    rhs = ratio_power_coeffs(order)
    for xp in range(order + 1):
        for yp in range(order + 1):
            if lhs[xp][yp] != rhs[xp][yp]:
                return (xp, yp)
    return None

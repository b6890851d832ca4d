"""Gaussian binomials, cyclotomic factorizations, and (r|k)_u coefficients.

The Gaussian binomial B(m, k) is an integer polynomial in z, built by the
product formula prod_{i=1}^{k} (1 - z^(m-k+i)) / (1 - z^i) on one int list.
The generalized binomial (r|k)_u is a rational number, built by one banded
row walk of the Lucasnomial Pascal rule (Fontene, Ward; Gould)

    (m|j)_u = u_{j+1} (m-1|j)_u - q u_{m-j-1} (m-1|j-1)_u

on Fractions read from one ``SequenceTable``. It stays finite even when
the naive quotient u_r ... u_{r-k+1} / (u_k ... u_1) hits a zero term.

The paper defines (r|k)_u as F(r, k, sigma, tau), where F is B(r, k)
homogenized to a symmetric bivariate polynomial and sigma, tau are the
roots of x^2 - p x + q. ``bivariate_F`` and ``HomogeneousBiPoly`` keep
that definition; the tests evaluate it over Q(sqrt(d)) as the oracle for
the Pascal rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .poly import Poly, _power, _terms_str
from .sequences import RecurrenceParams, SequenceTable, _table_for


def _check_k(m: int, k: int) -> None:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not 0 <= k <= m:
        raise ValueError(f"k must lie in [0, {m}], got {k}")


def gaussian_binomial(m: int, k: int) -> Poly:
    """The Gaussian binomial as a polynomial in z, by the product formula.

    Factor i multiplies by 1 - z^(m-k+i) from the top down, then divides
    exactly by 1 - z^i from the bottom up. No term above degree k(m-k)
    ever reaches a lower one, so the list never grows.

    >>> gaussian_binomial(4, 2).coeffs
    [1, 1, 2, 1, 1]
    """
    _check_k(m, k)
    k = min(k, m - k)
    top = k * (m - k)
    c = [1] + [0] * top
    for i in range(1, k + 1):
        e = m - k + i
        for j in range(top, e - 1, -1):
            c[j] -= c[j - e]
        for j in range(i, top + 1):
            c[j] += c[j - i]
    return Poly(c)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial, by dividing z^n - 1 by the proper ones.

    >>> cyclotomic_poly(6).coeffs
    [1, -1, 1]
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = Poly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            out = out.divexact(cyclotomic_poly(d))
    return out


def cyclotomic_exponent(m: int, k: int, d: int) -> int:
    """Multiplicity of the d-th cyclotomic polynomial in B(m, k)."""
    return m // d - k // d - (m - k) // d


def gaussian_cyclotomic_factorization(m: int, k: int) -> list[tuple[int, int]]:
    """The (d, e_d) pairs with e_d > 0 whose product reconstructs B(m, k)."""
    _check_k(m, k)
    out = []
    for d in range(2, m + 1):
        e = cyclotomic_exponent(m, k, d)
        if e:
            out.append((d, e))
    return out


@dataclass(frozen=True)
class HomogeneousBiPoly:
    """Homogeneous polynomial in (x, y): coeffs[i] multiplies x^(t-i) y^i."""

    total_degree: int
    coeffs: tuple

    def __post_init__(self) -> None:
        cs = tuple(self.coeffs)
        if len(cs) != self.total_degree + 1:
            raise ValueError("coefficient list must have length total_degree + 1")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _from_poly(cls, t: int, poly: Poly) -> HomogeneousBiPoly:
        if poly.degree > t:
            raise ValueError("coefficients exceed the declared total degree")
        return cls(t, tuple(poly[i] for i in range(t + 1)))

    def _as_poly(self) -> Poly:
        return Poly(self.coeffs)

    def __mul__(self, other: HomogeneousBiPoly) -> HomogeneousBiPoly:
        t = self.total_degree + other.total_degree
        return self._from_poly(t, self._as_poly() * other._as_poly())

    def divexact(self, other: HomogeneousBiPoly) -> HomogeneousBiPoly:
        t = self.total_degree - other.total_degree
        if t < 0:
            raise ValueError("divisor has larger total degree")
        return self._from_poly(t, self._as_poly().divexact(other._as_poly()))

    def evaluate(self, x, y):
        """Sum of coeffs[i] * x^(t-i) * y^i over any exact ring."""
        t = self.total_degree
        xp, yp = [1], [1]
        for _ in range(t):
            xp.append(xp[-1] * x)
            yp.append(yp[-1] * y)
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c != 0:
                acc = acc + c * xp[t - i] * yp[i]
        return acc

    def swap(self) -> HomogeneousBiPoly:
        """The image under x <-> y."""
        return HomogeneousBiPoly(self.total_degree, tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        t = self.total_degree
        return _terms_str(
            (c, "*".join(filter(None, (_power("x", t - i), _power("y", i)))))
            for i, c in enumerate(self.coeffs)
        )


def homogeneous_f(i: int) -> HomogeneousBiPoly:
    """f_i(x, y) = (x^i - y^i)/(x - y): all-ones, total degree i - 1."""
    if i < 1:
        raise ValueError("i must be positive")
    return HomogeneousBiPoly(i - 1, (1,) * i)


def bivariate_F(r: int, k: int) -> HomogeneousBiPoly:
    """F(r, k, x, y): the Gaussian binomial B(r, k) homogenized by y^{k(r-k)}.

    Substituting z = x/y into B and clearing with y^{k(r-k)} sends the z^j
    term to x^j y^{t-j}, so coeffs[i] = b_{t-i}. Palindromy of B makes F
    symmetric under x <-> y.
    """
    b = gaussian_binomial(r, k)
    t = k * (r - k)
    return HomogeneousBiPoly(t, tuple(b[t - i] for i in range(t + 1)))


def _lucasnomial_band(
    params: RecurrenceParams, r: int, k_lo: int, k_hi: int, table: SequenceTable | None = None
) -> list[Fraction]:
    """(r|k_lo)_u .. (r|k_hi)_u by the Lucasnomial Pascal rule, over Q.

    Row m keeps the columns k_lo - (r - m) .. k_hi, clipped to 0 .. m, that row r reads.
    A passed ``table`` must hold ``params``.
    """
    t = _table_for(params, table)
    u = [t.u(i) for i in range(r + 1)]
    qu = [params.q * x for x in u]
    one = Fraction(1)
    lo_prev, row = 0, [one]
    for m in range(1, r + 1):
        lo = max(0, k_lo - (r - m))
        row = [one if j == 0 or j == m
               else u[j + 1] * row[j - lo_prev] - qu[m - j - 1] * row[j - 1 - lo_prev]
               for j in range(lo, min(k_hi, m) + 1)]
        lo_prev = lo
    return row


def generalized_binomial_row(
    params: RecurrenceParams, r: int, table: SequenceTable | None = None
) -> list[Fraction]:
    """The row [(r|0)_u, ..., (r|r)_u], every entry a finite rational.

    A passed ``table`` must hold ``params``.

    >>> [int(c) for c in generalized_binomial_row(RecurrenceParams(1, -1), 5)]
    [1, 5, 15, 15, 5, 1]
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    return _lucasnomial_band(params, r, 0, r, table)


def generalized_binomial(params: RecurrenceParams, r: int, k: int) -> Fraction:
    """(r|k)_u by the Lucasnomial Pascal rule, always a finite rational.

    The rule only adds and multiplies, so a zero u-term never divides;
    it equals the paper's F(r, k, sigma, tau), which the tests check.
    Only the band of (m|j) entries that (r|k) depends on is computed.
    """
    _check_k(r, k)
    return _lucasnomial_band(params, r, k, k)[0]


def generalized_binomial_quotient(params: RecurrenceParams, r: int, k: int) -> Fraction:
    """(r|k)_u as u_r u_{r-1} ... u_{r-k+1} / (u_k u_{k-1} ... u_1).

    Raises ZeroDivisionError when some u_1..u_k vanishes; the Pascal rule
    above is the route that is total.
    """
    _check_k(r, k)
    t = SequenceTable(params)
    num = Fraction(1)
    den = Fraction(1)
    for i in range(1, k + 1):
        num *= t.u(r - k + i)
        den *= t.u(i)
    if den == 0:
        raise ZeroDivisionError("a denominator term u_i is zero")
    return num / den

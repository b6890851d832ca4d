"""Characteristic polynomials of sequence powers and their factor structure.

Phi_n(p, q, x) is defined as the monic degree-(n+1) product over the root
multiset {sigma^j tau^(n-j)}: it annihilates the n-th powers of every
solution of X_r = p X_{r-1} - q X_{r-2}. Conjugation pairs sigma^j tau^(n-j)
with sigma^(n-j) tau^j, so the product is taken over Q, one rational quadratic
per pair, which reads w_n and q^n; its expansion over Q(sqrt(d)) is kept only
as a test oracle. The closed coefficient formula is the second route: it reads
u_n through one row of generalized binomials. The Fibonacci factorization sets
the two against each other, with a sign computed rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

# generalized_binomial is not called here; perfbench/selftest.py checks its alias in this module.
from .binomials import generalized_binomial, generalized_binomial_row  # noqa: F401
from .numeric import FactorizationIncompleteError, is_rational_square, squarefree_decompose
from .poly import Poly
from .sequences import FIBONACCI, RecurrenceParams, SequenceTable, _table_for


class FactorizationSignError(ArithmeticError):
    """The sign the leading coefficients force does not make the factorization exact."""


class GaloisGroup(Enum):
    Z2 = "Z2"
    TRIVIAL = "Trivial"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class GaloisClassification:
    """Splitting-field shape of x^2 - p x + q (and hence of every Phi_n).

    For Z2, ``d`` is the squarefree radicand of D = p^2 - 4q when trial
    division up to ``numeric.DEFAULT_FACTOR_BOUND`` certifies it; past that
    bound it is the unreduced radicand num(D) * den(D), which carries D's
    sign and generates the same field. Otherwise ``d`` is 1.
    """

    variant: GaloisGroup
    d: int

    def __str__(self) -> str:
        if self.variant is GaloisGroup.Z2:
            return f"Z2 over Q(sqrt({self.d}))"
        return self.variant.value


def classify_galois(params: RecurrenceParams) -> GaloisClassification:
    """Degenerate when D = 0, Trivial when D is a nonzero square, else Z2.

    The verdict needs no factoring; only the reported radicand does.
    """
    disc = params.discriminant
    if disc == 0:
        return GaloisClassification(GaloisGroup.DEGENERATE, 1)
    if is_rational_square(disc) is not None:
        return GaloisClassification(GaloisGroup.TRIVIAL, 1)
    try:
        d = squarefree_decompose(disc).d
    except FactorizationIncompleteError:
        d = disc.numerator * disc.denominator
    return GaloisClassification(GaloisGroup.Z2, d)


def _conjugate_pair(table: SequenceTable, n: int, j: int) -> Poly:
    """x^2 - q^j w_(n-2j) x + q^n: roots sigma^j tau^(n-j) and sigma^(n-j) tau^j."""
    return Poly([table.q_power(n), -table.q_power(j) * table.w(n - 2 * j), Fraction(1)])


def phi_product(params: RecurrenceParams, n: int, table: SequenceTable | None = None) -> Poly:
    """Phi_n as the root product prod_{j=0}^{n} (x - sigma^j tau^(n-j)), over Q.

    Conjugation pairs root j with root n - j, so the product is the
    (n+1)//2 quadratics of ``_conjugate_pair`` for j < n/2, times the
    self-conjugate middle root (x - q^(n/2)) when n is even. A passed
    ``table`` must hold ``params``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = _table_for(params, table)
    phi = Poly([-t.q_power(n // 2), Fraction(1)] if n % 2 == 0 else [Fraction(1)])
    for j in range((n + 1) // 2):
        phi = phi * _conjugate_pair(t, n, j)
    return phi


def phi_coeff_formula(params: RecurrenceParams, n: int, table: SequenceTable | None = None) -> Poly:
    """Phi_n by the closed coefficient formula, degree-consistent form.

    The coefficient of x^(n+1-i) is (-1)^i q^(i(i-1)/2) ((n+1)|i)_u for
    0 <= i <= n+1, which reproduces x^2 - p x + q at n = 1 and agrees with
    the root product everywhere it has been swept. All n+2 binomials come
    from one Lucasnomial row, built over Q by the Pascal rule, so this
    route shares no code with the conjugate-pair product. A passed
    ``table`` must hold ``params``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = params.q
    desc = []
    for i, b in enumerate(generalized_binomial_row(params, n + 1, table=table)):
        c = b * q ** (i * (i - 1) // 2)
        desc.append(-c if i % 2 else c)
    return Poly.from_descending(desc)


def quadratic_factor(params: RecurrenceParams, n: int, table: SequenceTable | None = None) -> Poly:
    """f_n(x) = x^2 - w_n x + q^n, the minimal relation of sigma^n over Q.

    The j = 0 conjugate pair of Phi_n: whenever sigma^n != tau^n its roots
    are two of Phi_n's roots (j = 0 and j = n), so f_n divides Phi_n exactly.
    A passed ``table`` must hold ``params``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _conjugate_pair(_table_for(params, table), n, 0)


def fibonacci_factorization(n: int, table: SequenceTable | None = None) -> tuple[Poly, Poly, int]:
    """Split Phi_n(1, -1, x) as sign * (x^2 - L_n x + (-1)^n) * Phi_{n-2}(1, -1, -x).

    Returns (quadratic, reversed tail, sign) with the unique sign that makes
    the product exact. Degree bookkeeping forces sign = (-1)^(n-1): x -> -x scales
    the leading coefficient of the degree-(n-1) tail by (-1)^(n-1), and the left side
    is monic. So the sign is read from the product's leading coefficient, then checked.

    Phi_n comes from the Lucasnomial row of ``phi_coeff_formula``, which
    reads u; the quadratic and the tail are conjugate-pair products, which
    read w. The two sides share no code, so a wrong u_n or w_n shows too.
    A passed ``table`` must hold p = 1, q = -1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    t = _table_for(FIBONACCI, table)
    phi = phi_coeff_formula(FIBONACCI, n, table=t)
    quad = quadratic_factor(FIBONACCI, n, table=t)
    tail = phi_product(FIBONACCI, n - 2, table=t).compose_negate()
    product = quad * tail
    sign = int(product.coeffs[-1])
    if (product if sign == 1 else -product) != phi:
        raise FactorizationSignError(f"sign {sign} does not make the factorization exact at n={n}")
    return quad, tail, sign

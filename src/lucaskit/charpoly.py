"""Characteristic polynomials of sequence powers and their factor structure.

Phi_n(p, q, x) is defined as the monic degree-(n+1) product over the root
multiset {sigma^j tau^(n-j)}: it annihilates the n-th powers of every
solution of X_r = p X_{r-1} - q X_{r-2}. Everything else here is checked
against that product: the closed coefficient formula through generalized
binomials, the quadratic factor x^2 - w_n x + q^n, and the Fibonacci
factorization whose sign is computed rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .binomials import generalized_binomial
from .numeric import is_rational_square, squarefree_decompose
from .poly import Poly
from .quadfield import QuadExt, make_roots, rational_value
from .sequences import FIBONACCI, RecurrenceParams, SequenceTable


class FactorizationSignError(ArithmeticError):
    """Neither sign choice made the claimed factorization exact."""


class GaloisGroup(Enum):
    Z2 = "Z2"
    TRIVIAL = "Trivial"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class GaloisClassification:
    """Splitting-field shape of x^2 - p x + q (and hence of every Phi_n)."""

    variant: GaloisGroup
    d: int

    def __str__(self) -> str:
        if self.variant is GaloisGroup.Z2:
            return f"Z2 over Q(sqrt({self.d}))"
        return self.variant.value


def classify_galois(params: RecurrenceParams) -> GaloisClassification:
    """Degenerate when D = 0, Trivial when D is a nonzero square, else Z2."""
    disc = params.discriminant
    if disc == 0:
        return GaloisClassification(GaloisGroup.DEGENERATE, 1)
    if is_rational_square(disc) is not None:
        return GaloisClassification(GaloisGroup.TRIVIAL, 1)
    return GaloisClassification(GaloisGroup.Z2, squarefree_decompose(disc).d)


def phi_product(params: RecurrenceParams, n: int) -> Poly:
    """Phi_n as the expanded product prod_{j=0}^{n} (x - sigma^j tau^(n-j)).

    The root multiset is stable under conjugation, so after expanding over
    Q(sqrt(d)) every coefficient must land back on the rational line; a
    coefficient that does not raises immediately.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    sigma, tau = make_roots(params)
    sig_pow = [QuadExt(Fraction(1))]
    tau_pow = [QuadExt(Fraction(1))]
    for _ in range(n):
        sig_pow.append(sig_pow[-1] * sigma)
        tau_pow.append(tau_pow[-1] * tau)
    expanded = Poly.from_roots(sig_pow[j] * tau_pow[n - j] for j in range(n + 1))

    def to_rational(c):
        if isinstance(c, QuadExt):
            return rational_value(c, "characteristic polynomial coefficient")
        return Fraction(c)

    return expanded.map_coeffs(to_rational)


def phi_coeff_formula(params: RecurrenceParams, n: int) -> Poly:
    """Phi_n by the closed coefficient formula, degree-consistent form.

    The coefficient of x^(n+1-i) is (-1)^i q^(i(i-1)/2) ((n+1)|i)_u for
    0 <= i <= n+1, which reproduces x^2 - p x + q at n = 1 and agrees with
    the root product everywhere it has been swept.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = params.q
    desc = []
    for i in range(n + 2):
        c = generalized_binomial(params, n + 1, i) * q ** (i * (i - 1) // 2)
        desc.append(-c if i % 2 else c)
    return Poly.from_descending(desc)


def quadratic_factor(params: RecurrenceParams, n: int) -> Poly:
    """f_n(x) = x^2 - w_n x + q^n, the minimal relation of sigma^n over Q.

    Whenever sigma^n != tau^n its two roots sit inside the root multiset of
    Phi_n (at j = 0 and j = n), so f_n divides Phi_n exactly.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    table = SequenceTable(params)
    return Poly([table.q_power(n), -table.w(n), Fraction(1)])


def fibonacci_factorization(n: int) -> tuple[Poly, Poly, int]:
    """Split Phi_n(1, -1, x) as sign * (x^2 - L_n x + (-1)^n) * Phi_{n-2}(1, -1, -x).

    Returns (quadratic, reversed tail, sign) with the unique sign that makes
    the product exact. Degree bookkeeping forces sign = (-1)^(n-1): the tail
    has odd-or-even degree n-1, so negating x scales its leading coefficient
    by (-1)^(n-1), and the left side is monic.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    phi = phi_product(FIBONACCI, n)
    quad = quadratic_factor(FIBONACCI, n)
    tail = phi_product(FIBONACCI, n - 2).compose_negate()
    product = quad * tail
    signs = [s for s, signed in ((1, product), (-1, -product)) if signed == phi]
    if len(signs) != 1:
        raise FactorizationSignError(f"{len(signs)} signs satisfy the factorization at n={n}")
    return quad, tail, signs[0]

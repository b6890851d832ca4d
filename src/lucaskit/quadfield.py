"""Exact arithmetic in Q(sqrt(d)) for a fixed non-square integer d.

Elements are ``a + b*sqrt(d)`` with rational a, b. No real embedding is
ever taken, so negative d works the same as positive d: everything here
is algebra on the pair (a, b).

Rational elements are canonicalized to context d = 1 (with the sqrt(1)
folded into a), which lets scalars mix freely with any context while a
product of genuinely irrational elements from different fields still
raises ``ContextMismatchError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .numeric import as_fraction, is_rational_square

if TYPE_CHECKING:  # pragma: no cover
    from .sequences import RecurrenceParams


class ContextMismatchError(ValueError):
    """Two elements with different irrational radicands were combined."""


class IrrationalResultError(ArithmeticError):
    """An expression that conjugation should fix evaluated off the rational line."""


@dataclass(frozen=True)
class QuadExt:
    """The element a + b*sqrt(d), with d a fixed non-square integer.

    >>> QuadExt(1, 1, 5) * QuadExt(1, -1, 5)
    QuadExt(a=Fraction(-4, 1), b=Fraction(0, 1), d=1)
    """

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 1

    def __post_init__(self) -> None:
        a = as_fraction(self.a)
        b = as_fraction(self.b)
        d = self.d
        if not isinstance(d, int):
            raise TypeError("d must be a plain int")
        if d == 0:
            raise ValueError("d must be nonzero")
        if d == 1:
            a, b = a + b, Fraction(0)
        elif b == 0:
            d = 1  # rational values live in the canonical context
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    # -- scalar promotion and context plumbing -------------------------------

    @staticmethod
    def _coerce(value: QuadExt | Fraction | int) -> QuadExt | None:
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExt(as_fraction(value), Fraction(0), 1)
        return None

    def _join(self, other: QuadExt) -> int:
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise ContextMismatchError(
            f"cannot combine elements of Q(sqrt({self.d})) and Q(sqrt({other.d}))"
        )

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join(o)
        return QuadExt(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadExt:
        """Square-and-multiply; negative exponents go through ``inv``."""
        if n < 0:
            return self.inv() ** (-n)
        result = QuadExt(Fraction(1), Fraction(0), 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # canonical form makes rational values context-free
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.d == o.d)

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)  # must agree with == against scalars
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- field-specific operations --------------------------------------------

    def conjugate(self) -> QuadExt:
        """The image under sqrt(d) -> -sqrt(d), the nontrivial automorphism."""
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """a^2 - b^2 d, the product with the conjugate. Multiplicative."""
        return self.a * self.a - self.b * self.b * self.d

    def trace(self) -> Fraction:
        """2a, the sum with the conjugate. Additive."""
        return 2 * self.a

    def inv(self) -> QuadExt:
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(d))")
        n = self.norm()
        return QuadExt(self.a / n, -self.b / n, self.d)

    def is_rational(self) -> Fraction | None:
        """The value as a Fraction when b == 0, else None."""
        return self.a if self.b == 0 else None

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        b = f"{self.b}*" if abs(self.b) != 1 else ("-" if self.b < 0 else "")
        sign = "" if self.b < 0 or self.a == 0 else "+"
        head = "" if self.a == 0 else str(self.a)
        return f"{head}{sign}{b}√{self.d}"


def rational_value(x: QuadExt, what: str = "expression") -> Fraction:
    """Unwrap a QuadExt that must be rational, raising if it is not."""
    r = x.is_rational()
    if r is None:
        raise IrrationalResultError(f"{what} evaluated to {x}, expected a rational")
    return r


def make_roots(params: "RecurrenceParams") -> tuple[QuadExt, QuadExt]:
    """The two roots of x^2 - p x + q as exact elements of Q(sqrt(d)).

    With the discriminant D = a/b in lowest terms and not a square, d = a*b
    is a non-square integer with D = d / b^2, so nothing is factored; sigma
    carries the +sqrt(d) branch. A zero discriminant gives sigma == tau ==
    p/2 and a perfect-square discriminant collapses to rational roots
    (d == 1), so callers never branch on the shape of the splitting field.
    """
    disc = params.discriminant
    half_p = params.p / 2
    root = is_rational_square(disc)
    if root is not None:
        half_s, d = root / 2, 1
    else:
        half_s, d = Fraction(1, 2 * disc.denominator), disc.numerator * disc.denominator
    return QuadExt(half_p, half_s, d), QuadExt(half_p, -half_s, d)

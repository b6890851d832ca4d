"""Dense univariate polynomials over any exact commutative ring.

Coefficients only need +, -, *, == against 0 and int scalars; Fraction,
int and QuadExt all qualify. Division is exact or it raises: there is no
floating point anywhere and no silent truncation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class InexactDivisionError(ArithmeticError):
    """Polynomial or coefficient division left a nonzero remainder."""


def _exact_coeff_div(a, b):
    """a / b in the coefficient ring, raising if the quotient is not exact."""
    if isinstance(a, int) and isinstance(b, int):
        quot, rem = divmod(a, b)
        if rem:
            raise InexactDivisionError(f"{a} is not divisible by {b}")
        return quot
    return a / b


def _power(var: str, e: int) -> str:
    """var^e as text: "" at e = 0 and var at e = 1."""
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _terms_str(terms: Iterable[tuple]) -> str:
    """(coefficient, monomial text) pairs as a signed sum, skipping zeros; "0" if none is left."""
    parts = []
    for c, mono in terms:
        if c == 0:
            continue
        if not mono:
            term = str(c)
        else:
            term = mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}"
        if parts:
            term = f"- {term[1:]}" if term.startswith("-") else f"+ {term}"
        parts.append(term)
    return " ".join(parts) or "0"


class Poly:
    """Polynomial stored as an ascending coefficient list, normalized."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def from_descending(cls, coeffs: Sequence) -> Poly:
        return cls(reversed(coeffs))

    @classmethod
    def x(cls) -> Poly:
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots: Iterable) -> Poly:
        """The monic polynomial prod (x - r) over the given roots."""
        out = cls([1])
        for r in roots:
            out = out * cls([-r, 1])
        return out

    # -- structure -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ([other] if other != 0 else [])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs))

    def __getitem__(self, i: int):
        """Coefficient of x^i, zero beyond the degree."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def descending(self) -> list:
        """Coefficients from the leading term down, [] for the zero polynomial."""
        return list(reversed(self.coeffs))

    # -- ring operations ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)) or hasattr(value, "conjugate"):
            return Poly([value])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self[i] + o[i] for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

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
        if not self or not o:
            return Poly()
        # a coefficient no term reaches is the ring's zero, not int 0
        zero = 0 * (self.coeffs[-1] * o.coeffs[-1])
        out = [zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Long division; each leading-coefficient quotient must be exact."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = o.coeffs[-1]
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly(), Poly(rem)
        # an unreached quotient coefficient is the ring's zero, as in __mul__
        quot = [_exact_coeff_div(0 * rem[-1], lead)] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(o.coeffs) - 1]
            if c == 0:
                continue
            q = _exact_coeff_div(c, lead)
            quot[k] = q
            for j, b in enumerate(o.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return Poly(quot), Poly(rem)

    def divexact(self, other: Poly) -> Poly:
        quot, rem = divmod(self, other)
        if rem:
            raise InexactDivisionError("polynomial division left a remainder")
        return quot

    # -- evaluation and transforms -------------------------------------------------

    def __call__(self, x):
        """Evaluate by Horner's rule; works for any value the ring multiplies with."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_negate(self) -> Poly:
        """p(-x): flip the sign of every odd coefficient."""
        return Poly(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))

    def map_coeffs(self, f) -> Poly:
        return Poly(f(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    def __str__(self) -> str:
        return _terms_str((c, _power("x", i)) for i, c in reversed(list(enumerate(self.coeffs))))

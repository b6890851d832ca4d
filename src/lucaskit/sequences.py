"""Companion sequences of the recurrence X_r = p X_{r-1} - q X_{r-2}.

For rational parameters (p, q) this module computes the pair

    u: 0, 1, p, p^2 - q, ...        (seeds u_0 = 0, u_1 = 1)
    w: 2, p, p^2 - 2q, ...          (seeds w_0 = 2, w_1 = p)

by plain iteration, by closed form in Q(sqrt(d)), and by index doubling.
All routes return exact Fractions and agree with each other; the doubling
route additionally reports how many multiplications it spent, which makes
the asymptotic advantage over iteration checkable rather than anecdotal.

The canonical routes, ``SequenceTable`` and ``fast_pair``, compute on ints.
With lam = lcm(den p, den q), the values U_n = lam^(n-1) u_n and
W_n = lam^n w_n are integers satisfying the same recurrence at
(lam p, lam^2 q), so the work is integer arithmetic and each result
becomes a Fraction once, by one division by a power of lam (none when p
and q are integers). ``iter_pair`` stays on Fractions as the independent
oracle the tests compare them against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .numeric import as_fraction
from .quadfield import make_roots, rational_value


class DegenerateDiscriminantError(ArithmeticError):
    """p^2 - 4q = 0, so a formula dividing by the root gap does not apply."""


@dataclass(frozen=True)
class RecurrenceParams:
    """The rational parameter pair (p, q) of X_r = p X_{r-1} - q X_{r-2}."""

    p: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "q", as_fraction(self.q))

    @cached_property
    def discriminant(self) -> Fraction:
        return self.p * self.p - 4 * self.q

    @property
    def is_degenerate(self) -> bool:
        return self.discriminant == 0

    def __str__(self) -> str:
        return f"(p={self.p}, q={self.q})"


FIBONACCI = RecurrenceParams(Fraction(1), Fraction(-1))


class MulCounter:
    """Tallies the multiplications an algorithm routes through it."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def mul(self, a, b):
        self.count += 1
        return a * b


def _scaled(params: RecurrenceParams) -> tuple[int, int, int]:
    """(lam, P, Q) with lam = lcm(den p, den q), P = lam p and Q = lam^2 q, all ints.

    u_n(P, Q) = lam^(n-1) u_n(p, q), w_n(P, Q) = lam^n w_n(p, q) and
    Q^n = lam^(2n) q^n, so the integer recurrence at (P, Q) carries the
    rational one at (p, q). Integer params give lam = 1.
    """
    p, q = params.p, params.q
    lam = lcm(p.denominator, q.denominator)
    return lam, p.numerator * (lam // p.denominator), q.numerator * (lam // q.denominator) * lam


def _unscale(value: int, lam: int, e: int) -> Fraction:
    """value / lam^e as a Fraction (e < 0 only for value 0).

    With nothing to divide, ``Fraction(value)`` shares the int object
    instead of copying it, so a table at integer params holds each value once.
    """
    if lam == 1 or e <= 0:
        return Fraction(value)
    return Fraction(value, lam**e)


class SequenceTable:
    """Memoized u_n, w_n and q^n values, grown on demand by the recurrence.

    u and w grow as the integers U_n and W_n of ``_scaled``. An index
    becomes a Fraction on its first lookup, and later lookups reuse it.
    """

    def __init__(self, params: RecurrenceParams):
        self.params = params
        self._lam, self._P, self._Q = _scaled(params)
        self._U, self._W = [0, 1], [2, self._P]
        self._u, self._w = [None, None], [None, None]
        self._qpow: dict[int, Fraction] = {}

    def _grow(self, n: int) -> None:
        P, Q, U, W = self._P, self._Q, self._U, self._W
        while len(U) <= n:
            U.append(P * U[-1] - Q * U[-2])
            W.append(P * W[-1] - Q * W[-2])
        self._u += [None] * (n + 1 - len(self._u))
        self._w += [None] * (n + 1 - len(self._w))

    def _lookup(self, view: list, ints: list[int], n: int, e: int) -> Fraction:
        """view[n], made on first use as ints[n] / lam^e."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        if n >= len(view):
            self._grow(n)
        value = view[n]
        if value is None:
            value = view[n] = _unscale(ints[n], self._lam, e)
        return value

    def u(self, n: int) -> Fraction:
        return self._lookup(self._u, self._U, n, n - 1)

    def w(self, n: int) -> Fraction:
        return self._lookup(self._w, self._W, n, n)

    def q_power(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be nonnegative")
        value = self._qpow.get(n)
        if value is None:
            # Fraction ** int skips the gcd: num(q)^n and den(q)^n are coprime
            value = self._qpow[n] = self.params.q**n
        return value


def _table_for(params: RecurrenceParams, table: SequenceTable | None = None) -> SequenceTable:
    """``table`` when it holds ``params``, a new table when it is None.

    A table for another pair raises ValueError: every value would be read
    from it, so the answer would belong to neither pair.
    """
    if table is None:
        return SequenceTable(params)
    if table.params is params or table.params == params:
        return table
    raise ValueError(f"the table holds {table.params}, not {params}")


def iter_pair(params: RecurrenceParams, n: int, counter=None) -> tuple[Fraction, Fraction]:
    """(u_n, w_n) by running both recurrences n steps. Baseline: 4n mults."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    mul = counter.mul if counter is not None else operator.mul
    p, q = params.p, params.q
    u0, u1 = Fraction(0), Fraction(1)
    w0, w1 = Fraction(2), p
    for _ in range(n):
        u0, u1 = u1, mul(p, u1) - mul(q, u0)
        w0, w1 = w1, mul(p, w1) - mul(q, w0)
    return u0, w0


def fast_pair(params: RecurrenceParams, n: int, counter=None) -> tuple[Fraction, Fraction]:
    """(u_n, w_n) by index doubling in O(log n) multiplications.

    It runs on the integer pair (P, Q) of ``_scaled``, whose U_k and W_k are
    the scaled u_k and w_k, with D = P^2 - 4Q. One pass over the bits of n,
    most significant first, carries (U_k, W_k, Q^k) from k = 0. Each bit
    doubles k,

        U_(2k) = U_k W_k     W_(2k) = W_k^2 - 2 Q^k     Q^(2k) = (Q^k)^2,

    and a set bit then adds one,

        U_(k+1) = (P U_k + W_k) / 2     W_(k+1) = (D U_k + P W_k) / 2     Q^(k+1) = Q^k Q.

    Both halvings are exact (so a right shift does them): with
    sigma = (P + sqrt(D)) / 2 a root at (P, Q), sigma^k = (W_k + U_k sqrt(D)) / 2,
    and multiplying by sigma gives P U_k + W_k = 2 U_(k+1) and
    D U_k + P W_k = 2 W_(k+1) in integers. Each binary digit of n costs 3
    counted multiplications and each set bit 4 more, but the last bit skips
    Q^k, which nothing reads. Powers of lam are divided out once, at the end.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    mul = counter.mul if counter is not None else operator.mul
    lam, p, q = _scaled(params)
    d = p * p - 4 * q
    u, w, qk = 0, 2, 1
    for i in reversed(range(n.bit_length())):
        u, w = mul(u, w), mul(w, w) - 2 * qk
        if n >> i & 1:
            u, w = (mul(p, u) + w) >> 1, (mul(d, u) + mul(p, w)) >> 1
        if i:
            qk = mul(mul(qk, qk), q) if n >> i & 1 else mul(qk, qk)
    return _unscale(u, lam, n - 1), _unscale(w, lam, n)


def u_binet(params: RecurrenceParams, n: int) -> Fraction:
    """u_n = (sigma^n - tau^n) / (sigma - tau), exact in Q(sqrt(d))."""
    if params.is_degenerate:
        raise DegenerateDiscriminantError("repeated root: the u closed form divides by zero")
    sigma, tau = make_roots(params)
    return rational_value((sigma**n - tau**n) / (sigma - tau), f"u_{n} closed form")


def w_binet(params: RecurrenceParams, n: int) -> Fraction:
    """w_n = sigma^n + tau^n, exact in Q(sqrt(d))."""
    sigma, tau = make_roots(params)
    return rational_value(sigma**n + tau**n, f"w_{n} closed form")


def w_from_u(params: RecurrenceParams, n: int) -> Fraction:
    """w_n rebuilt from u values alone: w_n = u_{n+1} - q u_{n-1} for n >= 1."""
    if n == 0:
        return Fraction(2)
    t = SequenceTable(params)
    return t.u(n + 1) - params.q * t.u(n - 1)


def u_from_w(params: RecurrenceParams, n: int) -> Fraction:
    """u_n rebuilt from w values: u_n = (w_{n+1} - q w_{n-1}) / (p^2 - 4q)."""
    if params.is_degenerate:
        raise DegenerateDiscriminantError("repeated root: u cannot be recovered from w")
    if n == 0:
        return Fraction(0)
    t = SequenceTable(params)
    return (t.w(n + 1) - params.q * t.w(n - 1)) / params.discriminant


def cubic_coefficients(params: RecurrenceParams) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) with X(m+3) = A X(m+2) + B X(m+1) + C X(m) for squared terms.

    The sequences u_n^2, w_n^2 and q^n all satisfy this one cubic recurrence,
    with A = p^2 - q, B = q^2 - p^2 q, C = q^3. At p=1, q=-1 this reads
    X(m+3) = 2 X(m+2) + 2 X(m+1) - X(m); printed statements of that case
    sometimes duplicate the X(m+2) term, giving 4 X(m+2) - X(m), which the
    squared sequences do not satisfy (F_4^2 = 9, not 4 F_3^2 - F_1^2 = 15).
    """
    p, q = params.p, params.q
    p2 = p * p
    return p2 - q, q * q - p2 * q, q * q * q


_CUBIC_KINDS = ("u_squared", "w_squared", "q_power")


def check_cubic_recurrence(params: RecurrenceParams, kind: str, m_max: int) -> int | None:
    """First m in [0, m_max - 3] where the cubic recurrence fails, else None."""
    if kind not in _CUBIC_KINDS:
        raise ValueError(f"kind must be one of {_CUBIC_KINDS}")
    table = SequenceTable(params)
    if kind == "u_squared":
        term = lambda n: table.u(n) ** 2
    elif kind == "w_squared":
        term = lambda n: table.w(n) ** 2
    else:
        term = lambda n: table.q_power(n)
    a, b, cc = cubic_coefficients(params)
    for m in range(m_max - 2):
        if term(m + 3) != a * term(m + 2) + b * term(m + 1) + cc * term(m):
            return m
    return None

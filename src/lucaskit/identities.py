"""Exact verification of companion-sequence identities over parameter grids.

Every check compares cross-multiplied exact values: a ratio claimed to
equal 5 is tested as num == 5 * den, so zero denominators become explicit
skip events rather than divisions. Sweeps produce one IdentityReport per
(identity, parameter) cell with deterministic ordering, a smallest-index
counterexample on failure, and pass/skip tallies.

Identity ids ending in ``_paper_sign`` or ``_paper_form`` are diagnostics:
they evaluate commonly printed but incorrect variants of the classical
statements and are expected to fail. Their recorded counterexamples are
the machine evidence for the corrected forms used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

# phi_product is not called here; perfbench/selftest.py checks its alias in this module.
from .charpoly import FactorizationSignError, fibonacci_factorization, phi_product  # noqa: F401
from .numeric import as_fraction, is_rational_square
from .sequences import (
    FIBONACCI,
    DegenerateDiscriminantError,
    RecurrenceParams,
    SequenceTable,
)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one identity instance at one index tuple."""

    status: str
    lhs: object = None
    rhs: object = None
    reason: str = ""


@dataclass(frozen=True)
class Counterexample:
    indices: tuple[tuple[str, int], ...]
    lhs: object
    rhs: object

    def __str__(self) -> str:
        where = ", ".join(f"{k}={v}" for k, v in self.indices)
        return f"{where}: lhs={self.lhs}, rhs={self.rhs}"


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity swept over an index range at fixed parameters."""

    identity_id: str
    params: RecurrenceParams | None
    index_range: tuple[int, int]
    a_range: tuple[int, int] | None
    status: str
    first_counterexample: Counterexample | None = None
    note: str = ""
    checked: int = 0
    skipped: int = 0

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"bad status {self.status!r}")
        if (self.status == FAIL) != (self.first_counterexample is not None):
            raise ValueError("fail status and counterexample must appear together")
        if self.status == SKIPPED and not self.note:
            raise ValueError("skipped reports must carry a reason")

    def to_record(self) -> dict:
        """Serialization-ready dict; field names are part of the interface."""
        ce = None
        if self.first_counterexample is not None:
            ce = {
                "indices": dict(self.first_counterexample.indices),
                "lhs": str(self.first_counterexample.lhs),
                "rhs": str(self.first_counterexample.rhs),
            }
        return {
            "identity": self.identity_id,
            "p": str(self.params.p) if self.params is not None else None,
            "q": str(self.params.q) if self.params is not None else None,
            "n_min": self.index_range[0],
            "n_max": self.index_range[1],
            "a_max": self.a_range[1] if self.a_range is not None else None,
            "status": self.status,
            "checked": self.checked,
            "skipped": self.skipped,
            "counterexample": ce,
            "note": self.note,
        }


@dataclass(frozen=True)
class GridSpec:
    """Inclusive rational parameter ranges plus index bounds for a sweep."""

    p_range: tuple[Fraction, Fraction] = (Fraction(1), Fraction(1))
    q_range: tuple[Fraction, Fraction] = (Fraction(-1), Fraction(-1))
    n_max: int = 50
    a_max: int = 10
    step: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        p_lo, p_hi = (as_fraction(v) for v in self.p_range)
        q_lo, q_hi = (as_fraction(v) for v in self.q_range)
        step = as_fraction(self.step)
        if p_lo > p_hi or q_lo > q_hi:
            raise ValueError("ranges must satisfy lo <= hi")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.a_max < 0:
            raise ValueError("a_max must be nonnegative")
        if step <= 0:
            raise ValueError("step must be positive")
        object.__setattr__(self, "p_range", (p_lo, p_hi))
        object.__setattr__(self, "q_range", (q_lo, q_hi))
        object.__setattr__(self, "step", step)

    @staticmethod
    def _values(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
        out = []
        v = lo
        while v <= hi:
            out.append(v)
            v += step
        return out

    def p_values(self) -> list[Fraction]:
        return self._values(*self.p_range, self.step)

    def q_values(self) -> list[Fraction]:
        return self._values(*self.q_range, self.step)


# -- identity cells -------------------------------------------------------------
# A cell evaluates one identity at one index tuple. The sweep runner calls it
# as cell(*indices, table[, d]); the public check_* functions wrap the same
# cell. d = p^2 - 4q is fixed for a sweep, so it is computed once per sweep
# and passed in rather than recomputed in every cell.


def _eq_outcome(lhs, rhs) -> CheckOutcome:
    if lhs == rhs:
        return CheckOutcome(PASS, lhs, rhs)
    return CheckOutcome(FAIL, lhs, rhs)


def _prop34(n: int, t: SequenceTable, d: Fraction) -> CheckOutcome:
    return _eq_outcome(t.w(n) ** 2 - 4 * t.q_power(n), t.u(n) ** 2 * d)


def _cor36(n: int, t: SequenceTable, d: Fraction) -> CheckOutcome:
    qn = t.q_power(n)
    w2n = t.w(2 * n)
    step = _eq_outcome(t.w(n) ** 2, w2n + 2 * qn)
    if step.status == FAIL:
        return step
    return _eq_outcome(w2n - 2 * qn, t.u(n) ** 2 * d)


def _eq35(n: int, t: SequenceTable) -> CheckOutcome:
    z = check_eq35_shape(t.params, n, t)
    expected = abs(t.u(n))
    if z is None:
        return CheckOutcome(FAIL, "no rational solution", expected)
    return _eq_outcome(z, expected)


def _cor35(n: int, t: SequenceTable) -> CheckOutcome:
    x, y, z = pythagorean_like(t.params.p, n, t)
    first = _eq_outcome(x * x + y * y - z * z, Fraction(4))
    if first.status == FAIL:
        return first
    return _eq_outcome(t.params.p * y, 2 * z)


def _eq22(n: int, t: SequenceTable) -> CheckOutcome:
    try:
        a_n = check_eq22(n, t)
    except ArithmeticError:
        return CheckOutcome(FAIL, "not five times a square", t.u(n))
    return _eq_outcome(Fraction(a_n), t.u(n))


def _eq21(n: int, t: SequenceTable) -> CheckOutcome:
    try:
        _, _, sign = fibonacci_factorization(n)
    except FactorizationSignError:
        return CheckOutcome(FAIL, "no exact sign", (-1) ** (n - 1))
    return _eq_outcome(sign, (-1) ** (n - 1))


def _eq21_paper_sign(n: int, t: SequenceTable) -> CheckOutcome:
    printed = (-1) ** n
    if _eq21(n, t).lhs == printed:
        return CheckOutcome(PASS, printed, printed)
    return CheckOutcome(FAIL, f"sign {printed} inexact", f"sign {-printed} exact")


def _ratio_check(num: Fraction, den: Fraction) -> CheckOutcome:
    if den == 0:
        return CheckOutcome(SKIPPED, reason="zero denominator")
    if num == 5 * den:
        return CheckOutcome(PASS, lhs=Fraction(5), rhs=Fraction(5))
    return CheckOutcome(FAIL, lhs=num / den, rhs=Fraction(5))


# -- single-instance checks -------------------------------------------------


def check_prop34(params: RecurrenceParams, n: int, table: SequenceTable | None = None) -> bool:
    """w_n^2 - 4 q^n == u_n^2 (p^2 - 4q), exactly."""
    t = table if table is not None else SequenceTable(params)
    return _prop34(n, t, params.discriminant).status == PASS


def check_eq35_shape(
    params: RecurrenceParams, n: int, table: SequenceTable | None = None
) -> Fraction | None:
    """Solve z^2 (p^2 - 4q) = w_n^2 - 4 q^n for z >= 0 by extracting a root.

    Returns the nonnegative rational solution, which equals |u_n|, or None
    if no rational solution exists (which never happens: the quotient is a
    square by the w/u relation above). This route really takes the square
    root instead of copying u_n, so it is an independent confirmation.
    """
    disc = params.discriminant
    if disc == 0:
        raise DegenerateDiscriminantError("z^2 * 0 = w_n^2 - 4 q^n has no unique solution")
    t = table if table is not None else SequenceTable(params)
    return is_rational_square((t.w(n) ** 2 - 4 * t.q_power(n)) / disc)


def check_cor36(params: RecurrenceParams, n: int, table: SequenceTable | None = None) -> bool:
    """w_{2n} - 2 q^n == u_n^2 (p^2 - 4q), plus the step w_n^2 == w_{2n} + 2 q^n."""
    t = table if table is not None else SequenceTable(params)
    return _cor36(n, t, params.discriminant).status == PASS


def check_eq24(n: int, table: SequenceTable | None = None) -> bool:
    """L_n^2 - 4 (-1)^n == 5 F_n^2: prop34 at p = 1, q = -1."""
    t = table if table is not None else SequenceTable(FIBONACCI)
    return _prop34(n, t, FIBONACCI.discriminant).status == PASS


def check_eq22(n: int, table: SequenceTable | None = None) -> int:
    """Extract A_n >= 0 with L_n^2 - 4 (-1)^n = 5 A_n^2.

    Raises ArithmeticError when no such integer exists. The caller compares
    the result against F_n; this function finds A_n by root extraction.
    """
    t = table if table is not None else SequenceTable(FIBONACCI)
    fifth = (t.w(n) ** 2 - 4 * t.q_power(n)) / 5
    root = is_rational_square(fifth)
    if root is None or root.denominator != 1:
        raise ArithmeticError(f"L_{n}^2 - 4(-1)^{n} is not five times a perfect square")
    return int(root)


def check_eq25_freitag(n: int, a: int, table: SequenceTable | None = None) -> CheckOutcome:
    """(L_n^2 - (-1)^a L_{n+a}^2) / (F_n^2 - (-1)^a F_{n+a}^2) == 5."""
    t = table if table is not None else SequenceTable(FIBONACCI)
    s = -1 if a % 2 else 1
    num = t.w(n) ** 2 - s * t.w(n + a) ** 2
    den = t.u(n) ** 2 - s * t.u(n + a) ** 2
    return _ratio_check(num, den)


def check_eq25_freitag_paper_form(
    n: int, a: int, table: SequenceTable | None = None
) -> CheckOutcome:
    """Diagnostic: the printed denominator F_n - (-1)^a F_{n+a}^2, first term unsquared."""
    t = table if table is not None else SequenceTable(FIBONACCI)
    s = -1 if a % 2 else 1
    num = t.w(n) ** 2 - s * t.w(n + a) ** 2
    den = t.u(n) - s * t.u(n + a) ** 2
    return _ratio_check(num, den)


def check_eq25_zeitlin(n: int, a: int, table: SequenceTable | None = None) -> CheckOutcome:
    """(L_n^2 + L_{n+2a}^2 - 8 (-1)^n) / (F_n^2 + F_{n+2a}^2) == 5."""
    t = table if table is not None else SequenceTable(FIBONACCI)
    num = t.w(n) ** 2 + t.w(n + 2 * a) ** 2 - 8 * t.q_power(n)
    den = t.u(n) ** 2 + t.u(n + 2 * a) ** 2
    return _ratio_check(num, den)


def check_eq25_zeitlin_paper_sign(
    n: int, a: int, table: SequenceTable | None = None
) -> CheckOutcome:
    """Diagnostic: the printed +8 (-1)^n term; fails (e.g. 9/5 at n=1, a=1)."""
    t = table if table is not None else SequenceTable(FIBONACCI)
    num = t.w(n) ** 2 + t.w(n + 2 * a) ** 2 + 8 * t.q_power(n)
    den = t.u(n) ** 2 + t.u(n + 2 * a) ** 2
    return _ratio_check(num, den)


def pythagorean_like(p, n: int, table: SequenceTable | None = None):
    """For q = 1: the triple (w_n, 2 u_n, p u_n) with x^2 + y^2 - z^2 = 4, p y = 2 z."""
    if n < 1:
        raise ValueError("n must be at least 1")
    t = table if table is not None else SequenceTable(RecurrenceParams(as_fraction(p), Fraction(1)))
    return t.w(n), 2 * t.u(n), t.params.p * t.u(n)


# -- the sweep -----------------------------------------------------------------


@dataclass(frozen=True)
class IdentityDescriptor:
    identity_id: str
    summary: str
    diagnostic: bool
    fixed_params: bool
    runner: Callable[[GridSpec, RecurrenceParams | None], IdentityReport]


def _identity(
    identity_id: str,
    summary: str,
    check: Callable[..., CheckOutcome],
    *,
    diagnostic: bool = False,
    fixed: bool = True,
    note: str = "",
    first: int = 0,
    pairs: bool = False,
    with_d: bool = False,
    skip_reason: Callable[[RecurrenceParams], str] | None = None,
) -> IdentityDescriptor:
    """Describe an identity whose runner sweeps ``check`` over its index tuples.

    The runner calls ``check(n, table)`` for n in [first, n_max], or
    ``check(n, a, table)`` for every a in [0, a_max] too when ``pairs``,
    appending the discriminant when ``with_d``. It tallies every tuple in
    order and keeps the smallest counterexample. Fixed-parameter identities
    get params None and run at p = 1, q = -1. ``skip_reason`` returns a
    nonempty note when the parameters rule the identity out.
    """

    def run(grid: GridSpec, params: RecurrenceParams | None) -> IdentityReport:
        params = params if params is not None else FIBONACCI
        n_range = (first, grid.n_max)
        a_range = (0, grid.a_max) if pairs else None
        reason = skip_reason(params) if skip_reason is not None else ""
        if reason:
            return IdentityReport(identity_id, params, n_range, a_range, SKIPPED, note=reason)
        t = SequenceTable(params)
        extra = (params.discriminant,) if with_d else ()
        names = ("n", "a") if pairs else ("n",)
        ranges = [range(first, grid.n_max + 1)] + ([range(grid.a_max + 1)] if pairs else [])
        checked = skipped = 0
        ce = None
        for indices in product(*ranges):
            out = check(*indices, t, *extra)
            if out.status == SKIPPED:
                skipped += 1
                continue
            checked += 1
            if out.status == FAIL and ce is None:
                ce = Counterexample(tuple(zip(names, indices)), out.lhs, out.rhs)
        if ce is not None:
            status = FAIL
        elif checked == 0:
            status = SKIPPED
        else:
            status = PASS
        return IdentityReport(
            identity_id, params, n_range, a_range, status, ce,
            note or ("no checkable indices in range" if status == SKIPPED else ""),
            checked, skipped,
        )

    return IdentityDescriptor(identity_id, summary, diagnostic, fixed, run)


_FIXED = "fixed p=1, q=-1"

_DESCRIPTORS = [
    _identity("prop34", "w_n^2 - 4q^n = u_n^2 (p^2 - 4q)", _prop34, fixed=False, with_d=True),
    _identity(
        "eq35", "z^2 (p^2-4q) = w_n^2 - 4q^n solved by z = |u_n|", _eq35, fixed=False,
        skip_reason=lambda params: "discriminant is zero" if params.is_degenerate else "",
    ),
    _identity("cor36", "w_2n - 2q^n = u_n^2 (p^2 - 4q)", _cor36, fixed=False, with_d=True),
    _identity(
        "cor35", "q=1 triple (w_n, 2u_n, p u_n): x^2+y^2-z^2 = 4, py = 2z", _cor35, fixed=False,
        first=1, skip_reason=lambda params: "" if params.q == 1 else "requires q = 1",
    ),
    _identity("eq24", "L_n^2 - 4(-1)^n = 5 F_n^2", _prop34, note=_FIXED, with_d=True),
    _identity("eq22", "L_n^2 - 4(-1)^n = 5 A_n^2 with A_n = F_n", _eq22, note=_FIXED),
    _identity(
        "eq21", "Phi_n(1,-1,x) factorization with computed sign", _eq21, first=2,
        note="fixed p=1, q=-1; printed sign (-1)^n is wrong, verified sign (-1)^(n-1)",
    ),
    _identity(
        "eq21_paper_sign", "diagnostic: factorization with printed sign", _eq21_paper_sign,
        diagnostic=True, first=2, note="diagnostic: printed sign (-1)^n instead of (-1)^(n-1)",
    ),
    _identity(
        "eq25_freitag", "(L_n^2 - (-1)^a L_{n+a}^2)/(F_n^2 - (-1)^a F_{n+a}^2) = 5",
        check_eq25_freitag, note=_FIXED, pairs=True,
    ),
    _identity(
        "eq25_freitag_paper_form", "diagnostic: printed denominator with unsquared F_n",
        check_eq25_freitag_paper_form, diagnostic=True, pairs=True,
        note="diagnostic: printed form F_n - (-1)^a F_{n+a}^2 in the denominator",
    ),
    _identity(
        "eq25_zeitlin", "(L_n^2 + L_{n+2a}^2 - 8(-1)^n)/(F_n^2 + F_{n+2a}^2) = 5",
        check_eq25_zeitlin, note=_FIXED, pairs=True,
    ),
    _identity(
        "eq25_zeitlin_paper_sign", "diagnostic: printed +8(-1)^n numerator term",
        check_eq25_zeitlin_paper_sign, diagnostic=True, pairs=True,
        note="diagnostic: printed sign +8(-1)^n in the numerator",
    ),
]

REGISTRY: dict[str, IdentityDescriptor] = {d.identity_id: d for d in _DESCRIPTORS}

DEFAULT_IDENTITY_IDS = tuple(d.identity_id for d in _DESCRIPTORS if not d.diagnostic)


def run_grid(grid: GridSpec, identity_ids: Iterable[str]) -> list[IdentityReport]:
    """One report per (identity, parameter cell), deterministically ordered.

    Fixed-parameter identities contribute a single report each; the others
    contribute one per (p, q) in the grid. Unknown ids raise ValueError.
    """
    ids = sorted(set(identity_ids))
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown identity ids {unknown}; known ids: {known}")
    reports: list[IdentityReport] = []
    for identity_id in ids:
        desc = REGISTRY[identity_id]
        if desc.fixed_params:
            reports.append(desc.runner(grid, None))
            continue
        for p in grid.p_values():
            for q in grid.q_values():
                reports.append(desc.runner(grid, RecurrenceParams(p, q)))
    return reports

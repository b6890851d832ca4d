"""Independent output oracle for the benchmark.

Nothing here imports lucaskit. Every expected value is recomputed by a
route that shares no code with the package:

- phi, binom: the Lucasnomial Pascal rule
  (m|k)_u = u_{k+1} (m-1|k)_u - q u_{m-k-1} (m-1|k-1)_u on plain Fractions,
  and Phi_n's coefficient of x^(n+1-i) is (-1)^i q^(i(i-1)/2) ((n+1)|i)_u.
- gauss: the product formula prod_{i=1..k} (1 - z^(m-k+i)) / (1 - z^i),
  and cyclotomic exponents counted divisor by divisor, then multiplied back.
- seq: plain iteration of the recurrence.
- fast_pair, SequenceTable.u: powers of the integer matrix [[P, -Q], [1, 0]]
  after scaling (p, q) to integers (P, Q) = (l p, l^2 q), compared by
  cross-multiplying. Plain iteration to n = 1e5 costs seconds per
  parameter pair, more than a whole timed pass can afford.
- verify: the known verdicts. Corrected identities pass or skip for their
  documented reasons, the *_paper_* diagnostics fail, the ratio identities'
  skip counts are recounted from Fibonacci and Lucas numbers, and the exit
  code is 1 exactly when --strict-diagnostics meets a failing diagnostic.

``check`` returns None for an accepted outcome, or a one-line reason.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction

DEFAULT_IDS = (
    "prop34", "eq35", "cor36", "cor35", "eq24", "eq22", "eq21", "eq25_freitag", "eq25_zeitlin",
)
PARAMETRIC_IDS = ("prop34", "eq35", "cor36", "cor35")
DIAGNOSTIC_IDS = ("eq21_paper_sign", "eq25_freitag_paper_form", "eq25_zeitlin_paper_sign")
ALL_IDS = DEFAULT_IDS + DIAGNOSTIC_IDS
_FIXED_IDS = frozenset(ALL_IDS) - frozenset(PARAMETRIC_IDS)


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the int/str digit limit while the oracle renders or parses big values."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- sequences ------------------------------------------------------------------


def lucas_uw(p: Fraction, q: Fraction, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """u_0..u_n and w_0..w_n by plain iteration, on integers scaled by l = den(p) den(q).

    With (P, Q) = (l p, l^2 q), U_i = l^(i-1) u_i and W_i = l^i w_i obey the
    same recurrence over the integers, so only one division per value is left.
    """
    lam = p.denominator * q.denominator
    big_p, big_q = int(p * lam), int(q * lam * lam)
    u, w = [Fraction(0)], [Fraction(2)]
    u0, u1, w0, w1, scale = 0, 1, 2, big_p, 1
    for _ in range(n):
        u.append(Fraction(u1, scale))
        scale *= lam
        w.append(Fraction(w1, scale))
        u0, u1 = u1, big_p * u1 - big_q * u0
        w0, w1 = w1, big_p * w1 - big_q * w0
    return u, w


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _scaled_uw(p: Fraction, q: Fraction, n: int) -> tuple[int, int, int]:
    """(U_n, W_n, l) with U_n = l^(n-1) u_n and W_n = l^n w_n, all integers."""
    lam = p.denominator * q.denominator
    big_p = int(p * lam)
    big_q = int(q * lam * lam)
    result = ((1, 0), (0, 1))
    base = ((big_p, -big_q), (1, 0))
    k = n
    while k:
        if k & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        k >>= 1
    u_n, u_next = result[1][0], result[0][0]  # M^n = [[U_{n+1}, .], [U_n, .]]
    return u_n, 2 * u_next - big_p * u_n, lam


def _matches_scaled(value: Fraction, scaled: int, scale: int) -> bool:
    """value == scaled / scale, by cross-multiplication."""
    return value.numerator * scale == scaled * value.denominator


def check_pair(p: Fraction, q: Fraction, n: int, got) -> str | None:
    u, w = got
    big_u, big_w, lam = _scaled_uw(p, q, n)
    u_ok = u == 0 if n == 0 else _matches_scaled(u, big_u, lam ** (n - 1))
    if not (u_ok and _matches_scaled(w, big_w, lam**n)):
        return f"fast_pair({p}, {q}, {n}) disagrees with the matrix-power route"
    return None


def check_table_u(p: Fraction, q: Fraction, n: int, got) -> str | None:
    big_u, _, lam = _scaled_uw(p, q, n)
    if not (got == 0 if n == 0 else _matches_scaled(got, big_u, lam ** (n - 1))):
        return f"SequenceTable.u({n}) at ({p}, {q}) disagrees with the matrix-power route"
    return None


# -- polynomials over Fraction / int --------------------------------------------


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _pdivmod(a: list, b: list) -> tuple[list, list]:
    """Ascending-coefficient long division over Q; b must be nonzero."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trim(quot), _trim(rem)


def _pdiv_exact(a: list, b: list) -> list:
    quot, rem = _pdivmod(a, b)
    if rem:
        raise ArithmeticError("oracle: inexact polynomial division")
    return quot


# -- phi, binom, gauss ----------------------------------------------------------


def lucasnomial_row(p: Fraction, q: Fraction, m: int) -> list[Fraction]:
    """((m|k)_u for k = 0..m) by the Lucasnomial Pascal rule."""
    u, _ = lucas_uw(p, q, m + 1)
    row = [Fraction(1)]
    for mm in range(1, m + 1):
        nxt = [Fraction(1)]
        for k in range(1, mm):
            nxt.append(u[k + 1] * row[k] - q * u[mm - k - 1] * row[k - 1])
        nxt.append(Fraction(1))
        row = nxt
    return row


def phi_coeffs(p: Fraction, q: Fraction, n: int) -> list[Fraction]:
    """Ascending coefficients of Phi_n(p, q, x)."""
    row = lucasnomial_row(p, q, n + 1)
    desc = []
    for i in range(n + 2):
        c = row[i] * q ** (i * (i - 1) // 2)
        desc.append(-c if i % 2 else c)
    return desc[::-1]


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def expected_phi(p: Fraction, q: Fraction, n: int, factor: bool) -> dict[str, list[str]]:
    phi = phi_coeffs(p, q, n)
    out = {"coefficients": _strs(phi)}
    if factor and n >= 1:
        w_n = lucas_uw(p, q, n)[1][n]
        quad = [q**n, -w_n, Fraction(1)]
        out["quadratic_factor"] = _strs(quad)
        out["quadratic_divides"] = ["false" if _pdivmod(phi, quad)[1] else "true"]
    if factor and (p, q) == (1, -1) and n >= 2:
        tail = [c if i % 2 == 0 else -c for i, c in enumerate(phi_coeffs(p, q, n - 2))]
        quad = [Fraction((-1) ** n), -lucas_uw(p, q, n)[1][n], Fraction(1)]
        product = _pmul(quad, tail)
        signs = [s for s in (1, -1) if [s * c for c in product] == phi]
        if len(signs) != 1:
            raise ArithmeticError("oracle: Fibonacci factorization has no unique sign")
        out["factorization_sign"] = [str(signs[0])]
        out["factorization_quadratic"] = _strs(quad)
        out["factorization_reversed_tail"] = _strs(tail)
    return out


def gaussian_coeffs(m: int, k: int) -> list[int]:
    """prod_{i=1..k} (1 - z^(m-k+i)) / (1 - z^i), one sparse factor at a time."""
    poly = [1]
    for i in range(1, k + 1):
        e = m - k + i
        shifted = [0] * e + poly
        poly = [a - b for a, b in zip(poly + [0] * e, shifted)]
    for i in range(1, k + 1):
        # a = (1 - z^i) b  <=>  b_j = a_j + b_(j-i); the top i coefficients must vanish
        quot = []
        for j, a in enumerate(poly):
            quot.append(a + (quot[j - i] if j >= i else 0))
        if any(quot[len(poly) - i:]):
            raise ArithmeticError("oracle: inexact division by 1 - z^i")
        poly = quot[: len(poly) - i]
    return _trim(poly)


@functools.lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _pdiv_exact(poly, list(_cyclotomic(e)))
    return tuple(int(c) for c in poly)


def expected_gauss(m: int, k: int, cyclotomic: bool) -> dict[str, list[str]]:
    coeffs = gaussian_coeffs(m, k)
    out = {"coefficients": _strs(coeffs)}
    if cyclotomic:
        factors = []
        for d in range(2, m + 1):
            e = sum(1 for j in range(m - k + 1, m + 1) if j % d == 0)
            e -= sum(1 for j in range(1, k + 1) if j % d == 0)
            if e:
                factors.append((d, e))
        product = [1]
        for d, e in factors:
            for _ in range(e):
                product = _pmul(product, list(_cyclotomic(d)))
        if product != coeffs:
            raise ArithmeticError("oracle: cyclotomic factors do not rebuild B(m, k)")
        out["cyclotomic_factors"] = [f"{d}:{e}" for d, e in factors]
    return out


# -- output parsing -------------------------------------------------------------


def _parse_keyed_plain(text: str) -> dict[str, list[str]]:
    out = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(": ")
        if not sep:
            key, rest = line.rstrip(":"), ""
        out[key] = rest.split()
    return out


def _parse_keyed_csv(text: str, header: list[str]) -> dict[str, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"csv header {rows[:1]}")
    out: dict[str, list[str]] = {}
    for key, _, value in rows[1:]:
        out.setdefault(key, []).append(value)
    return out


def _json_doc(text: str, command: str, params: dict) -> list:
    doc = json.loads(text)
    if doc.get("command") != command or doc.get("params") != params:
        raise ValueError(f"json head {doc.get('command')!r} {doc.get('params')!r}")
    return doc["records"]


def _parse_phi(text: str, fmt: str, params: dict) -> dict[str, list[str]]:
    if fmt == "plain":
        return _parse_keyed_plain(text)
    if fmt == "csv":
        out = _parse_keyed_csv(text, ["part", "index", "value"])
        out["coefficients"] = out.pop("phi", [])
        return out
    (rec,) = _json_doc(text, "phi", params)
    out = {"coefficients": rec["coefficients"]}
    if "quadratic_factor" in rec:
        out["quadratic_factor"] = rec["quadratic_factor"]
        out["quadratic_divides"] = [str(rec["quadratic_divides"]).lower()]
    if "factorization" in rec:
        fac = rec["factorization"]
        out["factorization_sign"] = [str(fac["sign"])]
        out["factorization_quadratic"] = fac["quadratic"]
        out["factorization_reversed_tail"] = fac["reversed_tail"]
    return out


def _parse_gauss(text: str, fmt: str, params: dict) -> dict[str, list[str]]:
    if fmt == "plain":
        return _parse_keyed_plain(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["kind", "index", "value"]:
            raise ValueError(f"csv header {rows[:1]}")
        out = {"coefficients": [v for kind, _, v in rows[1:] if kind == "coefficient"]}
        if params["cyclotomic"]:
            out["cyclotomic_factors"] = [
                f"{i}:{v}" for kind, i, v in rows[1:] if kind == "cyclotomic_exponent"
            ]
        return out
    (rec,) = _json_doc(text, "gauss", params)
    out = {"coefficients": rec["coefficients"]}
    if "cyclotomic_factors" in rec:
        out["cyclotomic_factors"] = [f"{d}:{e}" for d, e in rec["cyclotomic_factors"]]
    return out


def _parse_seq(text: str, fmt: str, params: dict) -> list[tuple[str, str, str]]:
    if fmt == "json":
        return [(str(r["n"]), r["u"], r["w"]) for r in _json_doc(text, "seq", params)]
    lines = text.splitlines()
    header, sep = ("n u w", " ") if fmt == "plain" else ("n,u,w", ",")
    if not lines or lines[0] != header:
        raise ValueError(f"seq header {lines[:1]}")
    return [tuple(line.split(sep)) for line in lines[1:]]


_PLAIN_REPORT = re.compile(
    r"(?P<identity>\S+) p=(?P<p>\S+) q=(?P<q>\S+) n=(?P<n_min>\d+)\.\.(?P<n_max>\d+)"
    r"(?: a=0\.\.(?P<a_max>\d+))? (?P<status>pass|fail|skipped)"
    r" checked=(?P<checked>\d+) skipped=(?P<skipped>\d+)"
    r"(?P<ce> counterexample\[[^\]]*\])?(?: note\[.*\])?"
)


def _report_key(identity, p, q, n_min, n_max, a_max, status, checked, skipped, has_ce):
    a = None if a_max in (None, "") else int(a_max)
    return (identity, p, q, int(n_min), int(n_max), a, status, int(checked), int(skipped),
            bool(has_ce))


def _parse_verify(text: str, fmt: str, params: dict) -> list[tuple]:
    if fmt == "json":
        return [
            _report_key(r["identity"], r["p"], r["q"], r["n_min"], r["n_max"], r["a_max"],
                        r["status"], r["checked"], r["skipped"], r["counterexample"])
            for r in _json_doc(text, "verify", params)
        ]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return [
            _report_key(r["identity"], r["p"], r["q"], r["n_min"], r["n_max"], r["a_max"],
                        r["status"], r["checked"], r["skipped"], r["counterexample"])
            for r in rows
        ]
    out = []
    for line in text.splitlines():
        m = _PLAIN_REPORT.fullmatch(line)
        if m is None:
            raise ValueError(f"unparsed report line {line[:80]!r}")
        g = m.groupdict()
        out.append(_report_key(g["identity"], g["p"], g["q"], g["n_min"], g["n_max"],
                               g["a_max"], g["status"], g["checked"], g["skipped"], g["ce"]))
    return out


# -- verify verdicts -------------------------------------------------------------


def _grid_values(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v += step
    return out


def _ratio_skips(identity: str, n_max: int, a_max: int) -> tuple[int, bool]:
    """(cells with a zero denominator, whether any checked cell misses the ratio 5)."""
    u, w = lucas_uw(Fraction(1), Fraction(-1), n_max + 2 * a_max)
    skips, failed = 0, False
    for n in range(n_max + 1):
        for a in range(a_max + 1):
            s = -1 if a % 2 else 1
            if identity.startswith("eq25_freitag"):
                num = w[n] ** 2 - s * w[n + a] ** 2
                den_head = u[n] if identity.endswith("paper_form") else u[n] ** 2
                den = den_head - s * u[n + a] ** 2
            else:
                sign = 8 if identity.endswith("paper_sign") else -8
                num = w[n] ** 2 + w[n + 2 * a] ** 2 + sign * (-1) ** n
                den = u[n] ** 2 + u[n + 2 * a] ** 2
            if den == 0:
                skips += 1
            elif num != 5 * den:
                failed = True
    return skips, failed


def expected_reports(spec: dict) -> list[tuple]:
    n_max, a_max = spec["n_max"], spec["a_max"]
    out = []
    for identity in sorted(set(spec["ids"])):
        if identity in _FIXED_IDS:
            cells = [(Fraction(1), Fraction(-1))]
        else:
            cells = [
                (p, q)
                for p in _grid_values(spec["p_lo"], spec["p_hi"], spec["step"])
                for q in _grid_values(spec["q_lo"], spec["q_hi"], spec["step"])
            ]
        for p, q in cells:
            a = None
            n_min, status, checked, skipped = 0, "pass", n_max + 1, 0
            if identity == "eq35" and p * p == 4 * q:
                status, checked = "skipped", 0
            elif identity == "cor35":
                n_min, checked = 1, n_max
                if q != 1:
                    status, checked = "skipped", 0
            elif identity.startswith("eq21"):
                n_min, checked = 2, n_max - 1
                if identity == "eq21_paper_sign":
                    status = "fail"
            elif identity.startswith("eq25"):
                a = a_max
                skipped, failed = _ratio_skips(identity, n_max, a_max)
                checked = (n_max + 1) * (a_max + 1) - skipped
                status = "fail" if failed else "pass"
                if failed != (identity in DIAGNOSTIC_IDS):
                    raise ArithmeticError(f"oracle: {identity} verdict is not the known one")
            out.append(_report_key(identity, str(p), str(q), n_min, n_max, a, status, checked,
                                   skipped, status == "fail"))
    return out


# -- entry point -------------------------------------------------------------------


def expected_exit(spec: dict) -> int:
    """The documented exit code for the request."""
    if spec["cmd"] == "usage_error":
        return 2
    if spec["cmd"] == "verify" and spec["strict"] and set(spec["ids"]) & set(DIAGNOSTIC_IDS):
        return 1
    return 0


def check_output(spec: dict, out: str, err: str) -> str | None:
    """None when stdout (and, for a refusal, stderr) is what the request should print."""
    cmd = spec["cmd"]
    if cmd == "usage_error":
        if out or not err.startswith("error:") or "Traceback" in err:
            return f"refusal printed stdout {out[:40]!r} / stderr {err[:80]!r}"
        return None
    fmt = spec["fmt"]
    params = spec["params"]
    with unlimited_int_str():
        try:
            if cmd == "phi":
                got = _parse_phi(out, fmt, params)
                want = expected_phi(spec["p"], spec["q"], spec["n"], spec["factor"])
            elif cmd == "binom":
                want = str(lucasnomial_row(spec["p"], spec["q"], spec["r"])[spec["k"]])
                if fmt == "plain":
                    got = out.rstrip("\n")
                elif fmt == "csv":
                    got = list(csv.reader(io.StringIO(out)))[1][4]
                else:
                    got = _json_doc(out, "binom", params)[0]["value"]
            elif cmd == "gauss":
                got = _parse_gauss(out, fmt, params)
                want = expected_gauss(spec["m"], spec["k"], spec["cyclotomic"])
            elif cmd == "seq":
                got = _parse_seq(out, fmt, params)
                u, w = lucas_uw(spec["p"], spec["q"], spec["n"])
                want = [(str(i), str(a), str(b)) for i, (a, b) in enumerate(zip(u, w))]
            elif cmd == "verify":
                got = _parse_verify(out, fmt, params)
                want = expected_reports(spec)
            else:
                raise KeyError(cmd)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable {cmd} output: {exc!r}"[:200]
    if got != want:
        return f"{cmd} output differs from the oracle"
    return None

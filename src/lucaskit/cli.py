"""Command-line front end: sequence tables, polynomials, and identity sweeps.

Subcommands
    seq     table of (n, u_n, w_n)
    phi     coefficients of the degree-(n+1) characteristic polynomial
    binom   the generalized binomial coefficient (r|k)_u
    gauss   Gaussian binomial coefficients and cyclotomic factors
    verify  identity sweeps over a parameter grid with structured reports

Values are exact end to end: rationals are accepted as integers or "a/b"
and decimal floats are rejected. Output is deterministic byte for byte;
--timestamps adds run metadata outside the data records. Exit codes:
0 success / all checks pass, 1 identity counterexample found, 2 usage or
input error, 3 internal inconsistency (two exact constructions disagree,
or an arithmetic error escaped a computation).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable

from .binomials import gaussian_binomial, gaussian_cyclotomic_factorization, generalized_binomial
from .charpoly import fibonacci_factorization, phi_coeff_formula, phi_product, quadratic_factor
from .identities import DEFAULT_IDENTITY_IDS, GridSpec, REGISTRY, run_grid
from .poly import Poly
from .sequences import FIBONACCI, RecurrenceParams, SequenceTable

FORMATS = ("plain", "json", "csv")


class UsageError(Exception):
    """Bad flag or config input; rendered to stderr and mapped to exit 2."""


# -- input parsing -------------------------------------------------------------


def _parse_rational(text: str, what: str) -> Fraction:
    s = str(text).strip()
    if any(ch in s for ch in ".eE"):
        raise UsageError(f"{what}: {text!r} is not exact; use an integer or a/b")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{what}: cannot parse {text!r} as an integer or a/b") from exc


def _parse_int(text: str, what: str, minimum: int | None = None) -> int:
    try:
        value = int(str(text).strip())
    except ValueError as exc:
        raise UsageError(f"{what}: cannot parse {text!r} as an integer") from exc
    if minimum is not None and value < minimum:
        raise UsageError(f"{what}: must be at least {minimum}, got {value}")
    return value


def _parse_range(text: str, what: str) -> tuple[Fraction, Fraction]:
    s = str(text).strip()
    if ":" in s:
        lo_text, _, hi_text = s.partition(":")
        lo = _parse_rational(lo_text, what)
        hi = _parse_rational(hi_text, what)
    else:
        lo = hi = _parse_rational(s, what)
    if lo > hi:
        raise UsageError(f"{what}: empty range {text!r} (lo > hi)")
    return lo, hi


def _parse_bool(text: str, what: str) -> bool:
    s = str(text).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"{what}: cannot parse {text!r} as a boolean")


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip().lower().replace("_", "-")] = value.strip()
    return out


class _Options:
    """Merged view of CLI flags and an optional config file; flags win."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def value(self, attr: str, default: str | None = None) -> str | None:
        given = getattr(self.args, attr)
        if given is not None:
            self.cfg.pop(attr.replace("_", "-"), None)
            return given
        from_cfg = self.cfg.pop(attr.replace("_", "-"), None)
        return from_cfg if from_cfg is not None else default

    def require(self, attr: str, flag: str) -> str:
        got = self.value(attr)
        if got is None:
            raise UsageError(f"missing required option {flag}")
        return got

    def flag(self, attr: str) -> bool:
        key = attr.replace("_", "-")
        if getattr(self.args, attr, False):
            self.cfg.pop(key, None)
            return True
        raw = self.cfg.pop(key, None)
        return _parse_bool(raw, key) if raw is not None else False

    def finish(self) -> None:
        """Read the output flags and refuse leftover config keys, before any work starts."""
        self.fmt = self.value("format", "plain")
        if self.fmt not in FORMATS:
            raise UsageError(f"--format must be one of {', '.join(FORMATS)}, got {self.fmt!r}")
        self.timestamps = self.flag("timestamps")
        if self.cfg:
            raise UsageError("unknown config keys: " + ", ".join(sorted(self.cfg)))


# -- output rendering -----------------------------------------------------------


@dataclass(frozen=True)
class _Output:
    """A handler's result: JSON params and records, plus its csv and plain layouts.

    ``csv`` returns (columns, rows) and ``plain`` returns the lines; only the
    one for the requested format is called.
    """

    params: dict
    records: list[dict]
    csv: Callable[[], tuple[list[str], list[dict]]]
    plain: Callable[[], list[str]]
    code: int = 0


def _emit(command: str, opts: _Options, out: _Output) -> int:
    """Write ``out`` to stdout in the format ``opts`` asked for; return the exit code."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds") if opts.timestamps else None
    prefix = f"# generated_at: {stamp}\n" if stamp else ""
    if opts.fmt == "json":
        doc: dict = {"command": command, "params": out.params, "records": out.records}
        if stamp:
            doc["meta"] = {"generated_at": stamp}
        text = json.dumps(doc, indent=2) + "\n"
    elif opts.fmt == "csv":
        columns, rows = out.csv()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else str(row.get(c)) for c in columns])
        text = prefix + buf.getvalue()
    else:
        text = prefix + "".join(line + "\n" for line in out.plain())
    sys.stdout.write(text)
    return out.code


def _coeff_strings(poly: Poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


# -- subcommand handlers ----------------------------------------------------------


def _cmd_seq(opts: _Options) -> _Output:
    p = _parse_rational(opts.require("p", "-p"), "-p")
    q = _parse_rational(opts.require("q", "-q"), "-q")
    n_max = _parse_int(opts.require("n", "-n"), "-n", minimum=0)
    opts.finish()

    table = SequenceTable(RecurrenceParams(p, q))
    records = [{"n": i, "u": str(table.u(i)), "w": str(table.w(i))} for i in range(n_max + 1)]
    return _Output(
        {"p": str(p), "q": str(q), "n_max": n_max},
        records,
        csv=lambda: (["n", "u", "w"], records),
        plain=lambda: ["n u w"] + [f"{r['n']} {r['u']} {r['w']}" for r in records],
    )


def _cmd_phi(opts: _Options) -> _Output:
    p = _parse_rational(opts.require("p", "-p"), "-p")
    q = _parse_rational(opts.require("q", "-q"), "-q")
    n = _parse_int(opts.require("n", "-n"), "-n", minimum=0)
    factor = opts.flag("factor")
    opts.finish()

    params = RecurrenceParams(p, q)
    phi = phi_product(params, n)
    if phi != phi_coeff_formula(params, n):
        raise ArithmeticError(
            "root-product and coefficient-formula constructions disagree "
            f"at p={p}, q={q}, n={n}"
        )

    record: dict = {"n": n, "coefficients": _coeff_strings(phi)}
    if factor and n >= 1:
        quad = quadratic_factor(params, n)
        record["quadratic_factor"] = _coeff_strings(quad)
        record["quadratic_divides"] = not divmod(phi, quad)[1]
    if factor and params == FIBONACCI and n >= 2:
        fq, tail, sign = fibonacci_factorization(n)
        record["factorization"] = {
            "sign": sign,
            "quadratic": _coeff_strings(fq),
            "reversed_tail": _coeff_strings(tail),
        }
    # the record flattened to (label, value): a list is one csv row per index
    parts = [(k, v) for k, v in record.items() if k not in ("n", "factorization")]
    parts += [(f"factorization_{k}", v) for k, v in record.get("factorization", {}).items()]

    def csv_rows() -> tuple[list[str], list[dict]]:
        rows: list[dict] = []
        for label, value in parts:
            part = "phi" if label == "coefficients" else label
            if isinstance(value, list):
                rows += [{"part": part, "index": i, "value": c} for i, c in enumerate(value)]
            else:
                rows.append({"part": part, "index": None, "value": str(value).lower()})
        return ["part", "index", "value"], rows

    return _Output(
        {"p": str(p), "q": str(q), "n": n, "factor": factor},
        [record],
        csv=csv_rows,
        plain=lambda: [
            f"{label}: " + (" ".join(value) if isinstance(value, list) else str(value).lower())
            for label, value in parts
        ],
    )


def _cmd_binom(opts: _Options) -> _Output:
    p = _parse_rational(opts.require("p", "-p"), "-p")
    q = _parse_rational(opts.require("q", "-q"), "-q")
    r = _parse_int(opts.require("r", "-r"), "-r", minimum=0)
    k = _parse_int(opts.require("k", "-k"), "-k")
    opts.finish()

    try:
        value = generalized_binomial(RecurrenceParams(p, q), r, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record = {"r": r, "k": k, "value": str(value)}
    return _Output(
        {"p": str(p), "q": str(q), "r": r, "k": k},
        [record],
        csv=lambda: (["p", "q", "r", "k", "value"], [{"p": str(p), "q": str(q), **record}]),
        plain=lambda: [str(value)],
    )


def _cmd_gauss(opts: _Options) -> _Output:
    m = _parse_int(opts.require("m", "-m"), "-m", minimum=0)
    k = _parse_int(opts.require("k", "-k"), "-k")
    cyclotomic = opts.flag("cyclotomic")
    opts.finish()

    try:
        poly = gaussian_binomial(m, k)
        factors = gaussian_cyclotomic_factorization(m, k) if cyclotomic else None
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record: dict = {"m": m, "k": k, "coefficients": _coeff_strings(poly)}
    if factors is not None:
        record["cyclotomic_factors"] = [list(pair) for pair in factors]

    def csv_rows() -> tuple[list[str], list[dict]]:
        rows = [
            {"kind": "coefficient", "index": i, "value": c}
            for i, c in enumerate(record["coefficients"])
        ]
        rows += [{"kind": "cyclotomic_exponent", "index": d, "value": e} for d, e in factors or ()]
        return ["kind", "index", "value"], rows

    def plain_lines() -> list[str]:
        lines = ["coefficients: " + " ".join(record["coefficients"])]
        if factors is not None:
            lines.append("cyclotomic_factors: " + " ".join(f"{d}:{e}" for d, e in factors))
        return lines

    return _Output({"m": m, "k": k, "cyclotomic": cyclotomic}, [record], csv_rows, plain_lines)


def _counterexample_text(ce: dict) -> str:
    where = " ".join(f"{k}={v}" for k, v in ce["indices"].items())
    return f"{where} lhs={ce['lhs']} rhs={ce['rhs']}"


def _plain_report_line(rec: dict) -> str:
    bits = [
        rec["identity"],
        f"p={rec['p']}",
        f"q={rec['q']}",
        f"n={rec['n_min']}..{rec['n_max']}",
    ]
    if rec["a_max"] is not None:
        bits.append(f"a=0..{rec['a_max']}")
    bits += [rec["status"], f"checked={rec['checked']}", f"skipped={rec['skipped']}"]
    if rec["counterexample"] is not None:
        bits.append(f"counterexample[{_counterexample_text(rec['counterexample'])}]")
    if rec["note"]:
        bits.append(f"note[{rec['note']}]")
    return " ".join(bits)


_VERIFY_COLUMNS = [
    "identity", "p", "q", "n_min", "n_max", "a_max",
    "status", "checked", "skipped", "counterexample", "note",
]


def _cmd_verify(opts: _Options) -> _Output:
    p_range = _parse_range(opts.value("p_range", "1:1"), "--p-range")
    q_range = _parse_range(opts.value("q_range", "-1:-1"), "--q-range")
    n_max = _parse_int(opts.value("n_max", "50"), "--n-max", minimum=1)
    a_max = _parse_int(opts.value("a_max", "10"), "--a-max", minimum=0)
    step = _parse_rational(opts.value("step", "1"), "--step")
    ids_text = opts.value("identities")
    strict = opts.flag("strict_diagnostics")
    opts.finish()

    if ids_text is None:
        ids: tuple[str, ...] = DEFAULT_IDENTITY_IDS
    elif ids_text.strip() == "all":
        ids = tuple(REGISTRY)
    else:
        ids = tuple(t.strip() for t in ids_text.split(",") if t.strip())
        if not ids:
            raise UsageError("--identities: empty identity list")
    try:
        grid = GridSpec(p_range, q_range, n_max, a_max, step)
        reports = run_grid(grid, ids)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    records = [r.to_record() for r in reports]
    params = {
        "p_range": f"{p_range[0]}:{p_range[1]}",
        "q_range": f"{q_range[0]}:{q_range[1]}",
        "n_max": n_max,
        "a_max": a_max,
        "step": str(step),
        "identities": sorted(set(ids)),
        "strict_diagnostics": strict,
    }
    failed = any(
        report.status == "fail" and (strict or not REGISTRY[report.identity_id].diagnostic)
        for report in reports
    )
    return _Output(
        params,
        records,
        csv=lambda: (_VERIFY_COLUMNS, [
            {**rec, "counterexample": _counterexample_text(rec["counterexample"])}
            if rec["counterexample"] is not None else rec
            for rec in records
        ]),
        plain=lambda: [_plain_report_line(rec) for rec in records],
        code=1 if failed else 0,
    )


# -- parser assembly ---------------------------------------------------------------

_HANDLERS = {
    "seq": _cmd_seq,
    "phi": _cmd_phi,
    "binom": _cmd_binom,
    "gauss": _cmd_gauss,
    "verify": _cmd_verify,
}

# flags whose next token may legitimately start with '-' followed by a digit
_NEGATIVE_VALUE_FLAGS = ("-p", "-q", "--p-range", "--q-range")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Glue negative values onto their flags so argparse does not eat them."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit():
                out.append(f"{tok}={nxt}" if tok.startswith("--") else f"{tok}{nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucaskit",
        description="Exact companion-sequence computations and identity verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default=None, metavar="FMT",
                        help="output format: plain (default), json, or csv")
    common.add_argument("--config", default=None, metavar="FILE",
                        help="key=value file mirroring the flags; flags win")
    common.add_argument("--timestamps", action="store_true",
                        help="add run metadata outside the data records")

    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", parents=[common], help="table of (n, u_n, w_n)")
    seq.add_argument("-p", default=None, help="rational p (integer or a/b)")
    seq.add_argument("-q", default=None, help="rational q (integer or a/b)")
    seq.add_argument("-n", default=None, help="largest index to print")

    phi = sub.add_parser("phi", parents=[common],
                         help="characteristic polynomial of n-th powers")
    phi.add_argument("-p", default=None, help="rational p")
    phi.add_argument("-q", default=None, help="rational q")
    phi.add_argument("-n", default=None, help="power index n (degree n+1)")
    phi.add_argument("--factor", action="store_true",
                     help="also print the quadratic factor and, at p=1 q=-1, the recursive split")

    binom = sub.add_parser("binom", parents=[common],
                           help="generalized binomial coefficient (r|k)_u")
    binom.add_argument("-p", default=None, help="rational p")
    binom.add_argument("-q", default=None, help="rational q")
    binom.add_argument("-r", default=None, help="top index r >= 0")
    binom.add_argument("-k", default=None, help="bottom index k, 0 <= k <= r")

    gauss = sub.add_parser("gauss", parents=[common],
                           help="Gaussian binomial polynomial in z")
    gauss.add_argument("-m", default=None, help="top index m >= 0")
    gauss.add_argument("-k", default=None, help="bottom index k, 0 <= k <= m")
    gauss.add_argument("--cyclotomic", action="store_true",
                       help="also print the cyclotomic factorization (d, e_d)")

    verify = sub.add_parser("verify", parents=[common],
                            help="sweep identities over a parameter grid")
    verify.add_argument("--p-range", dest="p_range", default=None, metavar="LO:HI",
                        help="inclusive p range (default 1:1)")
    verify.add_argument("--q-range", dest="q_range", default=None, metavar="LO:HI",
                        help="inclusive q range (default -1:-1)")
    verify.add_argument("--n-max", dest="n_max", default=None, help="index sweep bound (default 50)")
    verify.add_argument("--a-max", dest="a_max", default=None,
                        help="auxiliary index bound for two-index identities (default 10)")
    verify.add_argument("--step", default=None, help="grid step, rational (default 1)")
    verify.add_argument("--identities", default=None, metavar="IDS",
                        help="comma-separated identity ids, or 'all' (default: all non-diagnostic)")
    verify.add_argument("--strict-diagnostics", dest="strict_diagnostics", action="store_true",
                        help="let failing diagnostic identities affect the exit code")
    return parser


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_merge_negative_values(raw))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        opts = _Options(args)
        return _emit(args.command, opts, _HANDLERS[args.command](opts))
    except (UsageError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, UsageError) else 3


if __name__ == "__main__":
    sys.exit(main())

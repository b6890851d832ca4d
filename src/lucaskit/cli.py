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
input error (including an answer with more digits than Python's int/str
conversion limit, PYTHONINTMAXSTRDIGITS), 3 internal inconsistency (two
exact constructions disagree, or an arithmetic error escaped a computation).

Every flag is declared once, in the option table ``_COMMANDS``: each
subcommand names its handler, its help line and its options in order, and
each option its flag, parser, default (None: required), help, metavar and
JSON params name. The argparse tree, the flag > config file > default merge
with its leftover-key check, the JSON ``params`` echo and the flags whose
value may start with "-<digit>" are all built from that table, so handlers
receive parsed values and keep only their computation and layouts.
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
from functools import cached_property, partial
from typing import Callable

from .binomials import gaussian_binomial, gaussian_cyclotomic_factorization, generalized_binomial
from .charpoly import fibonacci_factorization, phi_coeff_formula, phi_product, quadratic_factor
from .identities import DEFAULT_IDENTITY_IDS, GridSpec, REGISTRY, run_grid
from .poly import Poly
from .sequences import FIBONACCI, RecurrenceParams, SequenceTable

FORMATS = ("plain", "json", "csv")
# the ValueError str() raises past sys.get_int_max_str_digits()
_INT_STR_LIMIT = "for integer string conversion"


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


def _parse_format(text: str, what: str) -> str:
    s = text.strip()
    if s not in FORMATS:
        raise UsageError(f"{what} must be one of {', '.join(FORMATS)}, got {text!r}")
    return s


def _parse_ids(text: str, what: str) -> tuple[str, ...]:
    """The requested identity ids; an empty list is refused by ``_cmd_verify``."""
    if text.strip() == "all":
        return tuple(REGISTRY)
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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


# -- output rendering -----------------------------------------------------------


@dataclass(frozen=True)
class _Output:
    """A handler's result: JSON records, plus its csv and plain layouts.

    ``csv`` returns (columns, rows) and ``plain`` returns the lines; only the
    one for the requested format is called.
    """

    records: list[dict]
    csv: Callable[[], tuple[list[str], list[dict]]]
    plain: Callable[[], list[str]]
    code: int = 0


def _emit(command: str, fmt: str, timestamps: bool, params: dict, out: _Output) -> int:
    """Write ``out`` to stdout in format ``fmt``; return the exit code."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds") if timestamps else None
    prefix = f"# generated_at: {stamp}\n" if stamp else ""
    if fmt == "json":
        doc: dict = {"command": command, "params": params, "records": out.records}
        if stamp:
            doc["meta"] = {"generated_at": stamp}
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        columns, rows = out.csv()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(c) for c in columns] for row in rows)
        text = prefix + buf.getvalue()
    else:
        text = prefix + "".join(line + "\n" for line in out.plain())
    sys.stdout.write(text)
    return out.code


def _coeff_strings(poly: Poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


# -- subcommand handlers ----------------------------------------------------------


def _cmd_seq(p: Fraction, q: Fraction, n: int) -> _Output:
    table = SequenceTable(RecurrenceParams(p, q))
    records = [{"n": i, "u": str(table.u(i)), "w": str(table.w(i))} for i in range(n + 1)]
    return _Output(
        records,
        csv=lambda: (["n", "u", "w"], records),
        plain=lambda: ["n u w"] + [f"{r['n']} {r['u']} {r['w']}" for r in records],
    )


def _cmd_phi(p: Fraction, q: Fraction, n: int, factor: bool) -> _Output:
    params = RecurrenceParams(p, q)
    table = SequenceTable(params)
    phi = phi_product(params, n, table=table)
    if phi != phi_coeff_formula(params, n, table=table):
        raise ArithmeticError(
            "root-product and coefficient-formula constructions disagree "
            f"at p={p}, q={q}, n={n}"
        )

    record: dict = {"n": n, "coefficients": _coeff_strings(phi)}
    if factor and n >= 1:
        quad = quadratic_factor(params, n, table=table)
        record["quadratic_factor"] = _coeff_strings(quad)
        record["quadratic_divides"] = not divmod(phi, quad)[1]
    if factor and params == FIBONACCI and n >= 2:
        fq, tail, sign = fibonacci_factorization(n, table=table)
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
        [record],
        csv=csv_rows,
        plain=lambda: [
            f"{label}: " + (" ".join(value) if isinstance(value, list) else str(value).lower())
            for label, value in parts
        ],
    )


def _cmd_binom(p: Fraction, q: Fraction, r: int, k: int) -> _Output:
    try:
        value = generalized_binomial(RecurrenceParams(p, q), r, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record = {"r": r, "k": k, "value": str(value)}
    return _Output(
        [record],
        csv=lambda: (["p", "q", "r", "k", "value"], [{"p": str(p), "q": str(q), **record}]),
        plain=lambda: [str(value)],
    )


def _cmd_gauss(m: int, k: int, cyclotomic: bool) -> _Output:
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

    return _Output([record], csv_rows, plain_lines)


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


def _cmd_verify(p_range: tuple[Fraction, Fraction], q_range: tuple[Fraction, Fraction],
                n_max: int, a_max: int, step: Fraction, identities: tuple[str, ...],
                strict_diagnostics: bool) -> _Output:
    # checked here, after the output flags and config keys, as those errors come first
    if not identities:
        raise UsageError("--identities: empty identity list")
    try:
        grid = GridSpec(p_range, q_range, n_max, a_max, step)
        reports = run_grid(grid, identities)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    records = [r.to_record() for r in reports]
    failed = any(
        report.status == "fail"
        and (strict_diagnostics or not REGISTRY[report.identity_id].diagnostic)
        for report in reports
    )
    return _Output(
        records,
        csv=lambda: (_VERIFY_COLUMNS, [
            {**rec, "counterexample": _counterexample_text(rec["counterexample"])}
            if rec["counterexample"] is not None else rec
            for rec in records
        ]),
        plain=lambda: [_plain_report_line(rec) for rec in records],
        code=1 if failed else 0,
    )


# -- the option table ---------------------------------------------------------------


@dataclass(frozen=True)
class _Opt:
    """One flag, declared once: ``parse(text, what)`` turns the text of the flag,
    else of the config file, else ``default`` (None: required) into the value
    the handler receives as ``dest``. A ``_parse_bool`` option is a switch.
    ``echo`` names the value in the JSON params when that is not ``dest``.
    """

    flag: str
    parse: Callable[[str, str], object]
    default: str | None = None
    help: str | None = None
    metavar: str | None = None
    echo: str | None = None

    @cached_property
    def key(self) -> str:
        """The config-file key: the flag without its dashes."""
        return self.flag.lstrip("-")

    @cached_property
    def dest(self) -> str:
        return self.key.replace("-", "_")


@dataclass(frozen=True)
class _Command:
    handler: Callable[..., _Output]
    help: str
    options: tuple[_Opt, ...]


_parse_natural = partial(_parse_int, minimum=0)
_P = _Opt("-p", _parse_rational, help="rational p")
_Q = _Opt("-q", _parse_rational, help="rational q")
# every subcommand takes these; format and timestamps merge after its own options
_FORMAT = _Opt("--format", _parse_format, "plain",
               "output format: plain (default), json, or csv", "FMT")
_CONFIG = _Opt("--config", str, None, "key=value file mirroring the flags; flags win", "FILE")
_TIMESTAMPS = _Opt("--timestamps", _parse_bool, "no", "add run metadata outside the data records")

_COMMANDS = {
    "seq": _Command(_cmd_seq, "table of (n, u_n, w_n)", (
        _Opt("-p", _parse_rational, help="rational p (integer or a/b)"),
        _Opt("-q", _parse_rational, help="rational q (integer or a/b)"),
        _Opt("-n", _parse_natural, help="largest index to print", echo="n_max"),
    )),
    "phi": _Command(_cmd_phi, "characteristic polynomial of n-th powers", (
        _P, _Q,
        _Opt("-n", _parse_natural, help="power index n (degree n+1)"),
        _Opt("--factor", _parse_bool, "no",
             "also print the quadratic factor and, at p=1 q=-1, the recursive split"),
    )),
    "binom": _Command(_cmd_binom, "generalized binomial coefficient (r|k)_u", (
        _P, _Q,
        _Opt("-r", _parse_natural, help="top index r >= 0"),
        _Opt("-k", _parse_int, help="bottom index k, 0 <= k <= r"),
    )),
    "gauss": _Command(_cmd_gauss, "Gaussian binomial polynomial in z", (
        _Opt("-m", _parse_natural, help="top index m >= 0"),
        _Opt("-k", _parse_int, help="bottom index k, 0 <= k <= m"),
        _Opt("--cyclotomic", _parse_bool, "no", "also print the cyclotomic factorization (d, e_d)"),
    )),
    "verify": _Command(_cmd_verify, "sweep identities over a parameter grid", (
        _Opt("--p-range", _parse_range, "1:1", "inclusive p range (default 1:1)", "LO:HI"),
        _Opt("--q-range", _parse_range, "-1:-1", "inclusive q range (default -1:-1)", "LO:HI"),
        _Opt("--n-max", partial(_parse_int, minimum=1), "50", "index sweep bound (default 50)"),
        _Opt("--a-max", _parse_natural, "10",
             "auxiliary index bound for two-index identities (default 10)"),
        _Opt("--step", _parse_rational, "1", "grid step, rational (default 1)"),
        _Opt("--identities", _parse_ids, ",".join(DEFAULT_IDENTITY_IDS),
             "comma-separated identity ids, or 'all' (default: all non-diagnostic)", "IDS"),
        _Opt("--strict-diagnostics", _parse_bool, "no",
             "let failing diagnostic identities affect the exit code"),
    )),
}

# how a parsed value reads in the JSON params, by parser; other values read as parsed
_ECHO: dict[Callable, Callable] = {
    _parse_rational: str,
    _parse_range: lambda r: f"{r[0]}:{r[1]}",
    _parse_ids: lambda ids: sorted(set(ids)),
}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Glue negative values onto the named subcommand's own flags so argparse keeps them."""
    options = _COMMANDS[argv[0]].options if argv and argv[0] in _COMMANDS else ()
    flags = {opt.flag for opt in options if opt.parse in (_parse_rational, _parse_range)}
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in flags and tok[:1] == "-" and tok[1:2].isdigit():
            flag = out.pop()
            tok = f"{flag}={tok}" if flag.startswith("--") else f"{flag}{tok}"
        out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucaskit",
        description="Exact companion-sequence computations and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd_parser = sub.add_parser(name, help=command.help)
        for opt in (_FORMAT, _CONFIG, _TIMESTAMPS, *command.options):
            if opt.parse is _parse_bool:
                cmd_parser.add_argument(opt.flag, action="store_const", const="yes", help=opt.help)
            else:
                cmd_parser.add_argument(opt.flag, metavar=opt.metavar, help=opt.help)
    return parser


# argparse does not change a parser while parsing, so one tree serves every call
_PARSER = _build_parser()


def _values(options: tuple[_Opt, ...], args: argparse.Namespace) -> dict:
    """Each option's parsed value by dest, in table order: flag > config file > default.

    Config keys no option reads are refused, before any work starts.
    """
    cfg = _load_config(args.config) if args.config else {}
    values = {}
    for opt in options:
        text = getattr(args, opt.dest)
        from_cfg = cfg.pop(opt.key, None)
        if text is None:
            text = opt.default if from_cfg is None else from_cfg
        if text is None:
            raise UsageError(f"missing required option {opt.flag}")
        # a switch's text can only come from the config file, so its errors name the key
        values[opt.dest] = opt.parse(text, opt.key if opt.parse is _parse_bool else opt.flag)
    if cfg:
        raise UsageError("unknown config keys: " + ", ".join(sorted(cfg)))
    return values


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_merge_negative_values(raw))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command = _COMMANDS[args.command]
    try:
        values = _values((*command.options, _FORMAT, _TIMESTAMPS), args)
        fmt, timestamps = values.pop("format"), values.pop("timestamps")
        out = command.handler(**values)
        params = {
            opt.echo or opt.dest: _ECHO.get(opt.parse, lambda v: v)(values[opt.dest])
            for opt in command.options
        }
        return _emit(args.command, fmt, timestamps, params, out)
    except (UsageError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, UsageError) else 3
    except ValueError as exc:
        if _INT_STR_LIMIT not in str(exc):
            raise
        sys.stderr.write(
            f"error: an exact value has more than {sys.get_int_max_str_digits()} digits, "
            "the int/str conversion limit; set PYTHONINTMAXSTRDIGITS to raise it\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())

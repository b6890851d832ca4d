"""Seeded request streams for the three workloads.

A stream is a sequence of decks. Every deck of a workload has the same
shape: the same request kinds in the same numbers, the same ladder of
sizes (n, r, m, n_max), and the same odd inputs. The seed draws the
parameters (in seq_deep only the sign of p, which leaves every size as it
is), formats and flags within that shape and shuffles the order,
so two seeds ask for different answers while the cost mix, and with it
the latency quantiles and the error share, stays put.

Why each workload exists, and which layer it is the control for:

phi_mix      CLI phi (mostly), binom and gauss --cyclotomic. Nearly all the
             time is binomials (phi_coeff_formula -> generalized_binomial over
             Q(sqrt d)); sequences and identities do almost none. It is the
             workload that ROADMAP item 2 (Pascal kernel) must speed up.
verify_grid  CLI verify over small p, q windows with steps 1, 1/2, 1/3 and
             default / parametric-only / all identity sets. eq21 (charpoly ->
             poly -> quadfield) sets p90; identities and Fraction sequences
             set p50. binomials does nothing here: the control for item 2.
seq_deep     seq tables up to n = 3000 (megabytes of output), library
             fast_pair up to n = 1e5 and SequenceTable.u(n), half integer and
             half rational parameters. sequences and cli rendering work on
             large operands; poly, binomials and charpoly do nothing: the
             control for every phi change.

Every deck also carries the same odd inputs. Most have a fixed expected
outcome (a clean exit 2, or a correct answer at a degenerate parameter
pair); one per deck is a defect known at the time the benchmark was
written, counted in error_rate until it is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import ALL_IDS, DEFAULT_IDS, PARAMETRIC_IDS

FORMATS = ("plain", "json", "csv")
INT_VALUES = tuple(Fraction(v) for v in range(-3, 4))
RATIONAL_VALUES = tuple(
    Fraction(v) for v in ("1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3", "3/2", "-3/2")
)


@dataclass(frozen=True)
class Request:
    """One call into lucaskit: ``cli`` runs main(args); the others call the library."""

    kind: str  # "cli", "fast_pair" or "table_u"
    args: tuple  # argv for "cli"; (p, q, n) for the library kinds
    spec: dict  # what the oracle checks

    def label(self) -> str:
        if self.kind == "cli":
            return "lucaskit " + " ".join(self.args)
        p, q, n = self.args
        if self.kind == "fast_pair":
            return f"fast_pair(RecurrenceParams({p}, {q}), {n})"
        return f"SequenceTable(RecurrenceParams({p}, {q})).u({n})"


def _cli(spec: dict, argv: list[str], fmt: str) -> Request:
    spec["fmt"] = fmt
    if fmt != "plain":
        argv += ["--format", fmt]
    return Request("cli", tuple(argv), spec)


def _pq(rng: random.Random, rational: bool) -> tuple[Fraction, Fraction]:
    pool = RATIONAL_VALUES if rational else INT_VALUES
    return rng.choice(pool), rng.choice(pool)


def phi_request(p: Fraction, q: Fraction, n: int, factor: bool, fmt: str) -> Request:
    argv = ["phi", "-p", str(p), "-q", str(q), "-n", str(n)] + (["--factor"] if factor else [])
    spec = {"cmd": "phi", "p": p, "q": q, "n": n, "factor": factor,
            "params": {"p": str(p), "q": str(q), "n": n, "factor": factor}}
    return _cli(spec, argv, fmt)


def binom_request(p: Fraction, q: Fraction, r: int, k: int, fmt: str) -> Request:
    argv = ["binom", "-p", str(p), "-q", str(q), "-r", str(r), "-k", str(k)]
    spec = {"cmd": "binom", "p": p, "q": q, "r": r, "k": k,
            "params": {"p": str(p), "q": str(q), "r": r, "k": k}}
    return _cli(spec, argv, fmt)


def gauss_request(m: int, k: int, cyclotomic: bool, fmt: str) -> Request:
    argv = ["gauss", "-m", str(m), "-k", str(k)] + (["--cyclotomic"] if cyclotomic else [])
    spec = {"cmd": "gauss", "m": m, "k": k, "cyclotomic": cyclotomic,
            "params": {"m": m, "k": k, "cyclotomic": cyclotomic}}
    return _cli(spec, argv, fmt)


def seq_request(p: Fraction, q: Fraction, n: int, fmt: str) -> Request:
    argv = ["seq", "-p", str(p), "-q", str(q), "-n", str(n)]
    spec = {"cmd": "seq", "p": p, "q": q, "n": n,
            "params": {"p": str(p), "q": str(q), "n_max": n}}
    return _cli(spec, argv, fmt)


def verify_request(
    p_lo: Fraction, p_hi: Fraction, q_lo: Fraction, q_hi: Fraction, step: Fraction,
    n_max: int, a_max: int, ids_mode: str, strict: bool, fmt: str,
) -> Request:
    argv = ["verify", "--p-range", f"{p_lo}:{p_hi}", "--q-range", f"{q_lo}:{q_hi}",
            "--n-max", str(n_max), "--a-max", str(a_max), "--step", str(step)]
    ids = {"default": DEFAULT_IDS, "parametric": PARAMETRIC_IDS, "all": ALL_IDS}[ids_mode]
    if ids_mode == "parametric":
        argv += ["--identities", ",".join(ids)]
    elif ids_mode == "all":
        argv += ["--identities", "all"]
    if strict:
        argv.append("--strict-diagnostics")
    spec = {"cmd": "verify", "p_lo": p_lo, "p_hi": p_hi, "q_lo": q_lo, "q_hi": q_hi,
            "step": step, "n_max": n_max, "a_max": a_max, "ids": ids, "strict": strict,
            "params": {"p_range": f"{p_lo}:{p_hi}", "q_range": f"{q_lo}:{q_hi}",
                       "n_max": n_max, "a_max": a_max, "step": str(step),
                       "identities": sorted(set(ids)), "strict_diagnostics": strict}}
    return _cli(spec, argv, fmt)


def _usage_error(argv: str) -> Request:
    return Request("cli", tuple(argv.split()), {"cmd": "usage_error"})


# Odd inputs every deck carries. The two edge cases at degenerate parameter
# pairs (p^2 = 4q) touch charpoly, poly, binomials and identities with tiny
# work, so each layer shows up in every workload's trace.
ODD_INPUTS = (
    _usage_error("phi -p 1.5 -q 1 -n 3"),
    _usage_error("seq -p 1 -q 1/0 -n 3"),
    _usage_error("binom -p 1 -q -1 -r 5 -k 7"),
    phi_request(Fraction(2), Fraction(1), 3, False, "plain"),
    verify_request(Fraction(2), Fraction(2), Fraction(1), Fraction(1), Fraction(1),
                   4, 0, "parametric", False, "plain"),
)

# Known defects: phi with a discriminant too large to trial-divide raises
# FactorizationIncompleteError out of main (ROADMAP item 3b); a seq table
# past Python's 4300-digit int/str limit raises ValueError. Both have a
# correct answer, which the oracle expects.
BIG_PRIME_PHI = phi_request(Fraction(100000000000000000039), Fraction(3), 1, False, "plain")
DEEP_SEQ = seq_request(Fraction(100), Fraction(1), 2200, "plain")


def _signed(rng: random.Random, p, q) -> tuple[Fraction, Fraction]:
    """(+-p, q): u_n and Phi_n only change sign with p, so the cost does not move."""
    return Fraction(p) * rng.choice((1, -1)), Fraction(q)


# Decks are built in cost tiers so that p50 and p90 each fall in the middle
# of a block of requests of similar cost (phi n = 12, verify default n_max
# = 12 and the 45 ms (2/3, -1/3) block for p50; the top fifth for p90). A
# quantile that sits in the gap between two sizes jumps between them from
# run to run.


def phi_mix_deck(rng: random.Random) -> list[Request]:
    phi_ns = (2, 4, 6) + (12,) * 10 + (14, 15, 15, 16, 16, 16, 17, 17, 18, 18) + (
        19, 20, 20, 20, 20, 20, 20, 20, 20, 22)
    deck = []
    for i, n in enumerate(phi_ns):
        p, q = _pq(rng, rational=i % 2 == 1)
        deck.append(phi_request(p, q, n, i % 4 == 0, rng.choice(FORMATS)))
    # at (1, -1), --factor adds the Fibonacci split (fibonacci_factorization)
    deck.append(phi_request(Fraction(1), Fraction(-1), 9, True, rng.choice(FORMATS)))
    for i, r in enumerate((20, 24, 32, 36, 36)):
        p, q = _pq(rng, rational=i % 2 == 1)
        deck.append(binom_request(p, q, r, rng.randint(0, r), rng.choice(FORMATS)))
    for m in (20, 26, 38, 44, 44):
        deck.append(gauss_request(m, rng.randint(0, m), True, rng.choice(FORMATS)))
    deck += [*ODD_INPUTS, BIG_PRIME_PHI]
    rng.shuffle(deck)
    return deck


def verify_grid_deck(rng: random.Random) -> list[Request]:
    plan = (
        [("parametric", n_max) for n_max in (8, 10, 12, 14, 16, 12, 10)]
        + [("default", 10)] * 2 + [("default", 12)] * 12 + [("all", 10)] * 2
        + [("default", 14)] * 3
        + [("default", 16)] + [("all", 14)] * 6 + [("all", 16)]
    )
    deck = []
    for i, (mode, n_max) in enumerate(plan):
        step = rng.choice((Fraction(1), Fraction(1, 2), Fraction(1, 3)))
        p_lo = Fraction(rng.randint(-2, 2))
        q_lo = Fraction(rng.randint(-2, 2))
        deck.append(verify_request(p_lo, p_lo + step, q_lo, q_lo + step, step, n_max,
                                   2 + i % 5, mode, mode == "all" and i % 2 == 0,
                                   rng.choice(FORMATS)))
    deck += [*ODD_INPUTS, BIG_PRIME_PHI]
    rng.shuffle(deck)
    return deck


def _library(kind: str, p: Fraction, q: Fraction, n: int) -> Request:
    return Request(kind, (p, q, n), {"cmd": kind})


_R = Fraction
# (p, q, n) ladders, sorted from cheap to dear; the middle block of
# (2/3, -1/3) requests, about 45 ms each, holds p50 and the block of
# 215-220 ms requests holds p90.
SEQ_TABLES = (
    (_R(2, 3), _R(-1, 3), 1000), (_R(2, 3), _R(-1, 3), 1000), (_R(2, 3), _R(-1, 3), 1000),
    (_R(2, 3), _R(-1, 3), 1000), (2, 3, 2000), (1, -1, 2000), (1, -1, 3000),
    (_R(-1, 3), _R(3, 2), 1400), (3, -2, 3000), (3, -2, 3000), (3, -3, 3000), (3, -3, 3000),
)
FAST_PAIRS = (
    (1, -1, 25000), (3, 2, 50000), (3, -3, 100000), (1, -1, 100000),
    (_R(1, 2), _R(1, 2), 10000), (_R(3, 2), _R(-1, 2), 10000),
    (_R(2, 3), _R(-1, 3), 40000), (_R(2, 3), _R(-1, 3), 40000), (_R(2, 3), _R(-1, 3), 40000),
    (_R(2, 3), _R(-1, 3), 40000), (_R(2, 3), _R(-1, 3), 100000),
)
TABLE_LOOKUPS = (
    (3, 2, 500), (1, -1, 1500), (3, -3, 1500),
    (_R(2, 3), _R(-1, 3), 1500), (_R(2, 3), _R(-1, 3), 1500), (_R(2, 3), _R(-1, 3), 1500),
    (_R(2, 3), _R(-1, 3), 1500), (1, -1, 2500), (3, 2, 2500), (_R(1, 2), _R(-1, 3), 1500),
    (_R(3, 2), _R(-1, 2), 2500),
)


def seq_deep_deck(rng: random.Random) -> list[Request]:
    deck = []
    for p, q, n in SEQ_TABLES:
        deck.append(seq_request(*_signed(rng, p, q), n + rng.randint(0, 99), rng.choice(FORMATS)))
    for p, q, n in FAST_PAIRS:
        deck.append(_library("fast_pair", *_signed(rng, p, q), n + rng.randint(0, 999)))
    for p, q, n in TABLE_LOOKUPS:
        deck.append(_library("table_u", *_signed(rng, p, q), n + rng.randint(0, 99)))
    deck += [*ODD_INPUTS, DEEP_SEQ]
    rng.shuffle(deck)
    return deck


WORKLOADS = {
    "phi_mix": phi_mix_deck,
    "verify_grid": verify_grid_deck,
    "seq_deep": seq_deep_deck,
}

# The first request a fresh CLI process runs when set-up is timed.
SETUP_REQUESTS = {
    "phi_mix": phi_request(Fraction(1), Fraction(-1), 8, False, "plain"),
    "verify_grid": verify_request(Fraction(1), Fraction(1), Fraction(-1), Fraction(-1),
                                  Fraction(1), 8, 2, "default", False, "plain"),
    "seq_deep": seq_request(Fraction(1), Fraction(-1), 300, "plain"),
}


def stream(workload: str, seed: int):
    """The endless seeded request stream of a workload, one deck at a time."""
    rng = random.Random(seed)
    make_deck = WORKLOADS[workload]
    while True:
        yield make_deck(rng)

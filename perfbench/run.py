"""lucaskit benchmark: one closed-loop client, in-process requests, an independent oracle.

Run from the root of a lucaskit checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload phi_mix --seed 1 --seconds 20 --trace 0

Workloads are phi_mix, verify_grid and seq_deep (see workloads.py for why
each exists). With --trace 0 the client sends the seeded request stream one
request at a time, each a call to lucaskit.cli.main(argv) or to one library
function, until the requests have taken --seconds in total (whole decks
only), and reports the end-to-end metrics. With --trace 1 it runs the first
TRACE_DECKS decks twice, untraced and then traced, and reports per-layer
self times and counts; the counts depend only on the seed. Every output is
checked by oracle.py outside the timed region. Lines starting with '#'
describe the machine and the run; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
TRACE_DECKS = 2
SLOWEST = 10
# Past this many seconds a run stops sending requests (even mid-deck), so it
# ends within three minutes even if the program becomes far slower.
DEADLINE_S = 150.0


@dataclass
class Pass:
    """What one pass over a request list saw."""

    latencies: list[tuple[float, str]] = field(default_factory=list)
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    stdout_bytes: int = 0

    @property
    def busy_s(self) -> float:
        return sum(t for t, _ in self.latencies)


def load_lucaskit(root: Path):
    """Import lucaskit from the checkout's src/, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "lucaskit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lucaskit sources under {src}")
    sys.path.insert(0, str(src))
    import lucaskit.cli

    if Path(lucaskit.__file__).resolve().parent != src / "lucaskit":
        raise SystemExit(f"perfbench: imported lucaskit from {lucaskit.__file__}, not {src}")
    return lucaskit


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def execute(lk, req: workloads.Request):
    """Run one request. Returns (latency_s, rc, stdout, stderr, value, crash)."""
    out, err = io.StringIO(), io.StringIO()
    rc = value = crash = None
    t0 = time.perf_counter()
    try:
        if req.kind == "cli":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = lk.cli.main(list(req.args))
        else:
            p, q, n = req.args
            params = lk.sequences.RecurrenceParams(p, q)
            if req.kind == "fast_pair":
                value = lk.sequences.fast_pair(params, n)
            else:
                value = lk.sequences.SequenceTable(params).u(n)
    except Exception as exc:  # a request that raises out of lucaskit is a failure
        crash = f"{type(exc).__name__}: {exc}"[:160]
    latency = time.perf_counter() - t0
    return latency, rc, out.getvalue(), err.getvalue(), value, crash


def judge(req: workloads.Request, rc, out: str, err: str, value, crash) -> tuple[bool, str | None]:
    """(failed, wrong-answer reason) for one outcome."""
    if crash is not None:
        return True, None
    if req.kind == "cli":
        if rc != oracle.expected_exit(req.spec):
            return True, None
        reason = oracle.check_output(req.spec, out, err)
    elif req.kind == "fast_pair":
        reason = oracle.check_pair(*req.args, value)
    else:
        reason = oracle.check_table_u(*req.args, value)
    return reason is not None, reason


def run_pass(lk, decks, budget_s: float, deadline: float, tracer=None, check: bool = True,
             keep: bool = False) -> Pass:
    """Send requests deck by deck until they have taken budget_s (or the decks run out).

    check judges each outcome with the oracle; keep records a digest of each
    outcome so two passes over the same requests can be compared.
    """
    result = Pass()
    for deck in decks:
        for req in deck:
            span = tracer.begin_request() if tracer is not None else None
            latency, rc, out, err, value, crash = execute(lk, req)
            if tracer is not None:
                tracer.end_request(span)
            result.latencies.append((latency, req.label()))
            result.stdout_bytes += len(out.encode())
            if keep:
                digest = hashlib.sha256(out.encode()).hexdigest()
                result.outputs.append((rc, digest, err, value, crash))
            if check:
                failed, wrong = judge(req, rc, out, err, value, crash)
                result.failed += failed
                if wrong is not None:
                    result.wrong.append(f"{req.label()[:120]}: {wrong}")
            if time.perf_counter() > deadline:
                print(f"# deadline reached after {len(result.latencies)} requests")
                return result
        if result.busy_s >= budget_s:
            break
    return result


def measure_setup(root: Path, req: workloads.Request, deadline: float) -> tuple[float, list[str]]:
    """Median wall time of a fresh interpreter importing lucaskit.cli and running req."""
    code = ("import sys; sys.path.insert(0, 'src'); import lucaskit.cli; "
            "sys.exit(lucaskit.cli.main(sys.argv[1:]))")
    times, wrong = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *req.args], cwd=root,
                              capture_output=True, text=True, timeout=30)
        times.append(time.perf_counter() - t0)
        if proc.returncode != oracle.expected_exit(req.spec):
            wrong.append(f"set-up request exited {proc.returncode}: {proc.stderr[-200:]}")
        elif (reason := oracle.check_output(req.spec, proc.stdout, proc.stderr)) is not None:
            wrong.append(f"set-up request: {reason}")
        if time.perf_counter() > deadline:
            break
    return statistics.median(times), wrong


def print_slowest(title: str, result: Pass) -> None:
    print(f"# {SLOWEST} slowest requests, {title}:")
    for latency, label in sorted(result.latencies, reverse=True)[:SLOWEST]:
        print(f"#   {latency * 1000:10.2f} ms  {label}")


def end_to_end(root: Path, lk, args, deadline: float) -> tuple[dict, Pass]:
    setup_s, setup_wrong = measure_setup(root, workloads.SETUP_REQUESTS[args.workload], deadline)
    result = run_pass(lk, workloads.stream(args.workload, args.seed), args.seconds, deadline)
    result.wrong += setup_wrong
    lat = sorted(t for t, _ in result.latencies)
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[8] if n >= 2 else lat[0]
    print(f"# {n} requests, {result.busy_s:.3f} s inside lucaskit; p90 from {n} samples, "
          f"{sum(t > p90 for t in lat)} beyond it")
    print_slowest("untraced pass", result)
    metrics = {
        "requests_per_s": (n / result.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (result.failed / n, "ratio"),
    }
    return metrics, result


def per_layer(lk, args, deadline: float) -> tuple[dict, Pass]:
    from tracer import Tracer

    decks = list(itertools.islice(workloads.stream(args.workload, args.seed), TRACE_DECKS))
    untraced = run_pass(lk, decks, float("inf"), deadline, keep=True)
    tracer = Tracer()
    tracer.install()
    try:
        left = tracer.unwrapped_aliases()
        traced = run_pass(lk, decks, float("inf"), deadline, tracer=tracer, check=False,
                          keep=True)
    finally:
        tracer.uninstall()
    traced.failed, traced.wrong = untraced.failed, list(untraced.wrong)
    traced.wrong += [f"unwrapped alias left by the tracer: {where}" for where in left]
    if untraced.outputs[:len(traced.outputs)] != traced.outputs:
        traced.wrong.append("traced and untraced passes printed different bytes")
    print(f"# {len(traced.latencies)} requests; untraced {untraced.busy_s:.3f} s, "
          f"traced {traced.busy_s:.3f} s, {len(tracer.starts)} spans")
    print_slowest("untraced pass", untraced)
    print_slowest("traced pass", traced)

    calls = collections.Counter(tracer.calls)  # a function lucaskit no longer has counts 0
    counts = tracer.counts
    checked, skipped = counts["identities.cells_checked"], counts["identities.cells_skipped"]
    phi_calls = calls["charpoly.phi_product"]
    metrics = {f"{m}.self_s": (t, "s") for m, t in tracer.self_times().items()}
    metrics.update({
        "cli.calls": (calls["cli.main"], "count"),
        "cli.stdout_bytes": (traced.stdout_bytes, "bytes"),
        "identities.run_grid_calls": (calls["identities.run_grid"], "count"),
        "identities.cells_checked": (checked, "count"),
        "identities.cells_skipped": (skipped, "count"),
        "identities.checked_ratio": (checked / (checked + skipped) if checked else 0.0, "ratio"),
        "charpoly.phi_product_calls": (phi_calls, "count"),
        "charpoly.phi_product_distinct_ratio": (
            len(tracer.phi_product_keys) / phi_calls if phi_calls else 0.0, "ratio"),
        "charpoly.phi_coeff_formula_calls": (calls["charpoly.phi_coeff_formula"], "count"),
        "binomials.generalized_binomial_calls": (calls["binomials.generalized_binomial"], "count"),
        "binomials.gaussian_binomial_calls": (calls["binomials.gaussian_binomial"], "count"),
        "sequences.table_lookups": (sum(calls[f"sequences.SequenceTable.{m}"]
                                        for m in ("u", "w", "q_power")), "count"),
        "sequences.fast_pair_calls": (calls["sequences.fast_pair"], "count"),
        "sequences.max_operand_bits": (counts["sequences.max_operand_bits"], "bits"),
        "poly.mul_calls": (calls["poly.Poly.__mul__"], "count"),
        "poly.divmod_calls": (calls["poly.Poly.__divmod__"], "count"),
        "poly.max_degree": (max(counts["poly.max_degree"], 0), "count"),
        "quadfield.mul_calls": (calls["quadfield.QuadExt.__mul__"], "count"),
        "quadfield.make_roots_calls": (calls["quadfield.make_roots"], "count"),
        "numeric.squarefree_calls": (calls["numeric.squarefree_decompose"], "count"),
        "trace.overhead_s": (traced.busy_s - untraced.busy_s, "s"),
    })
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    root = Path.cwd()
    lk = load_lucaskit(root)
    print("# machine: " + json.dumps(machine(), sort_keys=True))
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    if args.trace:
        metrics, result = per_layer(lk, args, deadline)
    else:
        metrics, result = end_to_end(root, lk, args, deadline)
    for line in result.wrong[:20]:
        print(f"# WRONG: {line}")
    print(json.dumps({
        "correct": not result.wrong,
        "attempted": len(result.latencies),
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

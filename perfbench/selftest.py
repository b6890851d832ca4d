"""Self-test of the benchmark's tracer. Run from the root of a lucaskit checkout:

    python3 perfbench/selftest.py

It checks that
1. once the tracer is installed, no original of a wrapped function is
   reachable from any lucaskit module: the aliases the package is known to
   hold (charpoly.generalized_binomial, cli.phi_product,
   identities.phi_product, Poly/QuadExt __mul__ and __rmul__, the identity
   registry's closures) are wrappers, and the generic walk finds nothing;
2. a traced pass and an untraced pass over the same requests (the first
   deck of every workload) print identical stdout bytes, exit codes and
   library results, and the traced pass really recorded spans;
3. uninstalling puts every original back.
Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    lk = run.load_lucaskit(Path.cwd())
    problems: list[str] = []
    known = {
        "charpoly.generalized_binomial": lambda: lk.charpoly.generalized_binomial,
        "cli.phi_product": lambda: lk.cli.phi_product,
        "identities.phi_product": lambda: lk.identities.phi_product,
        "lucaskit.fast_pair": lambda: lk.fast_pair,
        "Poly.__mul__": lambda: vars(lk.poly.Poly)["__mul__"],
        "Poly.__rmul__": lambda: vars(lk.poly.Poly)["__rmul__"],
        "QuadExt.__mul__": lambda: vars(lk.quadfield.QuadExt)["__mul__"],
        "QuadExt.__rmul__": lambda: vars(lk.quadfield.QuadExt)["__rmul__"],
        "identities.check_eq25_freitag in REGISTRY": lambda: next(
            c.cell_contents for c in lk.identities.REGISTRY["eq25_freitag"].runner.__closure__
            if callable(c.cell_contents)),
    }
    before = {name: get() for name, get in known.items()}

    decks = [next(workloads.stream(w, 0)) for w in sorted(workloads.WORKLOADS)]
    untraced = run.run_pass(lk, decks, float("inf"), float("inf"), check=False, keep=True)
    tracer = Tracer()
    tracer.install()
    try:
        for name, get in known.items():
            if not hasattr(get(), "__perfbench_original__"):
                problems.append(f"{name} is not wrapped")
        problems += [f"unwrapped alias: {where}" for where in tracer.unwrapped_aliases()]
        traced = run.run_pass(lk, decks, float("inf"), float("inf"), tracer=tracer, check=False,
                              keep=True)
    finally:
        tracer.uninstall()

    for i, (a, b) in enumerate(zip(untraced.outputs, traced.outputs)):
        if a != b:
            problems.append(f"request {i} ({untraced.latencies[i][1][:80]}) differs when traced")
    if len(untraced.outputs) != len(traced.outputs):
        problems.append("traced and untraced passes ran different numbers of requests")
    for name in ("poly.Poly.__mul__", "quadfield.QuadExt.__mul__", "cli.main",
                 "identities.run_grid", "sequences.fast_pair"):
        if tracer.calls.get(name, 0) == 0:
            problems.append(f"no calls recorded for {name}")
    for name, get in known.items():
        if get() is not before[name]:
            problems.append(f"{name} was not restored by uninstall")

    print(f"{len(traced.outputs)} requests, {len(tracer.starts)} spans, "
          f"{len(tracer.calls)} wrapped functions")
    for line in problems:
        print("FAIL:", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

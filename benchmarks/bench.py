"""Layer microbenchmark: recurrences, SequenceTable, fast_pair, Phi_n, Poly, sweeps, binomials, CLI.

Run from the root of a checkout:

    python3 benchmarks/bench.py --side change --out BENCH_int_kernel.json
    python3 benchmarks/bench.py --side parent --src /path/to/parent/src --out BENCH_int_kernel.json
    python3 benchmarks/bench.py --side change --ab /path/to/parent/src -k 20 --out BENCH_int_kernel.json

Each run imports lucaskit from ``--src`` (default: this checkout's src/)
and records one side of the out file, keeping the sides already there, so
two runs against two source trees give a before/after pair. Such sides run
one after the other, and on a shared host the medians of unchanged code can
drift between them by tens of percent; ``--ab`` resolves smaller changes. It
imports the tree under ``--ab`` as a second package and times only the
``AB_CASES`` there, alternating the two trees in every round, and records
per case both medians, the parent's quartiles, the rounds the change won and
whether both trees returned the same result. Every case
reports the median wall time of ``-k`` runs (time.perf_counter), and from
one extra untimed run its deterministic operation counts (multiplications,
``Fraction`` operations and ``SequenceTable`` constructions) and the largest
operand in bits. The ``lucaskit ...`` cases call ``cli.main`` in-process
with stdout and stderr discarded; the two smallest ones (a one-row ``seq``
and a ``verify`` refused for its format) cost little beyond parsing argv
and config, so they show what the CLI's option handling costs per call.
Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import operator
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")
# the sweeps whose cells read eq22's root, cor35's triple and eq21's sign
AB_CASES = ("run_grid cor35 p=-3..3 q=1 n_max=200", "run_grid eq22 n_max=300",
            "run_grid eq21 n_max=40", "run_grid eq21 + eq21_paper_sign n_max=30")


@contextmanager
def fraction_op_counter():
    """Count calls to Fraction's +, - and * (both operand orders) while active."""
    counts = dict.fromkeys(_FRACTION_OPS, 0)
    originals = {name: vars(Fraction)[name] for name in _FRACTION_OPS}

    def counting(name, original):
        def op(a, b):
            counts[name] += 1
            return original(a, b)
        return op

    for name, original in originals.items():
        setattr(Fraction, name, counting(name, original))
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(Fraction, name, original)


@contextmanager
def table_counter(table_class):
    """Count constructions of ``table_class``, from whichever module, while active."""
    count = [0]
    init = table_class.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    table_class.__init__ = counting
    try:
        yield count
    finally:
        table_class.__init__ = init


def bits(value) -> int:
    """The largest operand in ``value``; 0 for results that carry none, such as reports."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, (list, tuple)):
        return max((bits(v) for v in value), default=0)
    return bits(value.coeffs) if hasattr(value, "coeffs") else 0


def recurrence(p, q, n: int, mul=operator.mul):
    """u_n by n steps of u_{k+1} = p u_k - q u_{k-1}, on whatever p, q are."""
    u0, u1 = type(p)(0), type(p)(1)
    for _ in range(n):
        u0, u1 = u1, mul(p, u1) - mul(q, u0)
    return u0


def cases(lk):
    """(name, function, counted function) for every case; the counted one takes a MulCounter."""
    seq = lk.sequences
    R = Fraction

    def params(p, q):
        return seq.RecurrenceParams(R(p), R(q))

    out = []
    for kind, p, q in (("Fraction", R(1), R(-1)), ("int", 1, -1)):
        out.append((f"recurrence {kind} (1, -1) n=20000",
                    lambda p=p, q=q: recurrence(p, q, 20000),
                    lambda c, p=p, q=q: recurrence(p, q, 20000, c.mul)))
    # SequenceTable(params).u(n) on the seq_deep library ladder
    for p, q, n in ((3, 2, 2500), (1, -1, 2500), (3, -3, 1500), (R(2, 3), R(-1, 3), 1500),
                    (R(1, 2), R(-1, 3), 1500), (R(3, 2), R(-1, 2), 2500)):
        out.append((f"SequenceTable({p}, {q}).u({n})",
                    lambda p=p, q=q, n=n: seq.SequenceTable(params(p, q)).u(n), None))
    # the rows 0..n that `lucaskit seq` reads, on the seq_deep table ladder
    for p, q, n in ((3, -3, 3000), (1, -1, 3000), (R(2, 3), R(-1, 3), 1000),
                    (R(-1, 3), R(3, 2), 1400)):
        def rows(p=p, q=q, n=n):
            t = seq.SequenceTable(params(p, q))
            return [(t.u(i), t.w(i)) for i in range(n + 1)][-1]
        out.append((f"SequenceTable({p}, {q}) rows 0..{n}", rows, None))
    for p, q, n in ((3, -3, 100000), (1, -1, 100000), (R(2, 3), R(-1, 3), 100000),
                    (R(1, 2), R(-1, 3), 100000), (R(3, 2), R(-1, 2), 10000)):
        out.append((f"fast_pair({p}, {q}, {n})",
                    lambda p=p, q=q, n=n: seq.fast_pair(params(p, q), n),
                    lambda c, p=p, q=q, n=n: seq.fast_pair(params(p, q), n, c)))
    # both Phi_n routes, each building its own table
    for p, q, ns in ((1, -1, (20, 60, 100)), (R(1, 2), R(-1, 3), (20, 60))):
        for n in ns:
            for route in (lk.charpoly.phi_product, lk.charpoly.phi_coeff_formula):
                out.append((f"{route.__name__}({p}, {q}, {n})",
                            lambda route=route, p=p, q=q, n=n: route(params(p, q), n), None))
    # Poly products and divisions on the operands phi and phi --factor meet
    phi_80 = lk.charpoly.phi_product(params(1, -1), 80)
    phi_40 = lk.charpoly.phi_product(params(R(1, 2), R(-1, 3)), 40)
    quad_80 = lk.charpoly.quadratic_factor(params(1, -1), 80)
    product = phi_80 * phi_40
    out.append(("Poly.__mul__ Phi_80(1, -1) * Phi_40(1/2, -1/3)", lambda: phi_80 * phi_40, None))
    out.append(("divmod Phi_80(1, -1) by its quadratic factor",
                lambda: divmod(phi_80, quad_80), None))
    out.append(("divmod Phi_80(1, -1) * Phi_40(1/2, -1/3) by Phi_40(1/2, -1/3)",
                lambda: divmod(product, phi_40), None))
    # run_grid builds its SequenceTables itself, so table_count reads how many
    ident = lk.identities
    square = ident.GridSpec((R(-3), R(3)), (R(-3), R(3)), n_max=30)
    parametric = [i for i, d in ident.REGISTRY.items() if not d.fixed_params]
    for label, grid, ids in (("7x7 n_max=30 default ids", square, ident.DEFAULT_IDENTITY_IDS),
                             ("7x7 n_max=30 parametric ids", square, parametric),
                             ("eq21 n_max=40", ident.GridSpec(n_max=40), ["eq21"]),
                             ("eq21 + eq21_paper_sign n_max=30", ident.GridSpec(n_max=30),
                              ["eq21", "eq21_paper_sign"]),
                             ("eq21 n_max=100", ident.GridSpec(n_max=100), ["eq21"]),
                             ("cor35 p=-3..3 q=1 n_max=200",
                              ident.GridSpec((R(-3), R(3)), (R(1), R(1)), n_max=200), ["cor35"]),
                             ("eq22 n_max=300", ident.GridSpec(n_max=300), ["eq22"])):
        out.append((f"run_grid {label}", lambda grid=grid, ids=ids: ident.run_grid(grid, ids), None))
    square_100 = ident.GridSpec((R(-3), R(3)), (R(-3), R(3)), n_max=100)
    for i in parametric:
        out.append((f"run_grid 7x7 n_max=100 {i}",
                    lambda i=i: ident.run_grid(square_100, [i]), None))
    for m, k in ((44, 20), (200, 100)):
        out.append((f"gaussian_binomial({m}, {k})",
                    lambda m=m, k=k: lk.binomials.gaussian_binomial(m, k), None))
    for argv in (["seq", "-p", "1", "-q", "-1", "-n", "0"],
                 ["verify", "--identities", ",", "--format", "xml"],
                 ["phi", "-p", "2", "-q", "3", "-n", "12"],
                 ["gauss", "-m", "26", "-k", "9", "--cyclotomic"],
                 ["phi", "-p", "1", "-q", "-1", "-n", "80"],
                 ["verify", "--p-range", "-3:3", "--q-range", "-3:3", "--n-max", "100",
                  "--identities", "all"]):
        def call(argv=argv):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                lk.cli.main(argv)  # an exit code is no operand: bits reads 0
        out.append((f"lucaskit {' '.join(argv)}", call, None))
    return out


def measure(lk, fn, counted, k: int) -> dict:
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    counter = lk.sequences.MulCounter()
    with fraction_op_counter() as fraction_ops, \
            table_counter(lk.sequences.SequenceTable) as tables:
        result = counted(counter) if counted is not None else fn()
    return {
        "median_s": statistics.median(times),
        "runs_s": times,
        "mul_count": counter.count if counted is not None else None,
        "fraction_ops": sum(fraction_ops.values()),
        "table_count": tables[0],
        "max_operand_bits": bits(result),
    }


def import_tree(src: str, name: str):
    """The lucaskit package under ``src``, imported as the top-level package ``name``."""
    init = Path(src).resolve() / "lucaskit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")  # the package imports every other module itself
    return package


def ab(parent, change, k: int) -> dict:
    """Time each of ``AB_CASES`` k times per tree, the two trees alternating in each round."""
    trees = {"parent": parent, "change": change}
    fns = {side: {name: fn for name, fn, _ in cases(lk)} for side, lk in trees.items()}
    out = {}
    for name in AB_CASES:
        times = {"parent": [], "change": []}
        for i in range(k):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                t0 = time.perf_counter()
                fns[side][name]()
                times[side].append(time.perf_counter() - t0)
        q1, _, q3 = statistics.quantiles(times["parent"], n=4)
        out[name] = row = {
            "parent_median_s": statistics.median(times["parent"]),
            "change_median_s": statistics.median(times["change"]),
            "parent_iqr_s": [q1, q3],
            "change_faster_rounds": sum(c < p for p, c in zip(times["parent"], times["change"])),
            "rounds": k,
            # each tree has its own report class, so the two compare by their records
            "same_result": [r.to_record() for r in fns["parent"][name]()]
            == [r.to_record() for r in fns["change"][name]()],
        }
        print(f"{row['parent_median_s'] * 1000:10.2f} -> {row['change_median_s'] * 1000:8.2f} ms  "
              f"parent IQR {q1 * 1000:.2f}-{q3 * 1000:.2f}  faster {row['change_faster_rounds']}/{k}"
              f"  same={row['same_result']}  {name}")
    return out


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True, help="name of this side, e.g. parent or change")
    parser.add_argument("--src", default=str(root / "src"), help="directory holding lucaskit/")
    parser.add_argument("--out", default=None, help="JSON file to merge this side into")
    parser.add_argument("-k", type=int, default=5, help="timed runs per case (default 5)")
    parser.add_argument("--ab", default=None, metavar="PARENT_SRC",
                        help="time AB_CASES against the lucaskit under PARENT_SRC, alternating")
    args = parser.parse_args(argv)

    lucaskit = import_tree(args.src, "lucaskit")
    if args.ab:
        result = ab(import_tree(args.ab, "lucaskit_parent"), lucaskit, args.k)
    else:
        result = {"cases": {}}
        for name, fn, counted in cases(lucaskit):
            result["cases"][name] = row = measure(lucaskit, fn, counted, args.k)
            print(f"{row['median_s'] * 1000:10.2f} ms  fraction_ops={row['fraction_ops']:<7} "
                  f"tables={row['table_count']:<4} bits={row['max_operand_bits']:<7} {name}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"sides": {}}
        machine = {"python": platform.python_version(), "machine": platform.machine(),
                   "cpus": len(os.sched_getaffinity(0)), "k": args.k}
        if args.ab:
            doc["ab"] = {"machine": machine, "change": args.side, "cases": result}
        else:
            doc["machine"] = machine
            doc["sides"][args.side] = result
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

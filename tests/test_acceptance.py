"""Acceptance gate: one test per shipped guarantee, run with -v for a
one-line pass/fail verdict per criterion.

Everything here recomputes its expectations from scratch (dense grids,
independent proof routes, division oracles) rather than trusting values
frozen elsewhere in the suite.
"""

import json
import random

from fractions import Fraction

from lucaskit.binomials import (
    cyclotomic_poly,
    gaussian_binomial,
    gaussian_cyclotomic_factorization,
    generalized_binomial,
    generalized_binomial_quotient,
)
from lucaskit.charpoly import (
    fibonacci_factorization,
    phi_coeff_formula,
    phi_product,
    quadratic_factor,
)
from lucaskit.cli import main
from lucaskit.identities import (
    FAIL,
    PASS,
    SKIPPED,
    GridSpec,
    check_eq25_freitag,
    check_eq25_zeitlin,
    check_eq25_zeitlin_paper_sign,
    pythagorean_like,
    run_grid,
)
from lucaskit.poly import Poly
from lucaskit.quadfield import make_roots
from lucaskit.sequences import (
    FIBONACCI,
    MulCounter,
    RecurrenceParams,
    SequenceTable,
    cubic_coefficients,
    fast_pair,
    iter_pair,
)


def test_a1_discriminant_identity_dense_grid():
    """w_n^2 - 4q^n == u_n^2 (p^2 - 4q) on p, q in [-8, 8], n <= 200."""
    for p in range(-8, 9):
        for q in range(-8, 9):
            params = RecurrenceParams(p, q)
            disc = params.discriminant
            table = SequenceTable(params)
            for n in range(201):
                assert table.w(n) ** 2 - 4 * table.q_power(n) == table.u(n) ** 2 * disc

            # independent route: both sides obey the same cubic recurrence,
            # so equal values at three consecutive indices force equality
            c2, c1, c0 = cubic_coefficients(params)
            lhs = [table.w(n) ** 2 - 4 * table.q_power(n) for n in range(9)]
            rhs = [table.u(n) ** 2 * disc for n in range(9)]
            for m in range(6):
                assert lhs[m + 3] == c2 * lhs[m + 2] + c1 * lhs[m + 1] + c0 * lhs[m]
                assert rhs[m + 3] == c2 * rhs[m + 2] + c1 * rhs[m + 1] + c0 * rhs[m]
            assert lhs[:3] == rhs[:3]
    print("criterion 1: pass (discriminant identity, dense grid + recurrence route)")


def test_a2_fibonacci_lucas_specializations():
    """L_n^2 - 4(-1)^n == 5 F_n^2 and L_2n - 2(-1)^n == 5 F_n^2 for n <= 500."""
    table = SequenceTable(FIBONACCI)
    for n in range(501):
        fib, luc = table.u(n), table.w(n)
        sign = table.q_power(n)
        assert luc * luc - 4 * sign == 5 * fib * fib
        assert table.w(2 * n) - 2 * sign == 5 * fib * fib
    print("criterion 2: pass (Fibonacci and Lucas specializations to n = 500)")


def test_a3_characteristic_polynomial_consistency():
    """Product and coefficient-formula routes agree; roots vanish; the
    quadratic x^2 - w_n x + q^n divides whenever sigma^n != tau^n."""
    for p in range(-5, 6):
        for q in range(-5, 6):
            params = RecurrenceParams(p, q)
            sigma, tau = make_roots(params)
            sig_pows = [sigma**j for j in range(11)]
            tau_pows = [tau**j for j in range(11)]
            for n in range(11):
                phi = phi_product(params, n)
                assert phi == phi_coeff_formula(params, n)
                for j in range(n + 1):
                    assert not phi(sig_pows[j] * tau_pows[n - j])
                if n >= 1 and sig_pows[n] != tau_pows[n]:
                    quotient, remainder = divmod(phi, quadratic_factor(params, n))
                    assert not remainder
                    assert quotient.degree == n - 1
    print("criterion 3: pass (characteristic polynomial routes, roots, divisor)")


def test_a4_fibonacci_factorization_sign():
    """Exactly one sign reassembles Phi_n(1,-1,x) from the quadratic and the
    reversed tail, and it is (-1)^(n-1); the printed-sign variant (-1)^n is
    therefore inexact at every even n (it fails at odd n too)."""
    for n in range(2, 13):
        quad, tail, sign = fibonacci_factorization(n)
        assert sign == (-1) ** (n - 1)
        assert quad == quadratic_factor(FIBONACCI, n)
        assert tail == phi_product(FIBONACCI, n - 2).compose_negate()
        phi = phi_product(FIBONACCI, n)
        assert quad * tail * sign == phi
        assert quad * tail * (-sign) != phi
        if n % 2 == 0:
            assert quad * tail * ((-1) ** n) != phi
    print("criterion 4: pass (unique factorization sign (-1)^(n-1), 2 <= n <= 12)")


def test_a5_gaussian_and_generalized_binomials():
    """The product formula equals the quotient of products (division oracle) for m <= 30;
    cyclotomic exponents lie in {0,1} and reconstruct the polynomial; the
    polynomial route extends the sequence-quotient route past zero terms."""
    one_minus = [Poly([1]) + Poly([0] * j + [-1]) for j in range(31)]
    for m in range(31):
        denominator = Poly([1])
        numerator = Poly([1])
        for k in range(m + 1):
            if k:
                numerator = numerator * one_minus[m - k + 1]
                denominator = denominator * one_minus[k]
            binom = gaussian_binomial(m, k)
            assert binom * denominator == numerator
            factors = gaussian_cyclotomic_factorization(m, k)
            assert all(exponent == 1 for _, exponent in factors)
            rebuilt = Poly([1])
            for d, _ in factors:
                rebuilt = rebuilt * cyclotomic_poly(d)
            assert rebuilt == binom

    for p in range(-5, 6):
        for q in range(-5, 6):
            params = RecurrenceParams(p, q)
            table = SequenceTable(params)
            for r in range(13):
                for k in range(r + 1):
                    if any(table.u(i) == 0 for i in range(1, k + 1)):
                        continue
                    assert generalized_binomial(params, r, k) == (
                        generalized_binomial_quotient(params, r, k)
                    )

    stressed = RecurrenceParams(1, 1)
    assert SequenceTable(stressed).u(3) == 0
    value = generalized_binomial(stressed, 6, 3)
    assert value == Fraction(-2)
    try:
        generalized_binomial_quotient(stressed, 6, 3)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("quotient route should be inapplicable at u_3 = 0")
    print("criterion 5: pass (Gaussian binomials, cyclotomics, binomial routes)")


def test_a6_pythagorean_like_triples():
    """For q = 1, (w_n, 2u_n, p u_n) satisfies x^2 + y^2 - z^2 = 4, p y = 2z."""
    for p in range(-8, 9):
        for n in range(1, 101):
            x, y, z = pythagorean_like(p, n)
            assert x * x + y * y - z * z == 4
            assert p * y == 2 * z
    print("criterion 6: pass (near-Pythagorean triples, p in [-8, 8], n <= 100)")


def test_a7_ratio_identities_and_diagnostics():
    """Corrected five-ratio forms hold wherever defined on n <= 100, a <= 20;
    the printed-sign variant fails at (n=1, a=1) with value 9/5; grid report
    bookkeeping matches a manual recount."""
    table = SequenceTable(FIBONACCI)
    passed = 0
    for n in range(101):
        for a in range(21):
            for check in (check_eq25_freitag, check_eq25_zeitlin):
                outcome = check(n, a, table)
                assert outcome.status != FAIL
                if outcome.status == PASS:
                    assert outcome.lhs == 5
                    passed += 1
    assert passed > 3000

    diverging = check_eq25_zeitlin_paper_sign(1, 1, table)
    assert diverging.status == FAIL
    assert diverging.lhs == Fraction(9, 5)

    grid = GridSpec(n_max=5, a_max=2)
    (report,) = run_grid(grid, ["eq25_zeitlin_paper_sign"])
    outcomes = [
        check_eq25_zeitlin_paper_sign(n, a, table)
        for n in range(6)
        for a in range(3)
    ]
    assert report.status == FAIL
    assert report.checked == sum(1 for o in outcomes if o.status != SKIPPED)
    assert report.skipped == sum(1 for o in outcomes if o.status == SKIPPED)
    first_fail = next(
        (n, a)
        for n in range(6)
        for a in range(3)
        if check_eq25_zeitlin_paper_sign(n, a, table).status == FAIL
    )
    assert report.first_counterexample.indices == (("n", first_fail[0]), ("a", first_fail[1]))
    print("criterion 7: pass (five-ratio identities plus diagnostic bookkeeping)")


def test_a8_fast_doubling_agreement_and_cost():
    """fast_pair matches iter_pair at n = 4096 on 20 randomized parameter
    pairs and spends at least 10x fewer counted multiplications."""
    rng = random.Random(20260814)
    pairs = set()
    while len(pairs) < 20:
        pairs.add((rng.randint(-8, 8), rng.randint(-8, 8)))
    for p, q in sorted(pairs):
        params = RecurrenceParams(p, q)
        slow_counter, fast_counter = MulCounter(), MulCounter()
        slow = iter_pair(params, 4096, slow_counter)
        fast = fast_pair(params, 4096, fast_counter)
        assert slow == fast
        assert fast_counter.count * 10 <= slow_counter.count
    print("criterion 8: pass (fast doubling agreement and >= 10x fewer mults)")


def test_a9_cli_invocation_matrix(capsys):
    """Documented exit codes across subcommands; byte-identical reruns."""
    matrix = [
        (["seq", "-p", "1", "-q", "-1", "-n", "10"], 0),
        (["seq", "-p", "1/2", "-q", "-1/3", "-n", "4", "--format", "json"], 0),
        (["phi", "-p", "2", "-q", "3", "-n", "5", "--factor", "--format", "csv"], 0),
        (["binom", "-p", "1", "-q", "-1", "-r", "5", "-k", "2"], 0),
        (["gauss", "-m", "6", "-k", "3", "--cyclotomic"], 0),
        (["verify", "--p-range", "-2:2", "--q-range", "-2:2", "--n-max", "25"], 0),
        (["verify", "--identities", "eq25_zeitlin_paper_sign", "--n-max", "5"], 0),
        (
            ["verify", "--identities", "eq25_zeitlin_paper_sign", "--n-max", "5",
             "--strict-diagnostics"],
            1,
        ),
        (["seq", "-p", "1.5", "-q", "1", "-n", "3"], 2),
        (["seq", "-p", "1", "-n", "3"], 2),
        (["binom", "-p", "1", "-q", "-1", "-r", "3", "-k", "7"], 2),
        (["verify", "--identities", "nonsense"], 2),
        (["frobnicate"], 2),
    ]
    for argv, expected in matrix:
        code = main(list(argv))
        capsys.readouterr()
        assert code == expected, f"{argv} exited {code}, expected {expected}"

    for argv in (
        ["verify", "--identities", "all", "--n-max", "20", "--format", "json"],
        ["seq", "-p", "3", "-q", "2", "-n", "50", "--format", "csv"],
    ):
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second
        if "json" in argv:
            assert set(json.loads(first)) == {"command", "params", "records"}
    print("criterion 9: pass (CLI exit-code matrix and deterministic output)")

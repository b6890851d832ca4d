from fractions import Fraction

import pytest

from lucaskit.charpoly import (
    GaloisGroup,
    classify_galois,
    fibonacci_factorization,
    phi_coeff_formula,
    phi_product,
    quadratic_factor,
)
from lucaskit.poly import Poly
from lucaskit.quadfield import QuadExt, make_roots, rational_value
from lucaskit.sequences import FIBONACCI, RecurrenceParams, SequenceTable

GRID = [RecurrenceParams(p, q) for p in range(-3, 4) for q in range(-3, 4)]


def test_phi_product_base_cases():
    assert phi_product(FIBONACCI, 0).coeffs == [-1, 1]
    for params in (FIBONACCI, RecurrenceParams(3, 2), RecurrenceParams(Fraction(1, 2), 5)):
        assert phi_product(params, 1).coeffs == [params.q, -params.p, Fraction(1)]
    assert phi_product(FIBONACCI, 2).coeffs == [1, -2, -2, 1]
    for route in (phi_product, phi_coeff_formula):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            route(FIBONACCI, -1)


def test_phi_is_monic_of_degree_n_plus_1():
    for params in GRID:
        for n in range(5):
            phi = phi_product(params, n)
            assert phi.degree == n + 1
            assert phi.coeffs[-1] == 1


def test_phi_product_equals_coeff_formula():
    # includes degenerate (2,1) and rational-split (3,2) cells
    for params in GRID:
        for n in range(7):
            assert phi_product(params, n) == phi_coeff_formula(params, n), (params, n)


def _root_product(params, n):
    """Phi_n expanded over Q(sqrt(d)) from its n+1 linear factors: the oracle."""
    sigma, tau = make_roots(params)
    expanded = Poly.from_roots(sigma**j * tau ** (n - j) for j in range(n + 1))
    return expanded.map_coeffs(
        lambda c: rational_value(c, "Phi_n coefficient") if isinstance(c, QuadExt) else c
    )


def test_phi_product_matches_root_product_oracle():
    # GRID holds q = 0, D = 0 (2, 1) and square D (3, 2); at q = 0 some
    # coefficients are reached by no product term and must still be Fractions
    rational = [RecurrenceParams(Fraction(1, 2), Fraction(-1, 3)),
                RecurrenceParams(Fraction(-3, 2), Fraction(2, 3))]
    for params in GRID + rational:
        for n in range(9):
            phi = phi_product(params, n)
            assert phi == _root_product(params, n), (params, n)
            assert all(type(c) is Fraction for c in phi.coeffs), (params, n)


def test_phi_product_op_counts(monkeypatch):
    counts = {"quad": 0, "poly": 0}

    def counting(key, mul):
        def wrapped(self, other):
            counts[key] += 1
            return mul(self, other)
        return wrapped

    monkeypatch.setattr(QuadExt, "__mul__", counting("quad", QuadExt.__mul__))
    monkeypatch.setattr(Poly, "__mul__", counting("poly", Poly.__mul__))
    sigma, tau = make_roots(FIBONACCI)
    assert sigma * tau == -1 and counts["quad"] == 1  # the counter is live
    cases = [(FIBONACCI, 0), (FIBONACCI, 1), (FIBONACCI, 12), (RecurrenceParams(3, 0), 8),
             (RecurrenceParams(2, 1), 7), (RecurrenceParams(Fraction(2, 3), Fraction(-1, 3)), 22)]
    for params, n in cases:
        counts.update(quad=0, poly=0)
        phi_product(params, n)
        assert counts == {"quad": 0, "poly": (n + 1) // 2}, (params, n)


def test_phi_formula_base_case():
    assert phi_coeff_formula(FIBONACCI, 1).coeffs == [-1, -1, 1]
    assert phi_coeff_formula(FIBONACCI, 0).coeffs == [-1, 1]


def test_every_root_vanishes():
    for params in (FIBONACCI, RecurrenceParams(2, 3), RecurrenceParams(-3, Fraction(1, 2))):
        sigma, tau = make_roots(params)
        for n in range(6):
            phi = phi_product(params, n)
            for j in range(n + 1):
                assert phi(sigma**j * tau ** (n - j)) == 0


def test_quadratic_factor_values():
    assert quadratic_factor(FIBONACCI, 2).coeffs == [1, -3, 1]
    assert quadratic_factor(FIBONACCI, 4).coeffs == [1, -7, 1]
    for params in (FIBONACCI, RecurrenceParams(2, 3)):
        assert quadratic_factor(params, 1).coeffs == [params.q, -params.p, Fraction(1)]
    with pytest.raises(ValueError):
        quadratic_factor(FIBONACCI, 0)


def test_quadratic_factor_divides_phi():
    for params in GRID:
        sigma, tau = make_roots(params)
        for n in range(1, 6):
            if sigma**n == tau**n:
                continue
            quot, rem = divmod(phi_product(params, n), quadratic_factor(params, n))
            assert not rem, (params, n)
            assert quot.degree == n - 1


def test_quadratic_factor_discriminant_identity():
    for params in GRID:
        t = SequenceTable(params)
        for n in range(1, 12):
            f = quadratic_factor(params, n)
            disc = f[1] ** 2 - 4 * f[0]
            assert disc == t.u(n) ** 2 * params.discriminant


def test_fibonacci_factorization_n2():
    quad, tail, sign = fibonacci_factorization(2)
    assert quad.coeffs == [1, -3, 1]
    assert tail.coeffs == [-1, -1]
    assert sign == -1
    assert quad * tail * sign == phi_product(FIBONACCI, 2)


def test_fibonacci_factorization_n3():
    quad, tail, sign = fibonacci_factorization(3)
    assert quad.coeffs == [-1, -4, 1]
    assert tail.coeffs == [-1, 1, 1]
    assert sign == 1
    assert quad * tail == phi_product(FIBONACCI, 3)


def test_fibonacci_factorization_sign_rule():
    for n in range(2, 13):
        quad, tail, sign = fibonacci_factorization(n)
        assert sign == (-1) ** (n - 1)
        assert quad * tail * sign == phi_product(FIBONACCI, n)
        # the opposite (printed) sign never reassembles the polynomial
        assert quad * tail * (-sign) != phi_product(FIBONACCI, n)
    with pytest.raises(ValueError):
        fibonacci_factorization(1)


@pytest.mark.parametrize("n", [2, 3, 10, 11])
def test_fibonacci_factorization_reads_its_sign(monkeypatch, n):
    # the leading coefficients force the sign: one comparison, and a negation only at even n
    counts = {"__eq__": 0, "__neg__": 0}

    def counting(name, method):
        def wrapped(*args):
            counts[name] += 1
            return method(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(Poly, name, counting(name, getattr(Poly, name)))
    fibonacci_factorization(n)
    assert counts == {"__eq__": 1, "__neg__": 1 - n % 2}


def test_classify_galois():
    z2 = classify_galois(FIBONACCI)
    assert z2.variant is GaloisGroup.Z2 and z2.d == 5
    assert classify_galois(RecurrenceParams(1, 1)).d == -3
    assert classify_galois(RecurrenceParams(3, 2)).variant is GaloisGroup.TRIVIAL
    assert classify_galois(RecurrenceParams(2, 1)).variant is GaloisGroup.DEGENERATE
    assert classify_galois(RecurrenceParams(Fraction(1, 2), Fraction(-1, 2))).variant is (
        GaloisGroup.TRIVIAL  # discriminant 9/4
    )
    # D = p^2 - 12 has a cofactor past the factor bound: the verdict needs no
    # factoring, and d is the unreduced radicand num(D) * den(D)
    huge = classify_galois(RecurrenceParams(100000000000000000039, 3))
    assert huge.variant is GaloisGroup.Z2 and huge.d == 100000000000000000039**2 - 12
    rational = classify_galois(RecurrenceParams(Fraction(100000000000000000039, 2), -3))
    assert rational.variant is GaloisGroup.Z2 and rational.d == (100000000000000000039**2 + 48) * 4

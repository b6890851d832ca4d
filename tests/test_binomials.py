import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lucaskit.binomials import (
    HomogeneousBiPoly,
    bivariate_F,
    cyclotomic_exponent,
    cyclotomic_poly,
    gaussian_binomial,
    gaussian_cyclotomic_factorization,
    generalized_binomial,
    generalized_binomial_quotient,
    generalized_binomial_row,
    homogeneous_f,
)
from lucaskit.charpoly import phi_coeff_formula
from lucaskit.poly import Poly
from lucaskit.quadfield import QuadExt, make_roots, rational_value
from lucaskit.sequences import FIBONACCI, RecurrenceParams, SequenceTable


def quotient_form(m: int, k: int) -> Poly:
    """(A-style) product quotient prod (1 - z^(m-k+i)) / prod (1 - z^i)."""
    num = Poly([1])
    den = Poly([1])
    for i in range(1, k + 1):
        num = num * Poly([1] + [0] * (m - k + i - 1) + [-1])
        den = den * Poly([1] + [0] * (i - 1) + [-1])
    return num.divexact(den)


def test_gaussian_base_cases():
    assert gaussian_binomial(2, 1).coeffs == [1, 1]
    assert gaussian_binomial(4, 2).coeffs == [1, 1, 2, 1, 1]
    assert gaussian_binomial(9, 0).coeffs == [1]
    assert gaussian_binomial(0, 0).coeffs == [1]


def test_gaussian_range_errors():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 5)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1)
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0)


def test_gaussian_structure():
    for m in range(13):
        for k in range(m + 1):
            b = gaussian_binomial(m, k)
            assert b.degree == k * (m - k)
            assert all(c > 0 for c in b.coeffs)
            assert b.coeffs == b.coeffs[::-1]
            assert b == gaussian_binomial(m, m - k)
            assert b(1) == math.comb(m, k)
            assert b == quotient_form(m, k)
            if 0 < k < m:  # the q-Pascal rule, a route that never divides
                shifted = Poly([0] * k + gaussian_binomial(m - 1, k).coeffs)
                assert b == gaussian_binomial(m - 1, k - 1) + shifted


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1).coeffs == [-1, 1]
    assert cyclotomic_poly(2).coeffs == [1, 1]
    assert cyclotomic_poly(4).coeffs == [1, 0, 1]
    assert cyclotomic_poly(6).coeffs == [1, -1, 1]
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_cyclotomic_degree_and_reconstruction():
    for n in range(1, 25):
        poly = cyclotomic_poly(n)
        assert poly.degree == totient(n)
        assert poly.coeffs[-1] == 1
        product = Poly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_poly(d)
        assert product == Poly([-1] + [0] * (n - 1) + [1])


def test_cyclotomic_factorization_examples():
    assert gaussian_cyclotomic_factorization(4, 2) == [(3, 1), (4, 1)]
    assert gaussian_cyclotomic_factorization(5, 2) == [(4, 1), (5, 1)]
    assert gaussian_cyclotomic_factorization(7, 0) == []


def test_cyclotomic_factorization_reconstructs():
    for m in range(16):
        for k in range(m + 1):
            product = Poly([1])
            for d, e in gaussian_cyclotomic_factorization(m, k):
                assert e == 1
                product = product * cyclotomic_poly(d)
            assert product == gaussian_binomial(m, k)


def test_cyclotomic_exponents_in_01():
    for m in range(1, 22):
        for k in range(m + 1):
            for d in range(2, m + 1):
                assert cyclotomic_exponent(m, k, d) in (0, 1)


def test_homogeneous_bipoly_invariants():
    with pytest.raises(ValueError):
        HomogeneousBiPoly(2, (1, 1))
    f2 = homogeneous_f(2)
    assert f2.total_degree == 1 and f2.coeffs == (1, 1)
    prod = f2 * f2
    assert prod.total_degree == 2 and prod.coeffs == (1, 2, 1)
    assert prod.divexact(f2) == f2
    with pytest.raises(ValueError):
        f2.divexact(prod)
    with pytest.raises(ValueError, match="^i must be positive$"):
        homogeneous_f(0)


def test_bivariate_F_examples():
    assert bivariate_F(2, 1).coeffs == (1, 1)
    assert bivariate_F(3, 1).coeffs == (1, 1, 1)
    assert bivariate_F(3, 1) == homogeneous_f(3)
    assert bivariate_F(5, 0).coeffs == (1,)


def test_homogeneous_bipoly_str():
    assert str(bivariate_F(3, 1)) == "x^2 + x*y + y^2"
    assert str(HomogeneousBiPoly(3, (Fraction(-1, 2), 0, -1, 3))) == "-1/2*x^3 - x*y^2 + 3*y^3"
    assert str(HomogeneousBiPoly(1, (2, Fraction(-2, 3)))) == "2*x - 2/3*y"
    assert str(HomogeneousBiPoly(0, (Fraction(-3, 4),))) == "-3/4"
    assert str(HomogeneousBiPoly(2, (0, 0, 0))) == "0"


def test_bivariate_F_structure():
    for r in range(11):
        for k in range(r + 1):
            F = bivariate_F(r, k)
            t = k * (r - k)
            assert F.total_degree == t
            assert F.swap() == F
            assert F.evaluate(1, 1) == math.comb(r, k)
            assert F.evaluate(Fraction(3), 0) == Fraction(3) ** t


def test_bivariate_F_equals_quotient_of_f_factors():
    for r in range(1, 13):
        for k in range(1, r + 1):
            num = homogeneous_f(r - k + 1)
            for i in range(r - k + 2, r + 1):
                num = num * homogeneous_f(i)
            den = homogeneous_f(1)
            for i in range(2, k + 1):
                den = den * homogeneous_f(i)
            assert num.divexact(den) == bivariate_F(r, k)


def test_generalized_binomial_fibonacci_values():
    assert generalized_binomial(FIBONACCI, 3, 1) == 2
    assert generalized_binomial(FIBONACCI, 5, 2) == 15
    assert generalized_binomial(FIBONACCI, 9, 0) == 1
    assert generalized_binomial_quotient(FIBONACCI, 5, 2) == 15


def test_generalized_binomial_survives_zero_terms():
    params = RecurrenceParams(1, 1)  # u_3 = 0
    assert SequenceTable(params).u(3) == 0
    assert generalized_binomial(params, 6, 3) == -2
    with pytest.raises(ZeroDivisionError):
        generalized_binomial_quotient(params, 6, 3)


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(small_rationals, small_rationals, st.integers(min_value=0, max_value=9))
@settings(max_examples=60, deadline=None)
def test_polynomial_route_equals_quotient_route(p, q, r):
    params = RecurrenceParams(p, q)
    table = SequenceTable(params)
    for k in range(r + 1):
        if any(table.u(i) == 0 for i in range(1, k + 1)):
            continue
        assert generalized_binomial(params, r, k) == generalized_binomial_quotient(params, r, k)


def test_quotient_route_range_check():
    with pytest.raises(ValueError):
        generalized_binomial_quotient(FIBONACCI, 3, 5)


def _F_at_roots(params, r, k):
    """The paper's definition (r|k)_u = F(r, k, sigma, tau) over Q(sqrt(d)): the oracle."""
    sigma, tau = make_roots(params)
    value = bivariate_F(r, k).evaluate(sigma, tau)
    if isinstance(value, QuadExt):
        return rational_value(value, f"({r}|{k})_u")
    return Fraction(value)


def test_lucasnomial_row_matches_F_oracle():
    # the grid holds the zero-term pair (1, 1) (u_3 = 0), q = 0, p = q = 0
    # and D = 0 at (2, 1), (-2, 1), (4, 4) and (-4, 4)
    grid = [RecurrenceParams(p, q) for p in range(-4, 5) for q in range(-4, 5)]
    rational = [RecurrenceParams(Fraction(1, 2), Fraction(-2, 3)),
                RecurrenceParams(Fraction(-3, 2), Fraction(2, 3))]
    for params in grid + rational:
        for r in range(10):
            row = generalized_binomial_row(params, r)
            assert len(row) == r + 1
            for k in range(r + 1):
                expected = _F_at_roots(params, r, k)
                assert row[k] == expected, (params, r, k)
                assert generalized_binomial(params, r, k) == expected, (params, r, k)
                assert type(row[k]) is Fraction


def test_generalized_binomial_row_range_errors():
    with pytest.raises(ValueError):
        generalized_binomial_row(FIBONACCI, -1)
    with pytest.raises(ValueError, match=r"k must lie in \[0, 3\], got 7"):
        generalized_binomial(FIBONACCI, 3, 7)
    with pytest.raises(ValueError):
        generalized_binomial(FIBONACCI, 3, -1)


def test_pascal_route_op_counts(monkeypatch):
    counts = {"quad": 0, "roots": 0}

    def mul(self, other, _mul=QuadExt.__mul__):
        counts["quad"] += 1
        return _mul(self, other)

    def roots(params, _roots=make_roots):
        counts["roots"] += 1
        return _roots(params)

    monkeypatch.setattr(QuadExt, "__mul__", mul)
    for name, module in list(sys.modules.items()):
        if name.startswith("lucaskit") and getattr(module, "make_roots", None) is make_roots:
            monkeypatch.setattr(module, "make_roots", roots)
    sigma, tau = sys.modules["lucaskit.quadfield"].make_roots(FIBONACCI)
    assert sigma * tau == -1 and counts == {"quad": 1, "roots": 1}  # the counters are live
    cases = [FIBONACCI, RecurrenceParams(1, 1), RecurrenceParams(3, 0), RecurrenceParams(2, 1),
             RecurrenceParams(Fraction(2, 3), Fraction(-1, 3))]
    for params in cases:
        counts.update(quad=0, roots=0)
        for n in (0, 1, 9):
            phi_coeff_formula(params, n)
            for k in range(n + 1):
                generalized_binomial(params, n, k)
        assert counts == {"quad": 0, "roots": 0}, params

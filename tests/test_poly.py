from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lucaskit.poly import InexactDivisionError, Poly


def test_normalization_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == [1, 2]
    assert Poly([]).degree == -1
    assert Poly([5]).degree == 0
    assert not Poly([0, 0])
    assert Poly([0, 0]) == 0


def test_ring_operations():
    f = Poly([1, 1])         # 1 + x
    g = Poly([-1, 1])        # -1 + x
    assert f * g == Poly([-1, 0, 1])
    assert f + g == Poly([0, 2])
    assert f - f == Poly()
    assert 2 * f == Poly([2, 2])
    assert f + 1 == Poly([2, 1])
    assert (1 - f) == Poly([0, -1])
    assert f**3 == f * f * f
    assert Poly.x() ** 4 == Poly([0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="^negative polynomial power$"):
        f ** -1


def test_division():
    num = Poly([-1, 0, 0, 1])          # x^3 - 1
    quot, rem = divmod(num, Poly([-1, 1]))
    assert quot == Poly([1, 1, 1]) and not rem
    assert num.divexact(Poly([-1, 1])) == Poly([1, 1, 1])
    with pytest.raises(InexactDivisionError):
        Poly([1, 0, 1]).divexact(Poly([-1, 1]))
    with pytest.raises(InexactDivisionError):
        Poly([1, 1, 1]).divexact(Poly([0, 2]))  # 2x does not divide over ints
    with pytest.raises(ZeroDivisionError):
        divmod(num, Poly())


def test_division_over_fractions_is_total():
    num = Poly([Fraction(1), Fraction(1), Fraction(1)])
    quot, rem = divmod(num, Poly([Fraction(0), Fraction(2)]))
    assert quot * Poly([Fraction(0), Fraction(2)]) + rem == num


def test_unreached_coefficients_are_the_ring_zero():
    f = Poly([Fraction(0), Fraction(1)])  # x with a Fraction zero constant
    assert [type(c) for c in (f**2).coeffs] == [Fraction] * 3
    quot, rem = divmod(Poly([Fraction(1), Fraction(0), Fraction(0), Fraction(1)]), f)
    assert quot.coeffs == [0, 0, 1] and rem == 1
    assert [type(c) for c in quot.coeffs] == [Fraction] * 3
    # integer polynomials stay integer
    g = Poly([0, 1])
    assert [type(c) for c in (g**2).coeffs] == [int] * 3
    quot, rem = divmod(Poly([1, 0, 0, 1]), g)
    assert quot.coeffs == [0, 0, 1] and [type(c) for c in quot.coeffs] == [int] * 3


def test_from_roots_and_evaluation():
    f = Poly.from_roots([1, 2, 3])
    assert f.descending() == [1, -6, 11, -6]
    for r in (1, 2, 3):
        assert f(r) == 0
    assert f(0) == -6
    assert Poly([Fraction(1, 2), Fraction(1)])(Fraction(1, 2)) == 1


def test_compose_negate():
    f = Poly([-1, -1, 1])  # x^2 - x - 1
    assert f.compose_negate() == Poly([-1, 1, 1])
    assert f.compose_negate().compose_negate() == f


def test_getitem_and_descending():
    f = Poly([3, 0, 7])
    assert f[0] == 3 and f[1] == 0 and f[2] == 7 and f[9] == 0
    assert f.descending() == [7, 0, 3]
    assert Poly.from_descending([7, 0, 3]) == f


def test_str():
    assert str(Poly([-1, -1, 1])) == "x^2 - x - 1"
    assert str(Poly()) == "0"
    assert str(Poly([2])) == "2"


small_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(Poly)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@given(small_polys, small_polys)
def test_divmod_recomposes(f, g):
    rational_g = g.map_coeffs(Fraction)
    if not rational_g:
        return
    quot, rem = divmod(f.map_coeffs(Fraction), rational_g)
    assert quot * rational_g + rem == f
    assert rem.degree < rational_g.degree or not rem

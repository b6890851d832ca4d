from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lucaskit.quadfield import ContextMismatchError, QuadExt, make_roots, rational_value
from lucaskit.quadfield import IrrationalResultError
from lucaskit.sequences import RecurrenceParams

PHI = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)  # (1 + sqrt 5) / 2


def test_canonicalization():
    assert QuadExt(Fraction(3), Fraction(0), 7).d == 1
    assert QuadExt(Fraction(3), Fraction(2), 1) == QuadExt(Fraction(5))
    with pytest.raises(ValueError):
        QuadExt(Fraction(1), Fraction(1), 0)
    with pytest.raises(TypeError, match="^d must be a plain int$"):
        QuadExt(1, 1, 2.0)


def test_ring_arithmetic():
    conj = PHI.conjugate()
    assert PHI + conj == 1
    assert PHI * conj == -1
    assert PHI - PHI == 0
    assert (PHI * 2).a == 1
    assert 1 + PHI == PHI + 1
    assert 2 * PHI - PHI == PHI


def test_scalar_mixing_and_context_rules():
    sqrt5 = QuadExt(Fraction(0), Fraction(1), 5)
    sqrt2 = QuadExt(Fraction(0), Fraction(1), 2)
    assert sqrt5 * sqrt5 == 5
    assert (sqrt5 * Fraction(1, 2)).b == Fraction(1, 2)
    with pytest.raises(ContextMismatchError):
        sqrt5 * sqrt2
    # rational elements mix with anything
    assert (sqrt5 * sqrt5) + sqrt2 == QuadExt(Fraction(5), Fraction(1), 2)


def test_norm_trace_inverse():
    assert PHI.norm() == -1
    assert PHI.trace() == 1
    assert PHI * PHI.inv() == 1
    assert PHI ** -2 == PHI.inv() * PHI.inv()
    with pytest.raises(ZeroDivisionError):
        QuadExt(Fraction(0)).inv()


def test_pow_matches_repeated_product():
    acc = QuadExt(Fraction(1))
    for k in range(8):
        assert PHI**k == acc
        acc = acc * PHI


def test_division():
    sqrt5 = QuadExt(Fraction(0), Fraction(1), 5)
    assert (1 / sqrt5) * sqrt5 == 1
    assert (PHI / PHI) == 1


def test_is_rational_and_unwrap():
    assert QuadExt(Fraction(7, 3)).is_rational() == Fraction(7, 3)
    assert PHI.is_rational() is None
    with pytest.raises(IrrationalResultError):
        rational_value(PHI, "test value")


def test_hash_matches_fraction_for_rationals():
    assert hash(QuadExt(Fraction(7, 3))) == hash(Fraction(7, 3))
    assert QuadExt(Fraction(7, 3)) == Fraction(7, 3)


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(rationals, rationals)
def test_make_roots_satisfy_characteristic_equation(p, q):
    params = RecurrenceParams(p, q)
    sigma, tau = make_roots(params)
    assert sigma + tau == p
    assert sigma * tau == q
    assert sigma * sigma - p * sigma + q == 0
    assert tau * tau - p * tau + q == 0


@given(rationals, rationals)
def test_root_gap_squares_to_discriminant(p, q):
    params = RecurrenceParams(p, q)
    sigma, tau = make_roots(params)
    gap = sigma - tau
    assert gap * gap == params.discriminant

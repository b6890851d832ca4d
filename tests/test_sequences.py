from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lucaskit.sequences import (
    FIBONACCI,
    DegenerateDiscriminantError,
    MulCounter,
    RecurrenceParams,
    SequenceTable,
    check_cubic_recurrence,
    cubic_coefficients,
    fast_pair,
    iter_pair,
    u_binet,
    u_from_w,
    w_binet,
    w_from_u,
)

FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
LUCAS = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199]

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
int_params = st.integers(min_value=-9, max_value=9)


def test_params_coercion_and_discriminant():
    params = RecurrenceParams(1, -1)
    assert params.p == Fraction(1) and params.q == Fraction(-1)
    assert params.discriminant == 5
    assert not params.is_degenerate
    assert RecurrenceParams(2, 1).is_degenerate
    with pytest.raises(TypeError):
        RecurrenceParams(0.5, 1)


def test_fibonacci_lucas_values():
    t = SequenceTable(FIBONACCI)
    assert [t.u(n) for n in range(12)] == FIB
    assert [t.w(n) for n in range(12)] == LUCAS
    assert t.q_power(7) == -1


def test_table_rejects_negative_index():
    t = SequenceTable(FIBONACCI)
    for read in (t.u, t.w, t.q_power,
                 lambda n: iter_pair(FIBONACCI, n), lambda n: fast_pair(FIBONACCI, n)):
        with pytest.raises(ValueError, match="^index must be nonnegative$"):
            read(-1)


def test_power_sequence_closed_form():
    # p=3, q=2 splits rationally: sigma=2, tau=1
    t = SequenceTable(RecurrenceParams(3, 2))
    for n in range(20):
        assert t.u(n) == 2**n - 1
        assert t.w(n) == 2**n + 1


@given(rationals, rationals, st.integers(min_value=0, max_value=40))
def test_binet_matches_recurrence(p, q, n):
    params = RecurrenceParams(p, q)
    t = SequenceTable(params)
    assert w_binet(params, n) == t.w(n)
    if params.is_degenerate:
        with pytest.raises(DegenerateDiscriminantError):
            u_binet(params, n)
    else:
        assert u_binet(params, n) == t.u(n)


@given(int_params, int_params, st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_fast_pair_matches_iteration(p, q, n):
    params = RecurrenceParams(p, q)
    assert fast_pair(params, n) == iter_pair(params, n)


def test_fast_pair_rational_params():
    params = RecurrenceParams(Fraction(1, 2), Fraction(-2, 3))
    for n in (0, 1, 2, 3, 17, 64, 101):
        assert fast_pair(params, n) == iter_pair(params, n)


def test_mul_counter_advantage():
    params = RecurrenceParams(3, -2)
    fast_c, iter_c = MulCounter(), MulCounter()
    fast_pair(params, 4096, fast_c)
    iter_pair(params, 4096, iter_c)
    assert iter_c.count == 4 * 4096
    assert fast_c.count * 10 <= iter_c.count


@pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 255, 4096, 99999])
def test_fast_pair_mul_count_per_bit(n):
    # each binary digit doubles the index (3 products), each set bit adds one
    # (4 more), and the last bit skips the Q^k nothing reads (1 product, 2 when
    # n is odd), so 42 at n = 4096 and 89 at n = 99999
    counter = MulCounter()
    fast_pair(RecurrenceParams(3, -2), n, counter)
    skipped = 1 + n % 2 if n else 0
    assert counter.count == 3 * n.bit_length() + 4 * bin(n).count("1") - skipped


ORACLE_PARAMS = [(p, q) for p in range(-2, 3) for q in range(-2, 3)] + [
    (Fraction(1, 2), Fraction(-1, 3)),
    (Fraction(3, 4), Fraction(1, 8)),
    (Fraction(-5, 6), Fraction(2, 9)),
    (Fraction(0), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(2, 3), Fraction(-1, 3)),
    (Fraction(1), Fraction(1, 4)),  # p^2 = 4q
]


@pytest.mark.parametrize("p, q", ORACLE_PARAMS)
def test_int_kernel_matches_fraction_iteration(p, q):
    # iter_pair runs on Fractions and shares no code with the scaled-int routes
    params = RecurrenceParams(p, q)
    table = SequenceTable(params)
    q_n = Fraction(1)
    for n in range(61):
        u, w = iter_pair(params, n)
        got = (table.u(n), table.w(n), table.q_power(n), *fast_pair(params, n))
        assert got == (u, w, q_n, u, w)
        assert all(type(v) is Fraction for v in got)
        q_n *= params.q
    # long runs of set and of clear bits in n
    for n in (127, 128, 255, 256, 1023):
        got = fast_pair(params, n)
        assert got == iter_pair(params, n)
        assert all(type(v) is Fraction for v in got)
    # a second lookup returns the value made on the first
    assert table.u(60) is table.u(60)


def test_int_kernel_does_no_fraction_arithmetic(monkeypatch):
    calls = Counter()
    for name in ("__mul__", "__sub__", "__add__"):
        def counting(a, b, name=name, original=getattr(Fraction, name)):
            calls[name] += 1
            return original(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    params = RecurrenceParams(Fraction(2, 3), Fraction(-1, 3))
    SequenceTable(params).u(500)
    assert sum(calls.values()) == 0
    fast_pair(params, 1000)
    assert sum(calls.values()) == 0
    iter_pair(params, 10)  # the Fraction oracle is counted, so the counter works
    assert calls["__mul__"] == 40


@given(rationals, rationals, st.integers(min_value=0, max_value=30))
def test_conversions_between_u_and_w(p, q, n):
    params = RecurrenceParams(p, q)
    t = SequenceTable(params)
    assert w_from_u(params, n) == t.w(n)
    if params.is_degenerate:
        with pytest.raises(DegenerateDiscriminantError):
            u_from_w(params, n)
    else:
        assert u_from_w(params, n) == t.u(n)


def test_w_from_u_alternative_forms_agree():
    # w_n = u_{n+1} - q u_{n-1} = p u_n - 2 q u_{n-1}, and w_{n-1} = 2 u_n - p u_{n-1}
    for p in range(-4, 5):
        for q in range(-4, 5):
            params = RecurrenceParams(p, q)
            t = SequenceTable(params)
            for n in range(1, 15):
                w = w_from_u(params, n)
                assert w == params.p * t.u(n) - 2 * params.q * t.u(n - 1)
                assert t.w(n - 1) == 2 * t.u(n) - params.p * t.u(n - 1)


def test_cubic_coefficients_fibonacci_specialization():
    assert cubic_coefficients(FIBONACCI) == (2, 2, -1)


def test_duplicated_middle_term_variant_fails():
    # the misprint 2X(m+2) + 2X(m+2) - X(m) does not hold for the squares
    squares = [SequenceTable(FIBONACCI).u(n) ** 2 for n in range(5)]
    assert squares[4] != 4 * squares[3] - squares[1]
    assert squares[4] == 2 * squares[3] + 2 * squares[2] - squares[1]


@given(rationals, rationals)
@settings(max_examples=60)
def test_squared_sequences_satisfy_cubic_recurrence(p, q):
    params = RecurrenceParams(p, q)
    for kind in ("u_squared", "w_squared", "q_power"):
        assert check_cubic_recurrence(params, kind, 25) is None


def test_cubic_recurrence_rejects_unknown_kind():
    with pytest.raises(ValueError):
        check_cubic_recurrence(FIBONACCI, "cubed", 10)

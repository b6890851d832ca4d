import inspect
import json
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lucaskit.binomials import generalized_binomial_quotient, generalized_binomial_row
from lucaskit.charpoly import (
    fibonacci_factorization,
    phi_coeff_formula,
    phi_product,
    quadratic_factor,
)
from lucaskit.identities import (
    DEFAULT_IDENTITY_IDS,
    REGISTRY,
    Counterexample,
    GridSpec,
    IdentityReport,
    check_cor36,
    check_eq22,
    check_eq24,
    check_eq25_freitag,
    check_eq25_freitag_paper_form,
    check_eq25_zeitlin,
    check_eq25_zeitlin_paper_sign,
    check_eq35_shape,
    check_prop34,
    pythagorean_like,
    run_grid,
)
from lucaskit.sequences import (
    FIBONACCI,
    DegenerateDiscriminantError,
    RecurrenceParams,
    SequenceTable,
    u_from_w,
    w_from_u,
)

int_params = st.integers(min_value=-8, max_value=8)


def test_prop34_examples():
    assert check_prop34(FIBONACCI, 5)          # 11^2 + 4 = 5 * 5^2
    assert check_prop34(FIBONACCI, 0)
    assert check_prop34(RecurrenceParams(3, 2), 4)


@given(int_params, int_params, st.integers(min_value=0, max_value=60))
@settings(max_examples=80)
def test_prop34_universal(p, q, n):
    assert check_prop34(RecurrenceParams(p, q), n)


def test_eq35_examples():
    assert check_eq35_shape(FIBONACCI, 6) == 8
    assert check_eq35_shape(FIBONACCI, 1) == 1
    params = RecurrenceParams(2, 3)
    assert check_eq35_shape(params, 3) == abs(SequenceTable(params).u(3))
    with pytest.raises(DegenerateDiscriminantError):
        check_eq35_shape(RecurrenceParams(2, 1), 4)


def test_cor36_examples():
    assert check_cor36(FIBONACCI, 3)           # L_6 + 2 = 20 = 5 * 2^2
    assert check_cor36(FIBONACCI, 0)
    assert check_cor36(RecurrenceParams(3, 2), 2)


@given(int_params, int_params, st.integers(min_value=0, max_value=50))
@settings(max_examples=80)
def test_cor36_universal(p, q, n):
    assert check_cor36(RecurrenceParams(p, q), n)


def test_eq24_and_eq22():
    table = SequenceTable(FIBONACCI)
    for n in range(80):
        assert check_eq24(n)
        assert check_eq22(n) == table.u(n)
    assert check_eq22(0) == 0
    assert check_eq22(4) == 3
    assert check_eq22(7) == 13


def test_eq25_freitag_cases():
    assert check_eq25_freitag(1, 1).status == "pass"
    assert check_eq25_freitag(2, 1).status == "pass"
    assert check_eq25_freitag(3, 2).status == "pass"  # (-105) / (-21)
    assert check_eq25_freitag(4, 0).status == "skipped"  # denominator identically 0


def test_eq25_zeitlin_cases():
    assert check_eq25_zeitlin(1, 1).status == "pass"  # (1 + 16 + 8) / (1 + 4)
    assert check_eq25_zeitlin(2, 1).status == "pass"  # (9 + 49 - 8) / (1 + 9)
    out = check_eq25_zeitlin(0, 0)
    assert out.status == "skipped" and "denominator" in out.reason


def test_eq25_corrected_forms_sweep():
    table = SequenceTable(FIBONACCI)
    for n in range(40):
        for a in range(12):
            for check in (check_eq25_freitag, check_eq25_zeitlin):
                assert check(n, a, table).status in ("pass", "skipped")


def test_eq25_printed_variants_fail():
    out = check_eq25_zeitlin_paper_sign(1, 1)
    assert out.status == "fail"
    assert out.lhs == Fraction(9, 5) and out.rhs == 5

    out = check_eq25_freitag_paper_form(3, 0)
    assert out.status == "fail" and out.lhs == 0

    out = check_eq25_freitag_paper_form(3, 1)
    assert out.status == "fail" and out.lhs == Fraction(65, 11)


def test_pythagorean_triples():
    assert pythagorean_like(3, 1) == (3, 2, 3)
    assert pythagorean_like(1, 1) == (1, 2, 1)
    assert pythagorean_like(3, 2) == (7, 6, 9)
    with pytest.raises(ValueError):
        pythagorean_like(3, 0)


@given(int_params, st.integers(min_value=1, max_value=40))
@settings(max_examples=80)
def test_pythagorean_equations(p, n):
    x, y, z = pythagorean_like(p, n)
    assert x * x + y * y - z * z == 4
    assert p * y == 2 * z


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec((Fraction(2), Fraction(1)), (Fraction(0), Fraction(0)), 5, 0)
    with pytest.raises(ValueError):
        GridSpec((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)), 0, 0)
    with pytest.raises(ValueError):
        GridSpec(n_max=5, a_max=-1)
    with pytest.raises(ValueError):
        GridSpec(n_max=5, step=Fraction(0))


def test_gridspec_rational_step():
    grid = GridSpec((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1)), 5, 0, Fraction(1, 2))
    assert grid.p_values() == [Fraction(0), Fraction(1, 2), Fraction(1)]
    assert grid.q_values() == [Fraction(-1)]


def test_report_invariants():
    with pytest.raises(ValueError):
        IdentityReport("prop34", FIBONACCI, (0, 5), None, "fail")
    with pytest.raises(ValueError):
        IdentityReport(
            "prop34", FIBONACCI, (0, 5), None, "pass",
            Counterexample((("n", 1),), 0, 1),
        )
    with pytest.raises(ValueError):
        IdentityReport("prop34", FIBONACCI, (0, 5), None, "skipped")
    with pytest.raises(ValueError):
        IdentityReport("prop34", FIBONACCI, (0, 5), None, "maybe")


def test_run_grid_prop34_baseline():
    grid = GridSpec((Fraction(-3), Fraction(3)), (Fraction(-3), Fraction(3)), 50, 0)
    reports = run_grid(grid, ["prop34"])
    assert len(reports) == 49
    assert all(r.status == "pass" for r in reports)
    assert all(r.checked == 51 for r in reports)


def test_run_grid_skip_reasons():
    grid = GridSpec((Fraction(2), Fraction(2)), (Fraction(1), Fraction(2)), 10, 0)
    by_q = {r.params.q: r for r in run_grid(grid, ["eq35"])}
    assert by_q[Fraction(1)].status == "skipped"
    assert "discriminant" in by_q[Fraction(1)].note
    assert by_q[Fraction(2)].status == "pass"

    reports = run_grid(grid, ["cor35"])
    assert {r.params.q: r.status for r in reports} == {
        Fraction(1): "pass",
        Fraction(2): "skipped",
    }


def test_run_grid_zeitlin_diagnostic_bookkeeping():
    grid = GridSpec(n_max=5, a_max=2)
    (report,) = run_grid(grid, ["eq25_zeitlin_paper_sign"])
    assert report.status == "fail"
    ce = report.first_counterexample
    assert ce is not None
    # scan order is lexicographic in (n, a): (0,0) is skipped, (0,1) already fails
    assert ce.indices == (("n", 0), ("a", 1))
    assert ce.lhs == 21
    # the sweep still covers the whole grid; only (0,0) has a zero denominator
    assert report.checked == 17 and report.skipped == 1
    # the cell the corrected form repairs: ratio 9/5 at (1, 1)
    assert check_eq25_zeitlin_paper_sign(1, 1).lhs == Fraction(9, 5)


def test_run_grid_eq21_reports():
    grid = GridSpec(n_max=12, a_max=0)
    (report,) = run_grid(grid, ["eq21"])
    assert report.status == "pass"
    assert "verified sign (-1)^(n-1)" in report.note

    (diag,) = run_grid(grid, ["eq21_paper_sign"])
    assert diag.status == "fail"
    assert diag.first_counterexample.indices == (("n", 2),)


class _WrongU5(SequenceTable):
    def u(self, n):
        return super().u(n) + (n == 5)


class _WrongQ5(SequenceTable):
    def q_power(self, n):
        return super().q_power(n) + (n == 5)


class _WrongU3(SequenceTable):
    def u(self, n):
        return super().u(n) + (n == 3)


def _faulty_sweep(monkeypatch, table_class, ids=DEFAULT_IDENTITY_IDS):
    monkeypatch.setattr("lucaskit.identities.SequenceTable", table_class)
    grid = GridSpec((Fraction(3), Fraction(3)), (Fraction(1), Fraction(1)), n_max=12, a_max=3)
    return {r.identity_id: r for r in run_grid(grid, ids)}


def test_run_grid_reports_a_wrong_sequence_value(monkeypatch):
    # a table whose u_5 is off by one must be caught by every identity that reads u
    reports = _faulty_sweep(monkeypatch, _WrongU5)
    first = {i: r.first_counterexample.indices for i, r in reports.items() if r.status == "fail"}
    n5 = (("n", 5),)
    assert first == {
        "prop34": n5, "eq35": n5, "cor36": n5, "cor35": n5, "eq24": n5, "eq22": n5,
        "eq25_freitag": (("n", 2), ("a", 3)), "eq25_zeitlin": (("n", 1), ("a", 2)),
        "eq21": (("n", 4),),
    }
    # eq21's Phi_4 comes from the Lucasnomial row (5|i)_u, which reads u_5
    assert reports["eq21"].first_counterexample.lhs == "no exact sign"

    # a wrong q^5 reaches eq21's sign and each cell's own failure branch
    reports = _faulty_sweep(monkeypatch, _WrongQ5)
    lhs_at = {i: (r.first_counterexample.indices, r.first_counterexample.lhs)
              for i, r in reports.items() if r.status == "fail"}
    assert lhs_at["eq21"] == (n5, "no exact sign")
    assert lhs_at["eq35"] == (n5, "no rational solution")
    assert lhs_at["eq22"] == (n5, "not five times a square")
    assert lhs_at["cor36"] == (n5, 15129)  # the step w_5^2 = w_10 + 2 q^5 fails first


def test_eq21_paper_sign_reports_what_eq21_found(monkeypatch):
    # the diagnostic quotes eq21's own verdict, not the sign opposite to the printed one
    ce = run_grid(GridSpec(n_max=4), ["eq21_paper_sign"])[0].first_counterexample
    assert (ce.indices, ce.lhs, ce.rhs) == ((("n", 2),), "sign 1 inexact", "sign -1 exact")
    # Phi_2 comes from the Lucasnomial row (3|i)_u, so a wrong u_3 leaves no exact sign
    report = _faulty_sweep(monkeypatch, _WrongU3, ["eq21_paper_sign"])["eq21_paper_sign"]
    ce = report.first_counterexample
    assert (ce.indices, ce.lhs, ce.rhs) == ((("n", 2),), "sign 1 inexact", "no exact sign")


PARAMETRIC_IDS = [i for i, d in REGISTRY.items() if not d.fixed_params]


def _count_tables(monkeypatch, grid, ids):
    """(tables built, most tables alive at once, reports) for one run_grid call."""
    built, live = [], weakref.WeakSet()
    most = 0

    class CountingTable(SequenceTable):
        def __init__(self, params):
            nonlocal most
            super().__init__(params)
            built.append(params)
            live.add(self)
            most = max(most, len(live))

    monkeypatch.setattr("lucaskit.identities.SequenceTable", CountingTable)
    reports = run_grid(grid, ids)
    return len(built), most, reports


def test_run_grid_builds_one_table_per_parameter_pair(monkeypatch):
    # every identity at one (p, q) reads the same table, and the fixed-parameter
    # ids share one more at p = 1, q = -1; a table per identity would give 16, 19, 13
    grid = GridSpec((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)), n_max=12, a_max=3)
    for ids in (DEFAULT_IDENTITY_IDS, REGISTRY):
        built, most, reports = _count_tables(monkeypatch, grid, ids)
        assert built == 5 and most <= 2  # each table is let go once the next is made
        assert len(reports) == len(ids) + 3 * len(PARAMETRIC_IDS)
    grid = GridSpec((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)), n_max=12)
    built, most, reports = _count_tables(monkeypatch, grid, PARAMETRIC_IDS)
    assert built == 4 and len(reports) == 16
    assert [r.identity_id for r in reports] == sorted(PARAMETRIC_IDS * 4)


def test_run_grid_fixed_ids_never_walk_the_grid(monkeypatch):
    def walk(self):
        raise AssertionError("a fixed-parameter request walked the grid")

    monkeypatch.setattr(GridSpec, "p_values", walk)
    monkeypatch.setattr(GridSpec, "q_values", walk)
    grid = GridSpec((Fraction(-1000), Fraction(1000)), n_max=12, step=Fraction(1, 1000))
    built, _, reports = _count_tables(monkeypatch, grid, ["eq24"])
    assert built == 1 and len(reports) == 1 and reports[0].status == "pass"


def test_run_grid_ordering_and_determinism():
    grid = GridSpec((Fraction(-2), Fraction(2)), (Fraction(-1), Fraction(1)), 15, 3)
    ids = ["prop34", "cor36", "eq24", "eq25_zeitlin"]
    first = run_grid(grid, ids)
    second = run_grid(grid, ids)
    assert first == second
    dumped = [json.dumps(r.to_record(), sort_keys=True) for r in first]
    assert dumped == [json.dumps(r.to_record(), sort_keys=True) for r in second]
    keys = [(r.identity_id, r.params.p, r.params.q) for r in first]
    assert keys == sorted(keys)


def test_run_grid_rejects_unknown_ids_and_empty_set():
    grid = GridSpec(n_max=5)
    with pytest.raises(ValueError):
        run_grid(grid, ["prop34", "nosuch"])
    assert run_grid(grid, []) == []


def test_registry_diagnostics():
    assert set(DEFAULT_IDENTITY_IDS) == {
        i for i, d in REGISTRY.items() if not d.diagnostic
    }
    diaged = {i for i, d in REGISTRY.items() if d.diagnostic}
    assert diaged == {"eq21_paper_sign", "eq25_freitag_paper_form", "eq25_zeitlin_paper_sign"}


def test_to_record_field_names():
    grid = GridSpec(n_max=5, a_max=1)
    (report,) = run_grid(grid, ["eq25_freitag"])
    record = report.to_record()
    assert set(record) == {
        "identity", "p", "q", "n_min", "n_max", "a_max",
        "status", "checked", "skipped", "counterexample", "note",
    }
    assert record["identity"] == "eq25_freitag"
    assert record["p"] == "1" and record["q"] == "-1"


@pytest.mark.parametrize("call, args, pair", [
    pytest.param(phi_product, (FIBONACCI, 3), (1, -1), id="phi_product"),
    pytest.param(phi_coeff_formula, (FIBONACCI, 3), (1, -1), id="phi_coeff_formula"),
    pytest.param(quadratic_factor, (FIBONACCI, 3), (1, -1), id="quadratic_factor"),
    pytest.param(generalized_binomial_row, (FIBONACCI, 5), (1, -1), id="generalized_binomial_row"),
    pytest.param(fibonacci_factorization, (4,), (1, -1), id="fibonacci_factorization"),
    pytest.param(check_eq25_freitag, (2, 1), (1, -1), id="check_eq25_freitag"),
])
def test_a_table_for_another_pair_is_refused(call, args, pair):
    # every value would be read from the table, so the answer would belong to neither pair
    with pytest.raises(ValueError, match="table holds"):
        call(*args, table=SequenceTable(RecurrenceParams(3, -2)))
    # an equal pair in another RecurrenceParams object is the same pair
    assert call(*args, table=SequenceTable(RecurrenceParams(*pair))) == call(*args)


def test_functions_that_build_their_own_table_accept_none():
    for f in (check_prop34, check_cor36, check_eq35_shape, check_eq24, check_eq22,
              pythagorean_like, generalized_binomial_quotient, w_from_u, u_from_w):
        assert "table" not in inspect.signature(f).parameters, f.__name__

"""Generating-function route: traces, tables, and the closed form."""

from __future__ import annotations

import dataclasses
import logging
import re

import pytest

import weylcheb.genfunc as genfunc_module
from weylcheb import (
    AlgebraId,
    ConvolutionNotTerminatingError,
    Kind,
    LaurentPoly,
    NonDivisibleError,
    NonDominantLeaderError,
    NotInvariantError,
    XYPoly,
    act,
    build_basis,
    build_root_system,
    closed_form_gf,
    coefficient_trace,
    first_kind_poly,
    first_kind_table,
    gf_series_check,
    orbit_sum,
    reduce,
    second_kind_poly,
    second_kind_table,
    signed_orbit_sum,
    unit_weight,
    weyl_dimension,
)
from weylcheb.genfunc import denominator_coeffs, diagonal_exp_matrix
from weylcheb.orbit import RacahTable, axis_denominator
from weylcheb.rootsystem import DominantIndex, height, index_box
from g2_reference import K_TABLE, P1_COEFFS, P2_COEFFS, SECOND_KIND, SINGULAR_ELEMENT
from reference import closed_form_both_axes, exact_divide, expand, orbit_points


def test_diagonal_matrices_follow_element_order(g2):
    for i in range(2):
        mat = diagonal_exp_matrix(g2, i)
        assert len(mat) == 12
        lam = unit_weight(g2, i)
        for j, w in enumerate(g2.elements):
            assert mat[j] == act(g2, w, lam)


def test_trace_equals_orbit_sums(g2):
    for m in range(9):
        for n in range(9):
            assert coefficient_trace(g2, m, n) == signed_orbit_sum(g2, (m, n))


@pytest.mark.parametrize(
    "algebra, axis",
    [(AlgebraId.G2, 2), (AlgebraId.G2, -1), (AlgebraId.G2, True), (AlgebraId.A1, 1)],
    ids=["g2-past-rank", "g2-negative", "g2-bool", "a1-past-rank"],
)
def test_an_axis_outside_the_rank_is_rejected(algebra, axis):
    """An axis is an int in range(rank); before, an axis past the rank gave
    the zero weight and True read as axis 1, even from the axis_denominator
    cache."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, Kind.SECOND)
    axis_denominator(rs, rs.rank - 1)
    message = re.escape(f"a rank-{rs.rank} root system has axes 0 to {rs.rank - 1}, got {axis!r}")
    calls = {
        "unit_weight": lambda: unit_weight(rs, axis),
        "diagonal_exp_matrix": lambda: diagonal_exp_matrix(rs, axis),
        "axis_denominator": lambda: axis_denominator(rs, axis),
        "denominator_coeffs": lambda: denominator_coeffs(rs, basis, axis),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=message):
            call()


def test_trace_singular_element(g2):
    assert coefficient_trace(g2, 1, 1) == LaurentPoly(2, SINGULAR_ELEMENT)


@pytest.mark.parametrize("algebra", list(AlgebraId))
def test_dominant_division_is_the_dominant_part_of_the_full_quotient(algebra):
    """The dominant-chamber division against the full Laurent division, and
    the character it returns against the Weyl dimension formula."""
    rs = build_root_system(algebra)
    den = signed_orbit_sum(rs, rs.rho)
    box = index_box(1, 12, None) if rs.rank == 1 else index_box(2, 8, 8)
    table = RacahTable(DominantIndex(rs))
    for lam in box:
        num = signed_orbit_sum(rs, tuple(c + 1 for c in lam))
        quot = genfunc_module.exact_divide(table, num)
        full = exact_divide(num, den)
        assert quot == {e: c for e, c in full._terms.items() if min(e) >= 0}, lam
        dim = sum(c * len(orbit_points(rs, mu)) for mu, c in quot.items())
        assert dim == weyl_dimension(rs, lam), lam


def test_dominant_division_checks_what_makes_it_exact(g2):
    """Every anti-invariant is A_rho times an invariant, so the numerator's
    anti-invariance is the one check the division needs."""
    num = signed_orbit_sum(g2, (3, 2))
    divide = genfunc_module.exact_divide
    not_anti = r"the numerator is not Weyl-anti-invariant: z\^\(1, 1\)"
    with pytest.raises(NonDivisibleError, match=not_anti):
        divide(RacahTable(DominantIndex(g2)), num + LaurentPoly.monomial(2, (1, 1)))
    assert divide(RacahTable(DominantIndex(g2)), LaurentPoly.zero(2)) == {}


@pytest.mark.parametrize("algebra", list(AlgebraId))
def test_the_division_reads_a_rho_from_the_group(algebra):
    """The division's offsets rho - w rho, w != 1, with signs det(w), are
    exactly the terms of A_rho other than z^rho, taken both as the trace at
    rho and as the signed orbit sum of rho."""
    rs = build_root_system(algebra)
    offsets = RacahTable(DominantIndex(rs)).offsets
    assert len(offsets) == len(rs.elements) - 1
    for a_rho in (coefficient_trace(rs, *rs.rho), signed_orbit_sum(rs, rs.rho)):
        assert a_rho.coeff(rs.rho) == 1
        terms = {tuple(r - e for r, e in zip(rs.rho, exp)): c
                 for exp, c in a_rho._terms.items() if exp != rs.rho}
        assert terms == dict(offsets)


def test_second_kind_matches_reference_table(g2, g2_second):
    for idx, want in SECOND_KIND.items():
        assert second_kind_poly(g2, g2_second, *idx) == XYPoly(2, want)


def test_denominators_match_reference(g2_gf):
    assert list(g2_gf.denominators[0]) == [XYPoly(2, d) for d in P1_COEFFS]
    assert list(g2_gf.denominators[1]) == [XYPoly(2, d) for d in P2_COEFFS]


def test_denominators_are_palindromic(g2_gf):
    for coeffs in g2_gf.denominators:
        degree = len(coeffs) - 1
        for i in range(degree + 1):
            assert coeffs[i] == coeffs[degree - i]


def test_numerator_matches_reference(g2_gf):
    assert g2_gf.numerator == {k: XYPoly(2, v) for k, v in K_TABLE.items()}
    for i in range(6):
        for j in range(6):
            if (i, j) not in K_TABLE:
                assert (i, j) not in g2_gf.numerator


def test_numerator_central_symmetry(g2_gf):
    for i in range(5):
        for j in range(5):
            assert g2_gf.numerator.get((i, j)) == g2_gf.numerator.get(
                (4 - i, 4 - j)
            )


def test_degree_bound(g2_tables):
    gf_table, _ = g2_tables
    for (m, n), poly in gf_table.items():
        if m + n <= 8:
            assert max(sum(d) for d, _ in poly.terms()) <= m + 2 * n


def test_series_expansion_agrees_with_direct_route(g2_gf, g2_second):
    assert gf_series_check(g2_gf, g2_second, 0, 0)
    assert gf_series_check(g2_gf, g2_second, 6, 6)
    assert gf_series_check(g2_gf, g2_second, 10, 10)


def test_series_mismatch_names_the_index_and_both_polynomials(
    caplog, g2_gf, g2_second
):
    numerator = dict(g2_gf.numerator)
    numerator[(1, 1)] = numerator[(1, 1)] + XYPoly.constant(2, 1)
    bad = dataclasses.replace(g2_gf, numerator=numerator)
    with caplog.at_level(logging.WARNING, logger="weylcheb.genfunc"):
        assert not gf_series_check(bad, g2_second, 3, 3)
    direct = second_kind_poly(g2_second.rs, g2_second, 1, 1)
    wrong = direct + XYPoly.constant(2, 1)
    (record,) = [r for r in caplog.records if r.name == "weylcheb.genfunc"]
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (
        f"series mismatch at (1, 1): {wrong.as_text()} != {direct.as_text()}"
    )


def test_series_check_compares_the_origin_and_rejects_bad_bounds(g2_gf, g2_second):
    numerator = dict(g2_gf.numerator)
    numerator[(0, 0)] = XYPoly.constant(2, 5)
    bad = dataclasses.replace(g2_gf, numerator=numerator)
    assert not gf_series_check(bad, g2_second, 0, 0)
    for max_m, max_n in [(-1, -1), (-1, 3), (3, -1), (2.0, 2), (2, True)]:
        with pytest.raises(ValueError, match="max_"):
            gf_series_check(bad, g2_second, max_m, max_n)


def test_convolution_guard_trips_on_corrupted_denominator(monkeypatch, g2):
    real = genfunc_module.denominator_coeffs

    def corrupted(rs, basis, i):
        coeffs = real(rs, basis, i)
        return coeffs[:-1] + (XYPoly.zero(rs.rank),)

    monkeypatch.setattr(genfunc_module, "denominator_coeffs", corrupted)
    # every (i, j) is checked in order, so the first entry past the bound
    # is the one the two-axis convolution named
    with pytest.raises(ConvolutionNotTerminatingError, match=re.escape("at (0, 6)")):
        genfunc_module.closed_form_gf(g2, build_basis(g2, Kind.SECOND))


@pytest.mark.parametrize("algebra", [AlgebraId.A2, AlgebraId.C2, AlgebraId.G2])
def test_one_axis_convolution_matches_the_two_axis_one(algebra):
    rs = build_root_system(algebra)
    gf = closed_form_gf(rs, build_basis(rs, Kind.SECOND))
    assert gf == closed_form_both_axes(rs, build_basis(rs, Kind.SECOND))


def _poly_of(rs, basis, index):
    if basis.kind is Kind.SECOND:
        return second_kind_poly(rs, basis, *index)
    return first_kind_poly(rs, basis, index)


@pytest.mark.parametrize("kind", list(Kind))
def test_a_repeated_query_is_a_lookup(g2, kind, monkeypatch):
    """A basis keeps each polynomial it computed: a repeated call, with the
    index as a tuple or a list, runs no trace, division or elimination."""
    basis = build_basis(g2, kind)
    want = _poly_of(g2, basis, (2, 1))

    def refuse(*args, **kwargs):
        raise AssertionError("a cached polynomial was recomputed")

    for name in ("coefficient_trace", "exact_divide", "reduce"):
        monkeypatch.setattr(genfunc_module, name, refuse)
    assert _poly_of(g2, basis, (2, 1)) == want
    assert _poly_of(g2, basis, [2, 1]) == want
    assert list(basis._polys) == [(2, 1)]
    with pytest.raises(AssertionError, match="recomputed"):
        _poly_of(g2, basis, (1, 2))


def test_a_replaced_basis_starts_with_an_empty_cache(g2):
    basis = build_basis(g2, Kind.SECOND)
    second_kind_table(g2, basis, 2, 2)
    assert len(basis._polys) == 9
    assert dataclasses.replace(basis)._polys == {}


def _racah_state(table) -> tuple:
    rows = {cos: list(rows) for cos, rows in table.rows.items()}
    return rows, table.index.top, dict(table.index.where)


def test_a_replaced_basis_starts_with_an_empty_racah_table(g2):
    basis = build_basis(g2, Kind.SECOND)
    second_kind_table(g2, basis, 2, 2)
    assert basis.racah.index.top >= 0 and basis.racah.rows
    replaced = dataclasses.replace(basis)
    fresh = replaced.racah
    assert fresh is not basis.racah and fresh.index is replaced.index is not basis.index
    assert _racah_state(fresh) == ({}, -1, {})


def test_a_refused_division_leaves_the_racah_table_as_it_was(g2):
    """A numerator that is not anti-invariant is refused before the table
    is read or grown, and the table still divides right after it."""
    basis = build_basis(g2, Kind.SECOND)
    second_kind_poly(g2, basis, 1, 1)
    before = _racah_state(basis.racah)
    bad = coefficient_trace(g2, 7, 7) + LaurentPoly.monomial(2, (8, 8))
    with pytest.raises(NonDivisibleError, match="not Weyl-anti-invariant"):
        genfunc_module.exact_divide(basis.racah, bad)
    assert _racah_state(basis.racah) == before
    num = coefficient_trace(g2, 7, 7)
    full = exact_divide(num, signed_orbit_sum(g2, g2.rho))
    want = {e: c for e, c in full._terms.items() if min(e) >= 0}
    assert genfunc_module.exact_divide(basis.racah, num) == want


def test_the_series_check_reuses_the_closed_form_table(g2, monkeypatch):
    """closed_form_gf divides once per index of its 7 x 7 table, and the
    3 x 3 series check after it divides no more."""
    calls = []
    divide = genfunc_module.exact_divide

    def counting(*args):
        calls.append(args)
        return divide(*args)

    monkeypatch.setattr(genfunc_module, "exact_divide", counting)
    basis = build_basis(g2, Kind.SECOND)
    assert gf_series_check(closed_form_gf(g2, basis), basis, 3, 3)
    assert len(calls) == 49


@pytest.mark.parametrize("kind", list(Kind))
def test_a_failure_names_the_index_and_is_not_cached(g2, kind):
    """With a variable that is not a polynomial in the true ones, the
    elimination stalls; the error names the index, keeps its cause, and
    comes again on a repeated call."""
    basis = build_basis(g2, kind)
    x, y = basis.var_laurents
    extra = orbit_sum(g2, (3, 3)).scale(basis.leads[1])
    bad = dataclasses.replace(basis, var_laurents=(x, y + extra))
    message = r"at index \(2, 1\): elimination stalled"
    for _ in range(2):
        with pytest.raises(NonDominantLeaderError, match=message) as got:
            _poly_of(g2, bad, (2, 1))
        assert type(got.value.__cause__) is NonDominantLeaderError
    assert bad._polys == {}


@pytest.mark.parametrize("grown", [(1, 0), (4, 4)], ids=["below-the-bad-term", "past-it"])
@pytest.mark.parametrize("kind", list(Kind))
def test_a_failure_on_a_grown_index_names_the_index(g2, kind, grown):
    """The same bad basis first reduces the valid low index (1, 0), so its
    index has grown; then its index is grown to ``grown``, either still
    below the term (3, 3) of y's product rule or past it, where that term
    is filed but lies above y's leader.  Either way the stall names the
    index and the weight, and is never a KeyError or IndexError."""
    basis = build_basis(g2, kind)
    x, y = basis.var_laurents
    extra = orbit_sum(g2, (3, 3)).scale(basis.leads[1])
    bad = dataclasses.replace(basis, var_laurents=(x, y + extra))
    assert _poly_of(g2, bad, (1, 0)) == _poly_of(g2, basis, (1, 0))
    bad.index.grow(height(g2, grown))
    message = r"at index \(2, 1\): elimination stalled.*z\^\(3, 3\)"
    for _ in range(2):
        with pytest.raises(NonDominantLeaderError, match=message) as got:
            _poly_of(g2, bad, (2, 1))
        assert type(got.value.__cause__) is NonDominantLeaderError
    assert list(bad._polys) == [(1, 0)]


@pytest.mark.parametrize("error", [NonDivisibleError, NonDominantLeaderError, NotInvariantError])
def test_each_error_of_the_computation_names_the_index(g2, error, monkeypatch):
    def failing(*args):
        raise error("the cause")

    monkeypatch.setattr(genfunc_module, "reduce", failing)
    for kind in Kind:
        basis = build_basis(g2, kind)
        with pytest.raises(error, match=r"^at index \(1, 0\): the cause$"):
            _poly_of(g2, basis, (1, 0))
        assert basis._polys == {}


def test_closed_form_guards(a1, a1_second, g2, g2_first):
    with pytest.raises(ValueError):
        closed_form_gf(a1, a1_second)
    with pytest.raises(ValueError):
        closed_form_gf(g2, g2_first)


def test_kind_guards(g2, g2_second, g2_first):
    with pytest.raises(ValueError):
        second_kind_poly(g2, g2_first, 1, 0)
    with pytest.raises(ValueError):
        first_kind_poly(g2, g2_second, (1, 0))


def test_a1_three_term_recurrence(a1, a1_second, a1_first):
    x1 = XYPoly(1, {(1,): 1})
    second = [second_kind_poly(a1, a1_second, m) for m in range(22)]
    for n in range(1, 21):
        assert second[n + 1] == x1 * second[n] - second[n - 1]
    first = [first_kind_poly(a1, a1_first, (m,)) for m in range(22)]
    for n in range(1, 21):
        assert first[n + 1] == x1 * first[n] - first[n - 1]


def test_first_kind_examples(g2, g2_first, a1, a1_first):
    assert first_kind_poly(g2, g2_first, (0, 0)) == XYPoly.constant(2, 12)
    assert first_kind_poly(g2, g2_first, (1, 0)) == XYPoly(2, {(1, 0): 1})
    assert first_kind_poly(a1, a1_first, (3,)) == XYPoly(1, {(3,): 1, (1,): -3})
    p = first_kind_poly(g2, g2_first, (2, 1))
    assert reduce(g2_first, expand(g2_first, p)) == p


@pytest.mark.parametrize(
    "algebra, bound",
    [(AlgebraId.A1, 30), (AlgebraId.A2, 10), (AlgebraId.C2, 10), (AlgebraId.G2, 10)],
)
def test_first_kind_reduces_the_orbit_sums_dominant_term(algebra, bound):
    """first_kind_poly hands reduce only the orbit sum's one dominant term,
    n times its stabilizer order; reducing the whole orbit sum, checked
    invariant, gives the same polynomial."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, Kind.FIRST)
    for index in index_box(rs.rank, bound, bound if rs.rank == 2 else None):
        assert first_kind_poly(rs, basis, index) == reduce(basis, orbit_sum(rs, index)), index


def test_table_shapes(a1, a1_second, a1_first, g2, g2_second):
    small = second_kind_table(g2, g2_second, 2, 3)
    assert set(small) == {(m, n) for m in range(3) for n in range(4)}
    line = second_kind_table(a1, a1_second, 5)
    assert set(line) == {(m,) for m in range(6)}
    first_line = first_kind_table(a1, a1_first, 3)
    assert set(first_line) == {(m,) for m in range(4)}
    assert second_kind_poly(g2, g2_second, 0, 0) == XYPoly.constant(2, 1)


def test_rank_one_second_kind_is_plain_chebyshev(a1, a1_second):
    # U_m(z + 1/z) in the monomial style: U_2 = x^2 - 1, U_3 = x^3 - 2x
    assert second_kind_poly(a1, a1_second, 2) == XYPoly(1, {(2,): 1, (0,): -1})
    assert second_kind_poly(a1, a1_second, 3) == XYPoly(1, {(3,): 1, (1,): -2})


def test_index_guards(g2, g2_second, a1, a1_second):
    with pytest.raises(ValueError):
        second_kind_poly(g2, g2_second, 1)
    with pytest.raises(ValueError):
        second_kind_poly(g2, g2_second, -1, 0)
    with pytest.raises(ValueError):
        second_kind_table(g2, g2_second, 2, None)
    with pytest.raises(ValueError, match="max_m"):
        second_kind_table(g2, g2_second, -1, 2)
    with pytest.raises(ValueError, match="max_n"):
        second_kind_table(g2, g2_second, 2, True)
    with pytest.raises(ValueError, match="rank-1"):
        second_kind_table(a1, a1_second, 3, 5)


def test_a_denominator_whose_constant_term_is_not_one_is_refused(g2, monkeypatch):
    basis = build_basis(g2, Kind.SECOND)
    monkeypatch.setattr(genfunc_module, "reduce", lambda basis, f: XYPoly.constant(2, 2))
    with pytest.raises(RuntimeError, match="denominator constant term is not 1"):
        denominator_coeffs(g2, basis, 0)


@pytest.mark.parametrize("kind", list(Kind))
def test_the_a1_denominator_is_the_chebyshev_recurrence(a1, kind):
    """On A1 the orbit of lambda is {1, -1}, so P(t) = 1 - x t + t^2 in both
    kinds: U_{n+1} = x U_n - U_{n-1}."""
    coeffs = denominator_coeffs(a1, build_basis(a1, kind), 0)
    assert [p.as_text() for p in coeffs] == ["1", "-x", "1"]

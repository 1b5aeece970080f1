"""Recurrence route: index folding, planned tables, companion matrices."""

from __future__ import annotations

import dataclasses

import pytest

from weylcheb import (
    AlgebraId,
    Kind,
    NonDominantLeaderError,
    NormalizedIndex,
    XYPoly,
    apply_poly_to_matrix,
    build_basis,
    build_companions,
    build_root_system,
    closed_form_gf,
    first_kind_table,
    minimal_poly_check,
    normalize_index,
    orbit_sum,
    poly_via_recurrence,
    polynomialize,
    recurrence,
    recurrence_table,
    reduce,
    rootsystem,
    second_kind_table,
    signed_orbit_sum,
)
from weylcheb.recurrence import _fill
from g2_reference import P1_COEFFS, P2_COEFFS


def test_normalize_index_examples(g2):
    assert normalize_index(g2, -1, 3) == NormalizedIndex(0, None)
    assert normalize_index(g2, 2, 0) == NormalizedIndex(1, (2, 0))
    assert normalize_index(g2, -2, 1) == NormalizedIndex(-1, (0, 0))
    assert normalize_index(g2, 4, 7) == NormalizedIndex(1, (4, 7))
    for index in [(1.5, 0), (True, 0), (0, 2.0)]:
        with pytest.raises(ValueError, match="rank-2"):
            normalize_index(g2, *index)
    # n + rho must keep every coordinate below 2**31 in size.
    for index in [(2**31 - 1, 0), (-(2**31) - 1, 0)]:
        with pytest.raises(ValueError, match="weight coordinate out of supported range"):
            normalize_index(g2, *index)
    assert normalize_index(g2, 2**31 - 2, 0) == NormalizedIndex(1, (2**31 - 2, 0))


def test_normalize_index_matches_signed_sums(g2):
    # the fold of a polynomial index mirrors the reflection behavior of
    # the rho-shifted signed orbit sum
    for m in range(-6, 7):
        for n in range(-6, 7):
            norm = normalize_index(g2, m, n)
            shifted = signed_orbit_sum(g2, (m + 1, n + 1))
            if norm.sign == 0:
                assert not shifted
                assert norm.index is None
            else:
                target = signed_orbit_sum(
                    g2, tuple(c + 1 for c in norm.index)
                )
                assert shifted == target.scale(norm.sign)


def test_base_cases(g2, g2_second):
    assert poly_via_recurrence(g2, g2_second, 0, 0) == XYPoly.constant(2, 1)
    assert poly_via_recurrence(g2, g2_second, 1, 0) == XYPoly(2, {(1, 0): 1})
    assert poly_via_recurrence(g2, g2_second, 0, 1) == XYPoly(2, {(0, 1): 1})


def test_spot_values(g2, g2_second):
    assert poly_via_recurrence(g2, g2_second, 2, 1) == XYPoly(
        2,
        {(0, 1): -1, (1, 0): 1, (2, 0): 1, (0, 2): -1, (3, 0): -1, (2, 1): 1},
    )
    assert poly_via_recurrence(g2, g2_second, 3, 1) == XYPoly(
        2,
        {(3, 0): 2, (0, 2): -2, (1, 0): -2, (0, 1): -2, (2, 1): 1, (3, 1): 1,
         (1, 2): -2, (1, 1): -2, (4, 0): -1, (2, 0): 1},
    )


def test_cross_path_agreement(g2_tables):
    gf_table, rec_table = g2_tables
    assert rec_table == gf_table


def test_table_slicing_consistent(g2, g2_second, g2_tables):
    _, rec_table = g2_tables
    small = recurrence_table(g2, g2_second, 3, 5)
    assert small == {
        (m, n): rec_table[(m, n)] for m in range(4) for n in range(6)
    }


def test_six_term_recurrences_hold(g2_tables):
    # direct form in each axis: the polynomial at distance six back-solves
    # through the frozen denominator coefficients
    gf_table, _ = g2_tables
    p1 = [XYPoly(2, d) for d in P1_COEFFS]
    p2 = [XYPoly(2, d) for d in P2_COEFFS]
    for m in range(6, 13):
        for n in range(13):
            acc = XYPoly.zero(2)
            for k in range(1, 7):
                acc = acc - p1[k] * gf_table[(m - k, n)]
            assert acc == gf_table[(m, n)]
    for m in range(13):
        for n in range(6, 13):
            acc = XYPoly.zero(2)
            for k in range(1, 7):
                acc = acc - p2[k] * gf_table[(m, n - k)]
            assert acc == gf_table[(m, n)]


def test_single_step_multiplication_identities(g2, g2_second, g2_tables):
    # multiplying the table entry by a variable redistributes the index
    # over that variable's exponent support, folding out-of-range indices
    gf_table, _ = g2_tables
    for var_index in range(2):
        laurent = g2_second.var_laurents[var_index]
        variable = XYPoly(2, {(1 - var_index, var_index): 1})
        origin_coeff = laurent.coeff((0, 0))
        for m in range(9):
            for n in range(9):
                acc = gf_table[(m, n)].scale(origin_coeff)
                for exp, coeff in laurent.terms():
                    if exp == (0, 0):
                        continue
                    assert coeff == 1
                    norm = normalize_index(g2, m + exp[0], n + exp[1])
                    if norm.sign == 0:
                        continue
                    acc = acc + gf_table[norm.index].scale(norm.sign)
                assert variable * gf_table[(m, n)] == acc


def test_companion_layout(g2, g2_second):
    mx, my = build_companions(g2, g2_second)
    assert len(mx) == 6 and len(my) == 6
    assert mx[0][0].as_text() == "x-1"
    assert mx[2][0].as_text() == "x^{2}-2y-1"
    assert mx[5][0].as_text() == "-1"
    assert my[0][0].as_text() == "-x+y-1"
    assert my[2][0] == XYPoly(
        2,
        {(3, 0): -2, (2, 0): 1, (1, 0): 2, (0, 0): -1, (1, 1): 4, (0, 1): 4,
         (0, 2): 1},
    )
    one = XYPoly.constant(2, 1)
    zero = XYPoly.zero(2)
    for mat in (mx, my):
        for r in range(6):
            for c in range(1, 6):
                assert mat[r][c] == (one if c == r + 1 else zero)


def test_minimal_polynomials(g2, g2_gf, g2_second):
    companions = build_companions(g2, g2_second)
    assert minimal_poly_check(g2, g2_gf, companions)
    # constant polynomial 1 maps any companion to the identity matrix
    one = (XYPoly.constant(2, 1),)
    applied = apply_poly_to_matrix(one, companions[0])
    for r in range(6):
        for c in range(6):
            want = XYPoly.constant(2, 1) if r == c else XYPoly.zero(2)
            assert applied[r][c] == want
    # dropping the top coefficient leaves a nonzero matrix: the degree is
    # genuinely minimal
    truncated = apply_poly_to_matrix(g2_gf.denominators[0][:6], companions[0])
    assert any(entry for row in truncated for entry in row)


@pytest.mark.parametrize("algebra", [AlgebraId.A2, AlgebraId.G2])
def test_minimal_poly_check_rejects_a_count_mismatch(algebra):
    """Too few companions would leave an axis unchecked, so the check
    raises instead of passing on what it was given."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, Kind.SECOND)
    gf = closed_form_gf(rs, basis)
    companions = build_companions(rs, basis)
    for given, count in (((), 0), (companions[:1], 1)):
        want = rf"takes 2 denominators and 2 companions, got 2 and {count}$"
        with pytest.raises(ValueError, match=want):
            minimal_poly_check(rs, gf, given)
    short_gf = dataclasses.replace(gf, denominators=gf.denominators[:1])
    with pytest.raises(ValueError, match=r"got 1 and 2"):
        minimal_poly_check(rs, short_gf, companions)


def test_recurrence_guards(g2, g2_second, a1, a1_second):
    with pytest.raises(ValueError):
        poly_via_recurrence(g2, g2_second, -1, 2)
    with pytest.raises(ValueError):
        poly_via_recurrence(g2, g2_second, 1)
    with pytest.raises(ValueError):
        poly_via_recurrence(a1, a1_second, 1, 0)
    with pytest.raises(ValueError):
        recurrence_table(g2, g2_second, 3)
    with pytest.raises(ValueError, match="max_m"):
        recurrence_table(g2, g2_second, -1, 2)
    with pytest.raises(ValueError, match="rank-1"):
        recurrence_table(a1, a1_second, 3, 5)
    with pytest.raises(ValueError, match="rank-2"):
        build_companions(a1, a1_second)


def test_fill_builds_the_box_and_the_entries_it_needs(g2, g2_second):
    # the x-step for (a, b) needs (a + 1, b - 1), so the box's right edge
    # pulls in entries out to (32, 0)
    table = _fill(g2, g2_second, rootsystem.index_box(2, 16, 16))
    outside = [idx for idx in table if max(idx) > 16]
    assert (len(table), len(outside), max(table)) == (489, 200, (32, 0))


_WRONG_SWEEPS = {
    "drop-top": lambda sweep: sweep[1:],
    "drop-x": lambda sweep: [mu for mu in sweep if mu != (1, 0)],
    "reversed": lambda sweep: sweep[::-1],
}


@pytest.mark.parametrize("wrong", list(_WRONG_SWEEPS.values()), ids=list(_WRONG_SWEEPS))
def test_a_wrong_sweep_makes_both_routes_raise(wrong, monkeypatch, g2, g2_second):
    """The sweep only orders the work.  A short or reversed one leaves a
    residue in reduce and a missing entry in the fill, never a wrong
    answer."""
    honest = rootsystem.dominant_sweep

    def patched(rs, top):
        return wrong(honest(rs, top))

    with monkeypatch.context() as m:
        m.setattr(polynomialize, "dominant_sweep", patched)
        with pytest.raises(NonDominantLeaderError):
            reduce(g2_second, orbit_sum(g2, (2, 1)))
    with monkeypatch.context() as m:
        m.setattr(recurrence, "dominant_sweep", patched)
        with pytest.raises(KeyError):
            recurrence_table(g2, g2_second, 2, 2)


def _gf_table(rs, basis, max_m, max_n=None):
    table = second_kind_table if basis.kind is Kind.SECOND else first_kind_table
    return table(rs, basis, max_m, max_n)


@pytest.fixture(
    scope="module",
    params=[(algebra, kind) for algebra in AlgebraId for kind in Kind],
    ids=lambda pair: f"{pair[0].value}-{pair[1].value}",
)
def gf_box(request):
    """Root system, basis, and the generating-function table over A1 0..12
    or the rank-2 box 0..6 x 0..6."""
    algebra, kind = request.param
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    size = (12,) if rs.rank == 1 else (6, 6)
    return rs, basis, size, _gf_table(rs, basis, *size)


def test_recurrence_table_matches_gf_route(gf_box):
    rs, basis, size, gf_table = gf_box
    assert recurrence_table(rs, basis, *size) == gf_table


def test_poly_via_recurrence_matches_gf_route(gf_box):
    rs, basis, _, gf_table = gf_box
    for index, poly in gf_table.items():
        assert poly_via_recurrence(rs, basis, *index) == poly


def _swap_variables(poly):
    return XYPoly(2, {(b, a): c for (a, b), c in poly.terms()})


@pytest.mark.parametrize("kind", list(Kind))
def test_a2_diagram_symmetry(a2, kind):
    # the diagram automorphism swaps the fundamental weights, hence the
    # indices and the variables: P_{m,n}(x, y) = P_{n,m}(y, x)
    basis = build_basis(a2, kind)
    for table in (_gf_table(a2, basis, 4, 4), recurrence_table(a2, basis, 4, 4)):
        for (m, n), poly in table.items():
            assert table[(n, m)] == _swap_variables(poly)


@pytest.mark.parametrize("algebra", [AlgebraId.A2, AlgebraId.C2, AlgebraId.G2])
def test_reversed_denominator_annihilates_companion(algebra):
    # a companion's characteristic polynomial is its reversed denominator;
    # A2's denominators are not (anti-)palindromic, so only the reversal
    # annihilates there and minimal_poly_check is False
    rs = build_root_system(algebra)
    basis = build_basis(rs, Kind.SECOND)
    gf = closed_form_gf(rs, basis)
    companions = build_companions(rs, basis)
    for den, companion in zip(gf.denominators, companions):
        value = apply_poly_to_matrix(den[::-1], companion)
        assert not any(entry for row in value for entry in row)
    assert minimal_poly_check(rs, gf, companions) is (algebra is not AlgebraId.A2)

"""Reduction of invariant Laurent polynomials to the variable basis."""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcheb import (
    AlgebraId,
    Kind,
    LaurentPoly,
    NonDominantLeaderError,
    NotInvariantError,
    XYPoly,
    build_basis,
    build_companions,
    build_root_system,
    closed_form_gf,
    dimension_check,
    first_kind_poly,
    first_kind_table,
    orbit_sum,
    poly_via_recurrence,
    recurrence_table,
    reduce,
    second_kind_poly,
    second_kind_table,
    unit_weight,
    verify_ratio,
)
from reference import evaluate, expand, from_json_obj

ALGEBRAS = (AlgebraId.A1, AlgebraId.A2, AlgebraId.C2, AlgebraId.G2)

degrees = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=3)
)
int_coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
xypolys = st.dictionaries(degrees, int_coeffs, max_size=6).map(
    lambda d: XYPoly(2, d)
).filter(lambda p: max((sum(d) for d, _ in p.terms()), default=0) <= 6)


def test_xypoly_canonical_order_and_text():
    p = XYPoly(2, {(2, 0): 1, (1, 0): -1, (0, 1): -1, (0, 0): -1})
    assert p.as_text() == "x^{2}-x-y-1"
    degs = [d for d, _ in p.terms()]
    assert degs == [(2, 0), (1, 0), (0, 1), (0, 0)]
    assert XYPoly.zero(2).as_text() == "0"
    assert XYPoly.constant(2, -3).as_text() == "-3"
    assert XYPoly(2, {(1, 1): 2, (0, 0): 1}).as_text() == "2xy+1"
    assert XYPoly(1, {(2,): 1, (0,): -2}).as_text() == "x^{2}-2"


def test_xypoly_arithmetic_basics():
    x = XYPoly(2, {(1, 0): 1})
    y = XYPoly(2, {(0, 1): 1})
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.coeff((2, 0)) == 1 and p.coeff((0, 2)) == -1
    assert evaluate(p, (3, 2)) == 5
    assert evaluate(p, (Fraction(1, 2), Fraction(1, 3))) == Fraction(5, 36)


@given(p=xypolys)
def test_xypoly_json_round_trip(p):
    assert from_json_obj(XYPoly, 2, p.to_json_obj()) == p


def leading_coeffs(basis):
    """Each variable's coefficient at its fundamental weight."""
    rs = basis.rs
    return tuple(v.coeff(unit_weight(rs, i)) for i, v in enumerate(basis.var_laurents))


def test_basis_construction_all_cases():
    for algebra in (AlgebraId.A1, AlgebraId.A2, AlgebraId.C2, AlgebraId.G2):
        rs = build_root_system(algebra)
        for kind in (Kind.FIRST, Kind.SECOND):
            basis = build_basis(rs, kind)
            assert len(basis.var_laurents) == rs.rank
            assert all(
                isinstance(c, int) and c > 0 for c in leading_coeffs(basis)
            )
    g2 = build_root_system(AlgebraId.G2)
    assert leading_coeffs(build_basis(g2, Kind.SECOND)) == (1, 1)
    assert leading_coeffs(build_basis(g2, Kind.FIRST)) == (2, 2)


@pytest.mark.parametrize(
    "entry, kind, args",
    [
        (second_kind_poly, Kind.SECOND, (1, 1)),
        (second_kind_table, Kind.SECOND, (1, 1)),
        (first_kind_poly, Kind.FIRST, ((1, 1),)),
        (first_kind_table, Kind.FIRST, (1, 1)),
        (poly_via_recurrence, Kind.SECOND, (1, 1)),
        (recurrence_table, Kind.FIRST, (1, 1)),
        (closed_form_gf, Kind.SECOND, ()),
        (build_companions, Kind.SECOND, ()),
        (verify_ratio, Kind.SECOND, (1, 1)),
        (dimension_check, Kind.SECOND, (1, 1)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_a_basis_of_another_algebra_is_rejected(entry, kind, args, g2, g2_second):
    """A C2 basis passed with G2 is rejected, also when the right
    polynomial comes with it."""
    c2_basis = build_basis(build_root_system(AlgebraId.C2), kind)
    given_poly = {}
    if entry in (verify_ratio, dimension_check):
        given_poly["poly"] = second_kind_poly(g2, g2_second, 1, 1)
    with pytest.raises(ValueError, match="built for C2, not for G2"):
        entry(g2, c2_basis, *args, **given_poly)


@given(p=xypolys)
def test_reduce_after_expand_is_identity(p):
    basis = build_basis(build_root_system(AlgebraId.G2), Kind.SECOND)
    assert reduce(basis, expand(basis, p)) == p


@given(p=xypolys)
def test_round_trip_first_kind(p):
    basis = build_basis(build_root_system(AlgebraId.G2), Kind.FIRST)
    assert reduce(basis, expand(basis, p)) == p


def test_expand_after_reduce_on_orbit_sums(g2, g2_second):
    for n1 in range(9):
        for n2 in range(9):
            f = orbit_sum(g2, (n1, n2))
            assert expand(g2_second, reduce(g2_second, f)) == f


def test_reduce_rejects_non_invariant_input(g2_second):
    lopsided = LaurentPoly(2, {(1, 0): 1, (-1, 1): 1})
    with pytest.raises(NotInvariantError):
        reduce(g2_second, lopsided)


def test_second_kind_outputs_are_integral(g2_tables):
    gf_table, _ = g2_tables
    for poly in gf_table.values():
        assert all(isinstance(c, int) for _, c in poly.terms())


def test_power_cache_matches_recomputation(g2):
    cached = build_basis(g2, Kind.SECOND)
    warm = cached.monomial_laurent((3, 2))
    fresh = build_basis(g2, Kind.SECOND)
    x, y = fresh.var_laurents
    assert warm == x * x * x * y * y
    assert cached.monomial_laurent((3, 2)) == warm


def test_monomial_cache_base_case(g2_second):
    assert g2_second.monomial_laurent((0, 0)) == LaurentPoly.one(2)


@st.composite
def monomial_cases(draw):
    algebra = draw(st.sampled_from(ALGEBRAS))
    kind = draw(st.sampled_from(list(Kind)))
    if algebra is AlgebraId.A1:
        deg = (draw(st.integers(0, 8)),)
    else:
        deg = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
    return algebra, kind, deg


@given(case=monomial_cases())
def test_dominant_cache_matches_explicit_product(case):
    algebra, kind, deg = case
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    product = LaurentPoly.one(rs.rank)
    for var, e in zip(basis.var_laurents, deg):
        for _ in range(e):
            product = product * var
    assert basis.monomial_laurent(deg) == product
    dominant = {exp: c for exp, c in product.terms() if all(x >= 0 for x in exp)}
    assert basis._power_cache[deg] == dominant


@st.composite
def polynomial_pairs(draw):
    algebra = draw(st.sampled_from(ALGEBRAS))
    kind = draw(st.sampled_from(list(Kind)))
    rank = 1 if algebra is AlgebraId.A1 else 2
    small = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * rank), int_coeffs, max_size=4
    ).map(lambda d: XYPoly(rank, d))
    return algebra, kind, draw(small), draw(small)


@given(case=polynomial_pairs())
def test_reduce_is_a_ring_homomorphism(case):
    algebra, kind, p, q = case
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    assert reduce(basis, expand(basis, p) * expand(basis, q)) == p * q
    assert reduce(basis, expand(basis, p) - expand(basis, q)) == p - q
    assert reduce(basis, LaurentPoly.zero(rs.rank)) == XYPoly.zero(rs.rank)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", ALGEBRAS)
@given(data=st.data())
def test_reduce_takes_the_dominant_coefficients_of_an_invariant(algebra, kind, data):
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    degs = st.tuples(*[st.integers(0, 3)] * rs.rank)
    p = XYPoly(rs.rank, data.draw(st.dictionaries(degs, int_coeffs, max_size=4)))
    f = expand(basis, p)
    dominant = {exp: c for exp, c in f._terms.items() if min(exp) >= 0}
    assert reduce(basis, dominant) == reduce(basis, f) == p


@pytest.mark.parametrize("key", [(-1, 1), (1,), (0, 0, 1)])
def test_reduce_rejects_dominant_coefficients_off_the_chamber(g2_second, key):
    with pytest.raises(ValueError, match=re.escape(f"non-dominant weight {key}")):
        reduce(g2_second, {(1, 0): 1, key: 1})


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", [AlgebraId.A1, AlgebraId.A2, AlgebraId.C2])
def test_expand_after_reduce_on_orbit_sums_other_algebras(algebra, kind):
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    indices = (
        [(n,) for n in range(11)]
        if rs.rank == 1
        else [(n1, n2) for n1 in range(6) for n2 in range(6)]
    )
    for n in indices:
        f = orbit_sum(rs, n)
        assert expand(basis, reduce(basis, f)) == f


def test_reduce_checks_invariance_outside_the_dominant_chamber(g2, g2_second):
    # The dominant part is that of an orbit sum; only z^(-1, 0) is off.
    f = orbit_sum(g2, (1, 0)) + LaurentPoly.monomial(2, (-1, 0))
    with pytest.raises(NotInvariantError, match="not Weyl-invariant"):
        reduce(g2_second, f)


def test_reduce_reports_a_residue_it_cannot_eliminate(g2):
    basis = build_basis(g2, Kind.SECOND)
    # A corrupted cache entry for x that leaves a non-dominant term behind.
    basis._power_cache[(1, 0)] = {(1, 0): 1, (0, 0): 1, (-1, 1): 1}
    with pytest.raises(NonDominantLeaderError, match=r"1 residual term.*\(-1, 1\)"):
        reduce(basis, basis.var_laurents[0])


@pytest.mark.parametrize("kind", ["second", "first", None])
def test_build_basis_rejects_a_kind_that_is_not_a_kind(g2, kind):
    # a string kind used to build the first-kind variables under a
    # second-kind seed: the table read 12 at (0, 0) and 2x-2 at (1, 0)
    with pytest.raises(ValueError, match=re.escape(f"got {kind!r}")):
        build_basis(g2, kind)


def test_first_kind_elimination_makes_no_working_fractions(g2, monkeypatch):
    """The elimination runs in integers, so a first-kind table creates at
    most one Fraction per output term."""
    created = []
    make = Fraction.__new__

    def counting(cls, *args, **kwargs):
        created.append(cls)
        return make(cls, *args, **kwargs)

    basis = build_basis(g2, Kind.FIRST)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    table = first_kind_table(g2, basis, 8, 8)
    monkeypatch.undo()
    terms = sum(len(poly) for poly in table.values())
    assert terms == 3878
    assert len(created) <= terms


def test_a_lead_that_does_not_divide_its_monomial_is_refused(g2):
    """A basis from dataclasses.replace skips build_basis.  With x + 1 as a
    variable, integer elimination would truncate, so the monomial is
    refused when it is cached."""
    first = build_basis(g2, Kind.FIRST)
    x, y = first.var_laurents
    bad = dataclasses.replace(first, var_laurents=(x + LaurentPoly.one(2), y))
    with pytest.raises(ArithmeticError, match="does not divide"):
        reduce(bad, orbit_sum(g2, (1, 0)))


def test_reduce_keeps_a_fractional_input_exact(g2, g2_first):
    # the elimination subtracts coeff * (mc // lead), which stays exact
    # when coeff is a Fraction; coeff * mc // lead would floor it
    f = orbit_sum(g2, (2, 1))
    third = Fraction(1, 3)
    assert reduce(g2_first, f.scale(third)) == reduce(g2_first, f).scale(third)

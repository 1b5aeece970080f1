"""Reduction of invariant Laurent polynomials to the variable basis."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcheb import (
    AlgebraId,
    Comparison,
    Kind,
    LaurentPoly,
    NonDominantLeaderError,
    NotInvariantError,
    XYPoly,
    build_basis,
    build_root_system,
    dominance_compare,
    expand,
    orbit_sum,
    reduce,
)

ALGEBRAS = (AlgebraId.A1, AlgebraId.A2, AlgebraId.C2, AlgebraId.G2)

degrees = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=3)
)
int_coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
xypolys = st.dictionaries(degrees, int_coeffs, max_size=6).map(
    lambda d: XYPoly(2, d)
).filter(lambda p: p.total_degree() <= 6)


def test_dominance_compare_examples(g2):
    assert dominance_compare(g2, (1, 1), (1, 1)) is Comparison.EQUAL
    assert dominance_compare(g2, (0, 0), (1, 1)) is Comparison.LESS
    assert dominance_compare(g2, (1, 1), (0, 0)) is Comparison.GREATER
    assert dominance_compare(g2, (1, 0), (0, 1)) is Comparison.LESS
    assert dominance_compare(g2, (3, 0), (0, 2)) is Comparison.LESS
    assert dominance_compare(g2, (5, 0), (0, 3)) is Comparison.INCOMPARABLE


@given(
    mu=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    nu=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
)
def test_dominance_compare_antisymmetry(mu, nu):
    rs = build_root_system(AlgebraId.G2)
    flipped = {
        Comparison.LESS: Comparison.GREATER,
        Comparison.GREATER: Comparison.LESS,
        Comparison.EQUAL: Comparison.EQUAL,
        Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
    }
    assert dominance_compare(rs, nu, mu) is flipped[dominance_compare(rs, mu, nu)]


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
    x = XYPoly.variable(2, 0)
    y = XYPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.coeff((2, 0)) == 1 and p.coeff((0, 2)) == -1
    assert (x**3).total_degree() == 3
    assert p.evaluate((3, 2)) == 5
    assert p.evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(5, 36)


@given(p=xypolys)
def test_xypoly_json_round_trip(p):
    assert XYPoly.from_json_obj(2, p.to_json_obj()) == p


def test_basis_construction_all_cases():
    for algebra in (AlgebraId.A1, AlgebraId.A2, AlgebraId.C2, AlgebraId.G2):
        rs = build_root_system(algebra)
        for kind in (Kind.FIRST, Kind.SECOND):
            basis = build_basis(rs, kind)
            assert len(basis.var_laurents) == rs.rank
            assert all(
                isinstance(c, int) and c > 0 for c in basis.leading_coeffs
            )
    g2 = build_root_system(AlgebraId.G2)
    assert build_basis(g2, Kind.SECOND).leading_coeffs == (1, 1)
    assert build_basis(g2, Kind.FIRST).leading_coeffs == (2, 2)


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
        product = product * var**e
    assert basis.monomial_laurent(deg) == product
    dominant = {exp: c for exp, c in product.terms() if all(x >= 0 for x in exp)}
    assert basis._power_cache[deg] == dominant


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

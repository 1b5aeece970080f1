"""Reduction of invariant Laurent polynomials to the variable basis."""

from __future__ import annotations

import dataclasses
import itertools
import re
from fractions import Fraction
from functools import partial
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

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
from weylcheb import polynomialize, recurrence, rootsystem
from weylcheb.genfunc import coefficient_trace
from weylcheb.orbit import exact_divide, unfold
from weylcheb.rootsystem import coset, height
from reference import (
    dominant_monomial, evaluate, expand, from_json_obj, orbit_points, product_rule,
)

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


def test_xypoly_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="negative degree"):
        XYPoly(2, {(1, -1): 1})


@given(
    data=st.data(),
    bits=st.sampled_from([8, 16, 64, 128]),
    weights=st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=12),
)
def test_pack_is_the_shifted_sum(data, bits, weights):
    """The recurrence steps pack by ``_pack``: the sum of c << (slot * bits),
    for distinct slots and every |c| < 2^bits."""
    bound = (1 << bits) - 1
    slots = dict(zip(weights, data.draw(st.permutations(range(40)))))
    coeffs = {mu: data.draw(st.integers(-bound, bound)) for mu in weights}
    want = sum(c << (slots[mu] * bits) for mu, c in coeffs.items())
    assert recurrence._pack(coeffs, slots, bits) == want


@st.composite
def ranked_lists(draw):
    """A slot width and a list by rank whose every |c| < 2^(bits-1)."""
    bits = draw(st.sampled_from([8, 16, 64, 128]))
    bound = (1 << (bits - 1)) - 1
    return bits, draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=40))


_WIDE = (1 << 62) - 1  # the widest coefficient a 64-bit slot of _eliminate holds


@given(case=ranked_lists())
@example(case=(64, [_WIDE]))
@example(case=(64, [-_WIDE]))
@example(case=(64, [0]))
@example(case=(64, [_WIDE, 0, -_WIDE, -_WIDE, 0, _WIDE]))
def test_pack_ranks_is_the_shifted_sum(case):
    """The elimination packs a list by rank: rank r at slot r + 1, the sum
    of c << ((r + 1) * bits), for every |c| < 2^(bits-1).  64-bit slots go
    through ``struct``, the others through ``to_bytes``."""
    bits, coeffs = case
    want = sum(c << ((r + 1) * bits) for r, c in enumerate(coeffs))
    assert polynomialize._pack_ranks(coeffs, bits) == want


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
    """A C2 basis passed with G2 is rejected, also when its cache holds
    the right polynomial."""
    c2_basis = build_basis(build_root_system(AlgebraId.C2), kind)
    c2_basis._polys[(1, 1)] = second_kind_poly(g2, g2_second, 1, 1)
    with pytest.raises(ValueError, match="built for C2, not for G2"):
        entry(g2, c2_basis, *args)


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
    # the cache holds the X-monomial, X_i = x_i / lead_i, as a list by rank
    scale = prod(lead**d for lead, d in zip(leading_coeffs(basis), deg))
    dominant = {exp: Fraction(c, scale) for exp, c in product.terms() if min(exp) >= 0}
    weights = basis.index.cosets[basis.index.where[deg][0]]
    cached = basis._power_cache[deg]
    assert {mu: c for mu, c in zip(weights, cached) if c} == dominant
    assert len(cached) == basis.index.where[deg][1] + 1


_PRODUCTS: dict = {}


def _dominant_products(rs, basis) -> dict:
    """The dominant part of the product of the variables' Laurent
    expansions over X_i, for every degree up to (5, 5) (rank 1: up to 10)."""
    key = rs.algebra, basis.kind
    if key not in _PRODUCTS:
        top = (10,) if rs.rank == 1 else (5, 5)
        products = {(0,) * rs.rank: LaurentPoly.one(rs.rank)}
        for deg in itertools.product(*(range(t + 1) for t in top)):
            if any(deg):
                i = next(j for j, d in enumerate(deg) if d)
                lower = tuple(d - (j == i) for j, d in enumerate(deg))
                products[deg] = products[lower] * basis.var_laurents[i]
        _PRODUCTS[key] = {
            deg: {mu: Fraction(c, prod(map(pow, basis.leads, deg)))
                  for mu, c in p._terms.items() if min(mu) >= 0}
            for deg, p in products.items()
        }
    return _PRODUCTS[key]


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", ALGEBRAS)
@settings(max_examples=6)
@given(data=st.data())
def test_monomials_built_in_any_order_are_the_laurent_products(algebra, kind, data):
    """Monomials built in a drawn order, on a cold basis and on one whose
    index a drawn polynomial has grown first, so the index grows in other
    steps, equal the dominant part of the product of the expansions; and
    with 8-bit slots, so that the slots widen, each reduces to itself."""
    rs = build_root_system(algebra)
    expected = _dominant_products(rs, build_basis(rs, kind))
    order = data.draw(st.permutations(sorted(expected)))
    cold, warm = build_basis(rs, kind), build_basis(rs, kind)
    index = data.draw(st.sampled_from(sorted(expected)))
    if kind is Kind.SECOND:
        second_kind_poly(rs, warm, *index)
    else:
        first_kind_poly(rs, warm, index)
    for basis in (cold, warm):
        for deg in order:
            assert dominant_monomial(basis, deg) == expected[deg], deg
    with pytest.MonkeyPatch.context() as m:
        m.setattr(polynomialize, "_SLOT_BITS", 8)
        narrow = build_basis(rs, kind)
        for deg in order:
            laurent = unfold(rs, expected[deg]).scale(prod(map(pow, narrow.leads, deg)))
            assert reduce(narrow, laurent) == XYPoly(rs.rank, {deg: 1}), deg
    assert max(bits for bits, _ in narrow._packed.values()) > 8


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_cached_monomials_are_integral_with_unit_leaders(algebra, kind):
    """Over the X_i every monomial up to degree (4, 4) has int coefficients
    and coefficient 1 at its leader, the weight of its degree vector, which
    is strictly the highest; a result keeps its bytes over the x_i when
    every lead is 1, and is divided by the powers of the leads otherwise."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    expected = (1,) * rs.rank if kind is Kind.SECOND or rs.rank == 1 else (2, 2)
    assert basis.leads == leading_coeffs(basis) == expected
    for deg in itertools.product(range(5), repeat=rs.rank):
        basis.monomial_laurent(deg)
    assert len(basis._power_cache) == 5**rs.rank
    for deg, ranked in basis._power_cache.items():
        assert all(type(c) is int for c in ranked), deg
        monomial = dominant_monomial(basis, deg)
        assert monomial[deg] == ranked[-1] == 1, deg
        assert all(height(rs, mu) < height(rs, deg) for mu in monomial if mu != deg), deg
    p = XYPoly(rs.rank, {(1,) * rs.rank: 3, (2,) + (0,) * (rs.rank - 1): 8})
    assert (basis.over_x(p) is p) == (expected == (1,) * rs.rank)
    # c X^d becomes c / prod(lead_i^d_i) x^d, an int where the product divides c
    scaled = basis.over_x(p)._terms
    for d, c in p._terms.items():
        assert scaled[d] == Fraction(c, prod(map(pow, expected, d))), d
    assert type(scaled[(2,) + (0,) * (rs.rank - 1)]) is int


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


# Dominant coefficients that reduce used to fail inside on, or to answer,
# and the message each must raise instead.
_MALFORMED = {
    "float-coefficient": ({(1, 0): 0.5}, "the coefficient 0.5 at weight (1, 0)"),
    "bool-coefficient": ({(1, 0): True}, "the coefficient True at weight (1, 0)"),
    "bool-key": ({(True, 0): 1}, "non-dominant weight (True, 0)"),
    "float-key": ({(0.5, 0): 1}, "non-dominant weight (0.5, 0)"),
}


@pytest.mark.parametrize("dominant, message", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_reduce_rejects_malformed_dominant_coefficients(g2_first, dominant, message):
    """Keys follow the index contract of ``check_index``: ``int``, not
    ``bool``, nonnegative.  Coefficients are an ``int`` that is not a
    ``bool``, or a ``Fraction``."""
    with pytest.raises(ValueError, match=re.escape(message)):
        reduce(g2_first, dominant)


# Keys that are not dominant weights, by rank.
_BAD_KEYS = {
    1: [(-1,), (2, 0), (0.5,), (9.0,), ()],
    2: [(-1, 1), (1,), (0, 0, 1), (True, 9), (0.5, 0), (2, -3), (1.0, 9)],
}


def _first_bad_key(keys, rank):
    """The key ``reduce`` names: the first that is not a dominant weight."""
    return next(e for e in keys if len(e) != rank or any(type(a) is not int or a < 0 for a in e))


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", ALGEBRAS)
@settings(max_examples=25)
@given(data=st.data())
def test_reduce_places_a_dict_on_a_fresh_and_on_a_grown_index(algebra, kind, data):
    """Each key of a dict is placed by one index lookup, and the index
    grows only when a key is not filed.  On a fresh basis the lookups miss
    and the index grows to the highest key, not the first; on a basis grown
    past the input it stays as it was; both agree with the unfolded Laurent
    polynomial.  Zero coefficients far above the index's top are dropped,
    not filed, and a dict with bad keys names the first of them."""
    rs = build_root_system(algebra)
    degs = st.tuples(*[st.integers(0, 3)] * rs.rank)
    p = XYPoly(rs.rank, data.draw(st.dictionaries(degs, int_coeffs, max_size=4)))
    f = expand(build_basis(rs, kind), p)
    terms = sorted((mu, c) for mu, c in f._terms.items() if min(mu) >= 0)
    dominant = dict(sorted(terms, key=lambda term: height(rs, term[0])))  # lowest first
    far = st.tuples(*[st.integers(40, 60)] * rs.rank)
    zeros = dict.fromkeys(data.draw(st.lists(far, max_size=3)), 0)

    fresh = build_basis(rs, kind)
    assert reduce(fresh, {**dominant, **zeros}) == p
    assert fresh.index.top >= max((height(rs, mu) for mu in dominant), default=-1)
    assert fresh.index.top < height(rs, (40,) * rs.rank)
    grown = build_basis(rs, kind)
    grown.index.grow(height(rs, (12,) * rs.rank))
    top = grown.index.top
    assert reduce(grown, {**dominant, **zeros}) == p
    assert grown.index.top == top
    assert reduce(build_basis(rs, kind), f) == p

    bad = dict.fromkeys(data.draw(st.lists(st.sampled_from(_BAD_KEYS[rs.rank]), min_size=1)), 1)
    mixed = dict(data.draw(st.permutations([*dominant.items(), *bad.items()])))
    first = _first_bad_key(mixed, rs.rank)
    with pytest.raises(ValueError, match=re.escape(f"non-dominant weight {first}")):
        reduce(build_basis(rs, kind), mixed)


def test_filed_weights_divide_and_reduce_without_growing_the_index(g2, monkeypatch):
    """A division or a reduce whose weights the index has filed only looks
    them up, so it runs with the sweep broken; on a fresh basis the same
    calls still grow the index."""
    numerator = coefficient_trace(g2, 3, 2)
    quotient = exact_divide(build_basis(g2, Kind.SECOND).racah, numerator)
    want = reduce(build_basis(g2, Kind.SECOND), quotient)
    warm = build_basis(g2, Kind.SECOND)
    second_kind_table(g2, warm, 3, 3)

    def broken(*args):
        raise RuntimeError("the index swept")

    monkeypatch.setattr(rootsystem, "dominant_sweep", broken)
    assert exact_divide(warm.racah, numerator) == quotient
    assert reduce(warm, quotient) == want
    for call in (lambda basis: exact_divide(basis.racah, numerator), partial(reduce, f=quotient)):
        with pytest.raises(RuntimeError, match="the index swept"):
            call(build_basis(g2, Kind.SECOND))


def test_reduce_rejects_a_laurent_polynomial_with_float_coefficients(g2, g2_first):
    f = LaurentPoly(2, dict.fromkeys(orbit_points(g2, (1, 0)), 0.5))
    with pytest.raises(ValueError, match=re.escape("the coefficient 0.5 at weight (")):
        reduce(g2_first, f)


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
    # A corrupted cache entry for x with a term at y, above its leader, that
    # subtracting it leaves behind in a slot already read.
    ranked = basis._dominant_monomial((1, 0))
    basis.index.grow(height(g2, (0, 1)))
    assert basis.index.where[(0, 1)][1] == len(ranked)
    basis._power_cache[(1, 0)] = ranked + [1]
    with pytest.raises(NonDominantLeaderError, match=r"1 residual term.*\(0, 1\)"):
        reduce(basis, basis.var_laurents[0])


@pytest.mark.parametrize("kind", ["second", "first", None])
def test_build_basis_rejects_a_kind_that_is_not_a_kind(g2, kind):
    # a string kind used to build the first-kind variables under a
    # second-kind seed: the table read 12 at (0, 0) and 2x-2 at (1, 0)
    with pytest.raises(ValueError, match=re.escape(f"got {kind!r}")):
        build_basis(g2, kind)


def test_first_kind_elimination_makes_no_working_fractions(g2, monkeypatch):
    """Both routes work in integers over the X_i, so a first-kind table
    creates at most one Fraction per output term, where the term is
    rewritten over the x_i."""
    created = []
    make = Fraction.__new__

    def counting(cls, *args, **kwargs):
        created.append(cls)
        return make(cls, *args, **kwargs)

    for route in (first_kind_table, recurrence_table):
        basis = build_basis(g2, Kind.FIRST)
        created.clear()
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        table = route(g2, basis, 8, 8)
        monkeypatch.undo()
        terms = sum(len(poly) for poly in table.values())
        assert terms == 3878, route.__name__
        assert len(created) <= terms, (route.__name__, len(created))


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


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_product_rule_by_folds_matches_the_orbit_point_rule(algebra, kind):
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    index = basis.index
    index.grow(height(rs, (7,) * rs.rank))
    for lam in itertools.product(range(7), repeat=rs.rank):
        for i in range(rs.rank):
            cos = index.where[tuple(a + b for a, b in zip(lam, unit_weight(rs, i)))][0]
            rule = {index.cosets[cos][t]: c for t, c in basis._product_rule(lam, i, cos)}
            assert rule == product_rule(basis, lam, i), (lam, i)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_every_product_rule_term_and_monomial_coefficient_is_positive(algebra, kind):
    """The coefficients of x_i and the stabilizer orders are positive, so
    building an X-monomial adds positive terms only and nothing cancels."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    for degrees in itertools.product(range(7), repeat=rs.rank):
        monomial = dominant_monomial(basis, degrees)
        assert monomial and min(monomial.values()) > 0, degrees
        assert min(basis._dominant_monomial(degrees)) >= 0, degrees
    assert basis._rules
    for (cos, i), rules in basis._rules.items():
        weights = basis.index.cosets[cos]
        for lam, rule in zip(weights, rules):
            assert rule is None or rule and all(c > 0 for _, c in rule), (lam, i)


def test_a_product_rule_that_does_not_divide_is_refused(g2):
    """A non-invariant variable whose lead divides it passes ``leads``, but
    its fold sums do not divide by |W_lam| lead_i."""
    first = build_basis(g2, Kind.FIRST)
    x, y = first.var_laurents
    bad = dataclasses.replace(first, var_laurents=(x + LaurentPoly.monomial(2, (5, 0)).scale(2), y))
    with pytest.raises(ArithmeticError, match="product rule of \\(0, 0\\) and x"):
        reduce(bad, orbit_sum(g2, (1, 0)))


def test_a_product_rule_term_in_another_coset_stalls(a2):
    """A basis from dataclasses.replace skips build_basis.  With x + 1 as a
    variable, the product rule that builds x has a term at (0, 0), in the
    root lattice and not in x's coset, so the monomial is refused, naming
    that weight, rather than filed by its rank in the wrong coset."""
    basis = build_basis(a2, Kind.SECOND)
    x, y = basis.var_laurents
    bad = dataclasses.replace(basis, var_laurents=(x + LaurentPoly.one(2), y))
    with pytest.raises(NonDominantLeaderError, match=r"1 residual term.*z\^\(0, 0\)"):
        reduce(bad, x)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_narrow_slots_widen_to_the_same_tables(algebra, kind, monkeypatch):
    """With 8-bit slots most eliminations overflow and are redone wider;
    the tables come out the same."""
    rs = build_root_system(algebra)
    size = (12,) if rs.rank == 1 else (6, 6)
    table = second_kind_table if kind is Kind.SECOND else first_kind_table
    wide = table(rs, build_basis(rs, kind), *size)
    monkeypatch.setattr(polynomialize, "_SLOT_BITS", 8)
    eliminations = _spy_eliminations(monkeypatch)
    assert table(rs, build_basis(rs, kind), *size) == wide
    widths = {bits for _, bits in eliminations}
    assert min(widths) == 8 and max(widths) > 8, widths


def _spy_eliminations(monkeypatch) -> list:
    """Patch ``polynomialize._eliminate`` to record each call's (coset, width)."""
    eliminate, calls = polynomialize._eliminate, []

    def spy(basis, cos, f, bits, packed):
        calls.append((cos, bits))
        return eliminate(basis, cos, f, bits, packed)

    monkeypatch.setattr(polynomialize, "_eliminate", spy)
    return calls


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", [AlgebraId.A2, AlgebraId.G2])
def test_a_widened_coset_keeps_one_record_at_its_widest_slots(algebra, kind, monkeypatch):
    """With 8-bit slots, a 6x6 table leaves one packed record per coset it
    eliminated, keyed by the coset alone: the widest slots that coset
    needed, and only monomials packed at that width.  The narrower packs
    are gone, and the table equals the one at 64-bit slots."""
    rs = build_root_system(algebra)
    table = second_kind_table if kind is Kind.SECOND else first_kind_table
    wide = table(rs, build_basis(rs, kind), 6, 6)
    monkeypatch.setattr(polynomialize, "_SLOT_BITS", 8)
    eliminations = _spy_eliminations(monkeypatch)
    basis = build_basis(rs, kind)
    assert table(rs, basis, 6, 6) == wide
    widest = {}
    for cos, bits in eliminations:
        widest[cos] = max(bits, widest.get(cos, bits))
    assert max(widest.values()) > 8, widest
    assert {cos: bits for cos, (bits, _) in basis._packed.items()} == widest
    for cos, (bits, packed) in basis._packed.items():
        weights = basis.index.cosets[cos]
        for k, (largest, pack) in packed.items():
            monomial = basis._power_cache[weights[k - 1]]
            shifted = sum(c << ((r + 1) * bits) for r, c in enumerate(monomial))
            assert (largest, pack) == (max(map(abs, monomial)), shifted)


_WRONG_SWEEPS = {
    "drop-top": lambda sweep: sweep[1:],
    "drop-x": lambda sweep: [mu for mu in sweep if mu != (1, 0)],
    "reversed": lambda sweep: sweep[::-1],
}


def _wrong_shells(monkeypatch, wrong) -> None:
    """Make every shell an index grows by ``wrong``."""
    honest = rootsystem.dominant_sweep
    monkeypatch.setattr(
        rootsystem, "dominant_sweep", lambda rs, top, low: wrong(honest(rs, top, low))
    )


@pytest.mark.parametrize("wrong", list(_WRONG_SWEEPS.values()), ids=list(_WRONG_SWEEPS))
def test_a_wrong_sweep_makes_reduce_raise(wrong, monkeypatch, g2):
    """The sweep only orders the work.  A short or reversed one that the
    index is grown by raises a stall, never a wrong answer."""
    basis = build_basis(g2, Kind.SECOND)
    _wrong_shells(monkeypatch, wrong)
    with pytest.raises(NonDominantLeaderError):
        reduce(basis, orbit_sum(g2, (2, 1)))


@pytest.mark.parametrize(
    "wrong", [lambda sweep: sweep[::-1], lambda sweep: sweep[1:]], ids=["reversed", "drop-top"]
)
def test_a_wrong_sweep_on_a_warm_basis_raises_and_spoils_nothing(wrong, g2, monkeypatch):
    """A warm index grows only above its top, so a wrong shell it grows by
    raises, and every rank, rule and monomial filed before it stays as it
    was: the basis still reduces correctly up to its old top."""
    basis = build_basis(g2, Kind.SECOND)
    f = orbit_sum(g2, (2, 1))
    expected = reduce(build_basis(g2, Kind.SECOND), f)
    assert reduce(basis, f) == expected
    where, monomials = dict(basis.index.where), {d: list(m) for d, m in basis._power_cache.items()}
    rules = {key: list(rows) for key, rows in basis._rules.items()}
    with monkeypatch.context() as m:
        _wrong_shells(m, wrong)
        with pytest.raises(NonDominantLeaderError):
            reduce(basis, orbit_sum(g2, (3, 1)))
    assert {mu: basis.index.where[mu] for mu in where} == where
    assert {d: basis._power_cache[d] for d in monomials} == monomials
    assert all(basis._rules[key][r] == rule for key, rows in rules.items()
               for r, rule in enumerate(rows) if rule is not None)
    assert reduce(basis, f) == expected


@pytest.mark.parametrize("algebra", [AlgebraId.A2, AlgebraId.C2])
def test_reduce_packs_each_coset_over_its_own_weights(algebra):
    """A sum of characters from two cosets is eliminated coset by coset,
    each over a layout that holds only its own weights."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, Kind.SECOND)
    p = XYPoly(2, {(2, 1): 3, (1, 0): -2, (0, 0): 1})
    assert reduce(basis, expand(basis, p)) == p
    assert len(basis._packed) == 2
    for cos, weights in basis.index.cosets.items():
        assert {coset(rs, mu) for mu in weights} == {cos}


def test_a_sweep_out_of_order_ends_in_a_residue_at_a_bounded_width(g2, monkeypatch):
    """With x swapped above (2, 1), the monomial of (2, 1) has a term above
    its leader.  The elimination ends in a stall instead of widening the
    slots without end."""
    eliminate = polynomialize._eliminate
    widths = []

    def swapped(sweep):
        i, j = sweep.index((2, 1)), sweep.index((1, 0))
        sweep[i], sweep[j] = sweep[j], sweep[i]
        return sweep

    def bounded(basis, cos, f, bits, packed):
        widths.append(bits)
        assert bits <= 4096, "the slots kept widening"
        return eliminate(basis, cos, f, bits, packed)

    basis = build_basis(g2, Kind.SECOND)
    _wrong_shells(monkeypatch, swapped)
    monkeypatch.setattr(polynomialize, "_eliminate", bounded)
    with pytest.raises(NonDominantLeaderError):
        reduce(basis, orbit_sum(g2, (2, 1)))
    assert max(widths) <= 128, widths

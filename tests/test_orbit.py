"""Symmetric and signed orbit sums over the Weyl group."""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, strategies as st

import weylcheb.orbit as orbit_module
import weylcheb.rootsystem as rootsystem_module
from weylcheb import (
    AlgebraId,
    Kind,
    LaurentPoly,
    act,
    build_root_system,
    orbit_sum,
    signed_orbit_sum,
    unit_weight,
    variable_laurents,
)
from weylcheb.orbit import RacahTable, axis_denominator, exact_divide as dominant_divide
from weylcheb.rootsystem import DominantIndex, coset, dominant_sweep, fold, height, index_box
from g2_reference import SINGULAR_ELEMENT, X_LAURENT, Y_LAURENT
from reference import apply_weyl, exact_divide, orbit_points

small_weights = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)
)
dominant_weights = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)


def test_orbit_sum_of_origin_is_group_order(g2, c2, a2, a1):
    for rs in (a1, a2, c2, g2):
        origin = (0,) * rs.rank
        assert orbit_sum(rs, origin) == LaurentPoly(
            rs.rank, {origin: len(rs.elements)}
        )


@given(n=dominant_weights)
def test_orbit_sum_invariance(n):
    rs = build_root_system(AlgebraId.G2)
    f = orbit_sum(rs, n)
    for w in rs.elements:
        assert apply_weyl(f, rs, w) == f


@given(k=small_weights)
def test_signed_sum_antisymmetry(k):
    rs = build_root_system(AlgebraId.G2)
    f = signed_orbit_sum(rs, k)
    for w in rs.elements:
        moved = apply_weyl(f, rs, w)
        assert moved == (f if w.det == 1 else -f)


@pytest.mark.parametrize("k", [(0, 0), (3, 0), (0, 5), (0, 1), (7, 0)])
def test_wall_vanishing(g2, k):
    assert signed_orbit_sum(g2, k) == LaurentPoly.zero(2)


@given(k=small_weights)
def test_reflection_rule(k):
    rs = build_root_system(AlgebraId.G2)
    f = signed_orbit_sum(rs, k)
    for w in rs.elements:
        assert signed_orbit_sum(rs, act(rs, w, k)) == (
            f if w.det == 1 else -f
        )


@given(k=small_weights, i=st.integers(min_value=0, max_value=1))
def test_multiplication_rule(k, i):
    # orbit_sum(e_i) * signed_orbit_sum(k) telescopes into a sum of signed
    # orbit sums, one per group element, with no extra normalization.
    rs = build_root_system(AlgebraId.G2)
    e_i = unit_weight(rs, i)
    left = orbit_sum(rs, e_i) * signed_orbit_sum(rs, k)
    right = LaurentPoly.zero(2)
    for w in rs.elements:
        shift = act(rs, w, e_i)
        right = right + signed_orbit_sum(rs, tuple(a + b for a, b in zip(k, shift)))
    assert left == right


def test_character_quotient_divisibility(g2):
    rho = g2.rho
    den = signed_orbit_sum(g2, rho)
    for n1 in range(9):
        for n2 in range(9):
            shifted = (n1 + 1, n2 + 1)
            quotient = exact_divide(signed_orbit_sum(g2, shifted), den)
            assert quotient * den == signed_orbit_sum(g2, shifted)


def test_singular_element_g2(g2):
    got = signed_orbit_sum(g2, (1, 1))
    assert got == LaurentPoly(2, SINGULAR_ELEMENT)
    assert len(got) == 12


@pytest.mark.parametrize("algebra", list(AlgebraId))
def test_axis_denominators_are_products_over_the_orbit_points(algebra):
    """The coefficient of t^k in P_i(t) = prod (1 - t z^nu) is (-1)^k times
    the sum of z^(nu_1 + ... + nu_k) over the k-subsets of the orbit of
    lambda_i, on every axis."""
    rs = build_root_system(algebra)
    for i in range(rs.rank):
        points = orbit_points(rs, unit_weight(rs, i))
        expected = []
        for k in range(len(points) + 1):
            acc = {}
            for subset in combinations(points, k):
                exp = tuple(map(sum, zip((0,) * rs.rank, *subset)))
                acc[exp] = acc.get(exp, 0) + (-1) ** k
            expected.append(LaurentPoly(rs.rank, acc))
        assert axis_denominator(rs, i) == tuple(expected), (algebra, i)


def test_g2_second_kind_variables(g2):
    x, y = variable_laurents(g2, Kind.SECOND)
    assert x == LaurentPoly(2, X_LAURENT)
    assert y == LaurentPoly(2, Y_LAURENT)
    assert len(x) == 7 and x.coeff((0, 0)) == 1
    assert sum(c for _, c in y.terms()) == 14 and y.coeff((0, 0)) == 2


def test_a1_variables_both_kinds(a1):
    hook = LaurentPoly(1, {(1,): 1, (-1,): 1})
    (second,) = variable_laurents(a1, Kind.SECOND)
    (first,) = variable_laurents(a1, Kind.FIRST)
    assert second == hook
    assert first == hook


@pytest.mark.parametrize("algebra", list(AlgebraId))
def test_second_kind_variables_are_character_quotients(algebra):
    """Each second-kind variable, built by the dominant division and
    unfolded, is the full Laurent quotient A_{rho+lambda_i} / A_rho."""
    rs = build_root_system(algebra)
    den = signed_orbit_sum(rs, rs.rho)
    for i, var in enumerate(variable_laurents(rs, Kind.SECOND)):
        shifted = tuple(r + u for r, u in zip(rs.rho, unit_weight(rs, i)))
        assert var == exact_divide(signed_orbit_sum(rs, shifted), den), i


def test_first_kind_variables_are_orbit_sums(g2):
    x, y = variable_laurents(g2, Kind.FIRST)
    assert x == orbit_sum(g2, (1, 0))
    assert y == orbit_sum(g2, (0, 1))
    # each fundamental weight has a stabilizer of order two
    assert x.coeff((1, 0)) == 2
    assert y.coeff((0, 1)) == 2


def _dominant_quotient(rs, num) -> dict:
    """The dominant part of the full Laurent quotient ``num / A_rho``."""
    full = exact_divide(num, signed_orbit_sum(rs, rs.rho))
    return {e: c for e, c in full._terms.items() if min(e) >= 0}


def _warm_table(rs) -> RacahTable:
    """A table grown out of order by a seeded shuffle of a 7 x 7 box of
    character numerators (0..10 at rank 1), each quotient checked.  Each
    numerator is also divided less the character whose coefficient it has
    just below its top, so the quotient has a zero there that the weights
    below it read."""
    box = index_box(1, 10, None) if rs.rank == 1 else index_box(2, 6, 6)
    random.Random(25).shuffle(box)
    table = RacahTable(DominantIndex(rs))
    for lam in box:
        num = signed_orbit_sum(rs, tuple(c + 1 for c in lam))
        quot = dominant_divide(table, num)
        assert quot == _dominant_quotient(rs, num), lam
        for mu, c in list(quot.items())[1:2]:
            num -= signed_orbit_sum(rs, tuple(a + 1 for a in mu)).scale(c)
            quot = dominant_divide(table, num)
            assert mu not in quot and quot == _dominant_quotient(rs, num), lam
    # 0 and the fundamental weights lie in different cosets, but on G2
    shifted = [rs.rho] + [tuple(map(add, rs.rho, unit_weight(rs, i))) for i in range(rs.rank)]
    mixed = sum(map(partial(signed_orbit_sum, rs), shifted), LaurentPoly.zero(rs.rank))
    assert dominant_divide(table, mixed) == _dominant_quotient(rs, mixed)
    return table


@pytest.mark.parametrize("algebra", list(AlgebraId))
def test_racah_table_links_each_weight_to_its_coset_above_it(algebra):
    """A table grown out of order divides right, its index files every
    dominant weight up to its top once, in ascending sweep order, with
    every neighbour of a row's weight, and each row links its weight to
    nonzero merged coefficients at strictly greater heights of its own
    coset, filed by rank; that is what lets the walk read only finished
    entries."""
    rs = build_root_system(algebra)
    table = _warm_table(rs)
    index = table.index
    filed = []
    for cos, weights in index.cosets.items():
        assert weights == sorted(weights, key=lambda mu: (height(rs, mu), mu))
        assert all(index.where[mu] == (cos, r) for r, mu in enumerate(weights))
        rows = table.rows.get(cos, [])
        if rows:  # every neighbour of a row's weight is filed
            assert height(rs, weights[len(rows) - 1]) + table.reach <= index.top
        for (js, cs), mu in zip(rows, weights):
            assert coset(rs, mu) == cos
            assert len(js) == len(set(js)) == len(cs) and all(cs), mu
            merged = {}
            for offset, c in table.offsets:
                nu = fold(rs, tuple(map(add, mu, offset)))[1]
                merged[nu] = merged.get(nu, 0) + c
            assert {weights[j]: c for j, c in zip(js, cs)} == {
                nu: c for nu, c in merged.items() if c
            }, mu
            for j in js:
                assert coset(rs, weights[j]) == cos and height(rs, weights[j]) > height(rs, mu), mu
        filed += weights
    assert sorted(filed) == sorted(dominant_sweep(rs, index.top, -1))


def test_racah_table_grows_only_above_its_top(g2, monkeypatch):
    """A division whose top the table already reaches sweeps and folds
    nothing, and leaves every row and the index as they were."""
    table = RacahTable(DominantIndex(g2))
    num = signed_orbit_sum(g2, (5, 5))
    assert dominant_divide(table, num) == _dominant_quotient(g2, num)
    rows = {cos: list(rows) for cos, rows in table.rows.items()}
    where = dict(table.index.where)

    def refuse(*args):
        raise AssertionError("a warm table was grown")

    monkeypatch.setattr(rootsystem_module, "dominant_sweep", refuse)
    monkeypatch.setattr(orbit_module, "fold", refuse)
    for k in ((2, 3), (5, 5), (1, 1)):
        num = signed_orbit_sum(g2, k)
        assert dominant_divide(table, num) == _dominant_quotient(g2, num), k
    assert {cos: list(rows) for cos, rows in table.rows.items()} == rows
    assert table.index.where == where

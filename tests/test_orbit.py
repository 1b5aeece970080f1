"""Symmetric and signed orbit sums over the Weyl group."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from weylcheb import (
    AlgebraId,
    Kind,
    LaurentPoly,
    act,
    build_root_system,
    exact_divide,
    orbit_sum,
    signed_orbit_sum,
    unit_weight,
    variable_laurents,
)
from g2_reference import SINGULAR_ELEMENT, X_LAURENT, Y_LAURENT
from reference import apply_weyl

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


def test_first_kind_variables_are_orbit_sums(g2):
    x, y = variable_laurents(g2, Kind.FIRST)
    assert x == orbit_sum(g2, (1, 0))
    assert y == orbit_sum(g2, (0, 1))
    # each fundamental weight has a stabilizer of order two
    assert x.coeff((1, 0)) == 2
    assert y.coeff((0, 1)) == 2

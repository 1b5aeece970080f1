"""Ring laws for sparse Laurent polynomials, and the reference division
the tests compare the dominant division against."""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcheb import (
    AlgebraId,
    LaurentPoly,
    NonDivisibleError,
    XYPoly,
    build_root_system,
)
import reference
from reference import apply_weyl, evaluate, exact_divide, from_json_obj, leading

exponents = st.tuples(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
)
coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
    ).filter(bool),
)
laurents = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda d: LaurentPoly(2, d)
)
nonzero_laurents = laurents.filter(bool)
laurents1 = st.dictionaries(
    st.tuples(st.integers(min_value=-4, max_value=4)), coeffs, max_size=5
).map(lambda d: LaurentPoly(1, d))


@given(a=laurents, b=laurents, c=laurents)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero(2)
    assert a * LaurentPoly.one(2) == a
    assert a + LaurentPoly.zero(2) == a


@given(a=laurents, b=nonzero_laurents)
def test_exact_divide_round_trip(a, b):
    assert exact_divide(a * b, b) == a


@given(a=laurents1, b=laurents1.filter(bool))
def test_exact_divide_round_trip_rank_one(a, b):
    assert exact_divide(a * b, b) == a


# A divisor with two or more terms is not a unit, so it cannot divide z^e.
@given(a=laurents, b=laurents.filter(lambda p: len(p) > 1), e=exponents)
def test_exact_divide_rejects_a_non_exact_division(a, b, e):
    with pytest.raises(NonDivisibleError):
        exact_divide(a * b + LaurentPoly.monomial(2, e), b)


@given(
    a=laurents1,
    b=laurents1.filter(lambda p: len(p) > 1),
    e=st.integers(min_value=-4, max_value=4),
)
def test_exact_divide_rejects_a_non_exact_division_rank_one(a, b, e):
    with pytest.raises(NonDivisibleError):
        exact_divide(a * b + LaurentPoly.monomial(1, (e,)), b)


def test_exact_divide_error_names_the_bound():
    one_plus_z = LaurentPoly(2, {(0, 0): 1, (1, 0): 1})
    z_minus_one = LaurentPoly(2, {(1, 0): 1, (0, 0): -1})
    with pytest.raises(
        NonDivisibleError, match=r"quotient exponent \(-1, 0\) lies outside the box \(0, 0\)"
    ):
        exact_divide(one_plus_z, z_minus_one)


def test_exact_divide_non_unit_leading_coefficient_rank_two():
    # (z^2 + 1) / (2z + 1) is 1/2 z - 1/4 with remainder 5/4.
    den = LaurentPoly(2, {(1, 0): 2, (0, 0): 1})
    num = LaurentPoly(2, {(2, 0): 1, (0, 0): 1})
    with pytest.raises(NonDivisibleError, match="outside the box"):
        exact_divide(num, den)
    assert exact_divide(den * num, den) == num


def test_exact_divide_error_names_the_step_cap(monkeypatch):
    monkeypatch.setattr(reference, "_DIVIDE_STEP_CAP", 2)
    one_plus_z = LaurentPoly(2, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(
        NonDivisibleError, match=r"box \(0, 0\) to \(2, 0\) has 3 positions, over the cap 2"
    ):
        exact_divide(one_plus_z * one_plus_z * one_plus_z, one_plus_z)


def test_exact_divide_errors():
    one_plus_z = LaurentPoly(2, {(0, 0): 1, (1, 0): 1})
    z_minus_one = LaurentPoly(2, {(1, 0): 1, (0, 0): -1})
    with pytest.raises(NonDivisibleError):
        exact_divide(one_plus_z, z_minus_one)
    with pytest.raises(ZeroDivisionError):
        exact_divide(LaurentPoly.one(2), LaurentPoly.zero(2))
    assert exact_divide(LaurentPoly.zero(2), one_plus_z) == LaurentPoly.zero(2)


@given(a=laurents, b=laurents, theta=st.floats(min_value=0.0, max_value=1.0))
def test_evaluate_is_ring_homomorphism(a, b, theta):
    point = (cmath.exp(2j * math.pi * theta), cmath.exp(1j * math.pi * theta))
    left = evaluate(a * b, point)
    right = evaluate(a, point) * evaluate(b, point)
    assert abs(left - right) < 1e-9


def test_evaluate_rejects_zero_coordinate():
    p = LaurentPoly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        evaluate(p, (0.0, 1.0))


@given(a=laurents, b=laurents)
def test_apply_weyl_is_ring_automorphism(a, b):
    rs = build_root_system(AlgebraId.G2)
    for w in rs.elements:
        assert apply_weyl(a * b, rs, w) == apply_weyl(a, rs, w) * apply_weyl(b, rs, w)
        assert apply_weyl(a + b, rs, w) == apply_weyl(a, rs, w) + apply_weyl(b, rs, w)


@given(a=laurents)
def test_apply_weyl_round_trip(a):
    rs = build_root_system(AlgebraId.G2)
    by_matrix = {w.matrix: w for w in rs.elements}

    def matmul(u, v):
        return tuple(
            tuple(sum(u[i][k] * v[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    ident = ((1, 0), (0, 1))
    for w in rs.elements:
        inverse = next(
            v for v in rs.elements if matmul(w.matrix, v.matrix) == ident
        )
        assert apply_weyl(apply_weyl(a, rs, w), rs, inverse) == a
    assert apply_weyl(a, rs, by_matrix[ident]) == a


@given(a=laurents)
def test_json_round_trip(a):
    obj = a.to_json_obj()
    assert from_json_obj(LaurentPoly, 2, obj) == a
    for rec in obj:
        # decimal-free rational strings
        assert "." not in rec["coeff"]


def test_terms_sorted_lexicographically():
    p = LaurentPoly(2, {(1, -1): 2, (1, 0): 3, (-2, 5): 1, (0, 0): 7})
    exps = [e for e, _ in p.terms()]
    assert exps == sorted(exps, reverse=True)
    assert leading(p)[0] == (1, 0)
    assert p.coeff((1, -1)) == 2
    assert p.coeff((9, 9)) == 0


def test_arithmetic_rejects_mismatched_operands():
    ops = (operator.add, operator.sub, operator.mul)
    for cls in (LaurentPoly, XYPoly):
        rank2, rank1 = cls(2, {(1, 0): 1}), cls(1, {(1,): 1})
        for op in ops:
            with pytest.raises(ValueError, match="rank mismatch"):
                op(rank2, rank1)
    lp, xy = LaurentPoly(2, {(1, 0): 1}), XYPoly(2, {(1, 0): 1})
    for op in ops:
        with pytest.raises(TypeError):
            op(lp, xy)
        with pytest.raises(TypeError):
            op(xy, lp)
    assert not lp == xy
    assert lp != xy


def test_a_key_of_the_wrong_rank_is_refused_and_a_poly_is_immutable():
    with pytest.raises(ValueError, match="exponent rank mismatch"):
        LaurentPoly(2, {(1,): 1})
    with pytest.raises(ValueError, match="degree rank mismatch"):
        XYPoly(1, {(1, 0): 1})
    poly = LaurentPoly.one(2)
    with pytest.raises(AttributeError, match="LaurentPoly is immutable"):
        poly.rank = 1
    assert poly.rank == 2


def test_scaling_by_zero_gives_zero():
    poly = LaurentPoly(2, {(1, -1): 3, (0, 2): Fraction(1, 2)})
    assert poly.scale(0) == LaurentPoly.zero(2)
    assert poly.scale(Fraction(0)) == LaurentPoly.zero(2)


def test_repr_shows_the_terms_in_canonical_order():
    assert repr(LaurentPoly.zero(2)) == "LaurentPoly(0)"
    two = LaurentPoly(2, {(-1, 2): -3, (1, 0): 2})
    assert repr(two) == "LaurentPoly(2*z^(1, 0) + -3*z^(-1, 2))"

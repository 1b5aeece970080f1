"""Floating-point verification layer and the exact dimension check."""

from __future__ import annotations

import cmath
import dataclasses
import math
import random

import pytest

from weylcheb import (
    AllPointsSingularError,
    AnglePoint,
    Kind,
    LaurentPoly,
    VerificationReport,
    XYPoly,
    build_basis,
    dimension_check,
    numeric,
    verify_ratio,
    weyl_dimension,
)
from g2_reference import DIMENSIONS

# first sample of this seed lands within the singular cutoff for A1
SINGULAR_SEED = 585832


def eval_vars(basis, *angles):
    """Variable values at the torus point with these angles."""
    z = tuple(cmath.exp(2j * math.pi * a) for a in angles)
    return tuple(v.evaluate(z) for v in basis.var_laurents)


def test_eval_vars_at_origin(g2_second):
    x, y = eval_vars(g2_second, 0.0, 0.0)
    assert abs(x - 7) < 1e-9
    assert abs(y - 14) < 1e-9


def test_eval_vars_quarter_turn_a1(a1_second):
    (value,) = eval_vars(a1_second, 0.25)
    assert abs(value) < 1e-12


def test_eval_vars_realness(g2_second):
    # Weyl symmetry pairs every exponential with its inverse.
    rng = random.Random(20817)
    for _ in range(1000):
        for v in eval_vars(g2_second, rng.random(), rng.random()):
            assert abs(v.imag) < 1e-12


def test_ratio_identity_over_low_indices(g2, g2_second):
    total_skipped = 0
    total_samples = 0
    for m in range(11):
        for n in range(11 - m):
            report = verify_ratio(g2, g2_second, m, n)
            assert report.passed, (m, n, report.max_abs_error)
            assert report.max_abs_error < 1e-8
            assert report.worst_point is not None
            total_skipped += report.skipped
            total_samples += report.samples
    # near-singular points are rare under uniform sampling
    assert total_skipped < 0.05 * total_samples


def test_ratio_identity_rank_one(a1, a1_second):
    report = verify_ratio(a1, a1_second, 7)
    assert report.passed
    assert report.max_abs_error < 1e-8


def test_ratio_detects_wrong_polynomial(g2, g2_second):
    report = verify_ratio(
        g2, g2_second, 1, 0, poly=XYPoly.constant(2, 5), num_samples=20
    )
    assert not report.passed
    assert report.max_abs_error > 1.0


def test_ratio_deterministic_for_fixed_seed(g2, g2_second):
    first = verify_ratio(g2, g2_second, 2, 1, seed=7)
    second = verify_ratio(g2, g2_second, 2, 1, seed=7)
    assert first == second
    assert first.samples == 100


def test_singular_samples_are_skipped(a1, a1_second):
    report = verify_ratio(a1, a1_second, 2, num_samples=100, seed=SINGULAR_SEED)
    assert report.skipped >= 1
    assert report.passed


def test_all_points_singular(a1, a1_second):
    with pytest.raises(AllPointsSingularError):
        verify_ratio(a1, a1_second, 2, num_samples=1, seed=SINGULAR_SEED)


def test_argument_guards(g2, g2_second, g2_first):
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, 1, 0, num_samples=0)
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, 1, 0, tol=0.0)
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, 1, 0, tol=float("nan"))
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, 1, 0, tol=float("inf"))
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, -1, 0)
    with pytest.raises(ValueError):
        dimension_check(g2, g2_first, 1, 0)
    for poly in (None, XYPoly.variable(2, 0)):
        with pytest.raises(ValueError, match="second-kind basis"):
            verify_ratio(g2, g2_first, 1, 0, num_samples=20, seed=7, poly=poly)
    assert g2_first._torus_samples == {}


def test_rank_one_rejects_a_second_index(a1, a1_second):
    with pytest.raises(ValueError, match="rank-1"):
        verify_ratio(a1, a1_second, 3, 5)
    with pytest.raises(ValueError, match="rank-1"):
        dimension_check(a1, a1_second, 3, 7)


# (index, seed, sample count) in an order that revisits and alternates keys
_CALLS = [
    ((2, 1), 7, 40),
    ((0, 3), 7, 40),
    ((2, 1), 8, 40),
    ((1, 1), 7, 30),
    ((2, 1), 7, 40),
    ((3, 0), 8, 40),
    ((1, 1), 7, 30),
]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_reused_basis_reports_equal_fresh_ones(g2, order):
    shared = build_basis(g2, Kind.SECOND)
    for index, seed, count in _CALLS[::order]:
        fresh = build_basis(g2, Kind.SECOND)
        want = verify_ratio(g2, fresh, *index, num_samples=count, seed=seed)
        got = verify_ratio(g2, shared, *index, num_samples=count, seed=seed)
        assert got == want, (index, seed, count)


def test_sample_keys_do_not_collide(g2, a1):
    basis = build_basis(g2, Kind.SECOND)
    by_seed = [
        verify_ratio(g2, basis, 2, 1, num_samples=40, seed=seed) for seed in (7, 8)
    ]
    assert by_seed[0].worst_point != by_seed[1].worst_point
    by_count = [
        numeric._torus_samples(basis, 7, count) for count in (30, 40, 30)
    ]
    assert [len(s.used) + s.skipped for s in by_count] == [30, 40, 30]
    # This seed's first A1 sample is singular: alone it is all the samples,
    # among 100 it is one skip.
    a1_basis = build_basis(a1, Kind.SECOND)
    verify_ratio(a1, a1_basis, 2, num_samples=100, seed=SINGULAR_SEED)
    with pytest.raises(AllPointsSingularError):
        verify_ratio(a1, a1_basis, 2, num_samples=1, seed=SINGULAR_SEED)
    verify_ratio(a1, a1_basis, 2, num_samples=1, seed=7)
    with pytest.raises(AllPointsSingularError):
        verify_ratio(a1, a1_basis, 3, num_samples=1, seed=SINGULAR_SEED)


def test_samples_are_drawn_once_per_key(g2, monkeypatch):
    calls = []
    original = numeric._FixedPoint.eval

    def counting(self, laurent):
        calls.append(laurent)
        return original(self, laurent)

    monkeypatch.setattr(numeric._FixedPoint, "eval", counting)
    basis = build_basis(g2, Kind.SECOND)
    for index in ((0, 0), (1, 2), (2, 1)):
        report = verify_ratio(g2, basis, *index, num_samples=50, seed=7)
        assert report.skipped == 0
    # Denominator and both variables at the first call, numerators at each.
    assert len(calls) == 50 * 3 + 50 * 3


def test_not_real_variables_raise_on_every_call(g2, g2_second):
    verify_ratio(g2, g2_second, 1, 0, num_samples=20, seed=3)
    var_x = LaurentPoly(2, {(1, 0): 1})
    bad = dataclasses.replace(
        g2_second, var_laurents=(var_x, g2_second.var_laurents[1])
    )
    assert bad._torus_samples == {} and bad._power_cache == {}
    one = XYPoly.constant(2, 1)
    for index in ((1, 0), (1, 0), (0, 2)):
        with pytest.raises(ArithmeticError, match="not real"):
            verify_ratio(g2, bad, *index, num_samples=20, seed=3, poly=one)
        assert bad._torus_samples == {}


def test_dimension_check_uses_a_given_polynomial(g2, g2_second):
    assert dimension_check(g2, g2_second, 1, 1, poly=XYPoly.constant(2, 5)) == (5, 64)


def test_report_passed_property():
    report = VerificationReport(
        samples=10, max_abs_error=1e-9, worst_point=AnglePoint(0.5), skipped=0,
        tol=1e-8,
    )
    assert report.passed
    failed = VerificationReport(
        samples=10, max_abs_error=1e-7, worst_point=AnglePoint(0.5), skipped=0,
        tol=1e-8,
    )
    assert not failed.passed


def test_weyl_dimension_oracle(g2, a2, c2):
    for index, want in DIMENSIONS.items():
        assert weyl_dimension(g2, index) == want
    # Each algebra's root lengths enter through its positive coroots.
    indices = [(1, 0), (0, 1), (1, 1), (2, 0)]
    for rs, wants in [(a2, [3, 3, 8, 6]), (c2, [4, 5, 16, 10])]:
        assert [weyl_dimension(rs, index) for index in indices] == wants


def test_dimension_check_grid(g2, g2_second):
    for m in range(9):
        for n in range(9):
            left, right = dimension_check(g2, g2_second, m, n)
            assert left == right
    assert dimension_check(g2, g2_second, 0, 0) == (1, 1)
    assert dimension_check(g2, g2_second, 1, 0) == (7, 7)
    assert dimension_check(g2, g2_second, 0, 1) == (14, 14)
    assert dimension_check(g2, g2_second, 1, 1) == (64, 64)


def test_dimension_check_rank_one(a1, a1_second):
    # m-th second-kind polynomial tracks an (m+1)-dimensional representation
    for m in range(7):
        assert dimension_check(a1, a1_second, m) == (m + 1, m + 1)

"""Floating-point verification layer and the exact dimension check."""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from weylcheb import (
    AlgebraId,
    AllPointsSingularError,
    AnglePoint,
    Kind,
    LaurentPoly,
    VerificationReport,
    XYPoly,
    build_basis,
    build_root_system,
    dimension_check,
    numeric,
    verify_ratio,
    weyl_dimension,
)
from g2_reference import DIMENSIONS
from reference import evaluate, fixed_value, power_chains
from weylcheb.rootsystem import index_box

# first sample of this seed lands within the singular cutoff for A1
SINGULAR_SEED = 585832


def eval_vars(basis, *angles):
    """Variable values at the torus point with these angles."""
    z = tuple(cmath.exp(2j * math.pi * a) for a in angles)
    return tuple(evaluate(v, z) for v in basis.var_laurents)


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
    indices = [(m, n) for m in range(11) for n in range(11 - m)]
    run = numeric.sample_numerators(
        g2, g2_second, indices, num_samples=100, seed=numeric.DEFAULT_SEED
    )
    for (m, n), sampled in zip(indices, run):
        report = verify_ratio(g2, g2_second, m, n, sampled=sampled)
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


def test_ratio_detects_wrong_polynomial(g2):
    basis = build_basis(g2, Kind.SECOND)
    basis._polys[(1, 0)] = XYPoly.constant(2, 5)
    report = verify_ratio(g2, basis, 1, 0, num_samples=20)
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
    # raised when the run is created, not when it is first read
    with pytest.raises(AllPointsSingularError):
        numeric.sample_numerators(a1, a1_second, [(2,)], num_samples=1, seed=SINGULAR_SEED)


def counting_draws(monkeypatch) -> list:
    """Patch ``numeric._draw_samples`` to record each draw's (seed, count)."""
    draws, draw = [], numeric._draw_samples

    def counting_draw(basis, seed, num_samples):
        draws.append((seed, num_samples))
        return draw(basis, seed, num_samples)

    monkeypatch.setattr(numeric, "_draw_samples", counting_draw)
    return draws


def test_argument_guards(g2, g2_second, g2_first, monkeypatch):
    draws = counting_draws(monkeypatch)
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, 1, 0, num_samples=0)
    for num_samples in (True, 2.5):
        with pytest.raises(ValueError, match="num_samples"):
            verify_ratio(g2, g2_second, 1, 0, num_samples=num_samples)
    for seed in (None, True, 2.5):
        with pytest.raises(ValueError, match="seed"):
            verify_ratio(g2, g2_second, 1, 0, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            numeric.sample_numerators(g2, g2_second, [(1, 0)], num_samples=20, seed=seed)
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, 1, 0, tol=0.0)
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, 1, 0, tol=float("nan"))
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, 1, 0, tol=float("inf"))
    with pytest.raises(ValueError):
        verify_ratio(g2, g2_second, -1, 0)
    cached = dataclasses.replace(g2_first)
    cached._polys[(1, 0)] = XYPoly(2, {(1, 0): 1})
    for basis in (g2_first, cached):
        with pytest.raises(ValueError, match="second-kind basis"):
            verify_ratio(g2, basis, 1, 0, num_samples=20, seed=7)
        with pytest.raises(ValueError, match="dimension_check needs a second-kind basis"):
            dimension_check(g2, basis, 1, 0)
    with pytest.raises(ValueError, match="second-kind basis"):
        numeric.sample_numerators(g2, g2_first, [(1, 0)], num_samples=20, seed=7)
    for indices, num_samples in (([(1, 0), (-1, 0)], 20), ([(1, 0)], 0)):
        with pytest.raises(ValueError):
            numeric.sample_numerators(g2, g2_second, indices, num_samples=num_samples, seed=7)
    # every guard raises before anything is drawn
    assert draws == []


def test_a_record_of_another_run_is_refused(g2):
    basis = build_basis(g2, Kind.SECOND)
    (record,) = numeric.sample_numerators(g2, basis, [(2, 1)], num_samples=40, seed=7)
    fresh = verify_ratio(g2, build_basis(g2, Kind.SECOND), 2, 1, num_samples=40, seed=7)
    assert verify_ratio(g2, basis, 2, 1, num_samples=40, seed=7, sampled=record) == fresh
    (default,) = numeric.sample_numerators(
        g2, basis, [(0, 1)], num_samples=5, seed=numeric.DEFAULT_SEED
    )
    assert verify_ratio(g2, basis, 0, 1, num_samples=5, sampled=default).passed
    other = dataclasses.replace(
        basis, var_laurents=(basis.var_laurents[0], LaurentPoly(2, {(0, 1): 1}))
    )
    for run_basis, seed, count, index in [
        (other, 7, 40, (2, 1)),
        (basis, 8, 40, (2, 1)),
        (basis, 7, 30, (2, 1)),
        (basis, 7, 40, (1, 2)),
    ]:
        with pytest.raises(ValueError, match="cannot verify") as refused:
            verify_ratio(g2, run_basis, *index, num_samples=count, seed=seed, sampled=record)
        for b, s, n, i in (record.key, (run_basis, seed, count, index)):
            assert f"basis {id(b):#x}, seed {s}, {n} samples, index {i}" in str(refused.value)


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
        next(numeric.sample_numerators(g2, basis, [(2, 1)], num_samples=count, seed=7)).samples
        for count in (30, 40, 30)
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


def verify_in_blocks(rs, basis, indices, num_samples, seed, cap):
    """Reports of ``indices`` checked as the command line checks a box, by
    one run holding at most ``cap`` numerator values (or one index's) at a
    time; with the most values one block held."""
    blocks = []
    numerator_values = numeric._numerator_values

    def recording(rs, samples, block):
        blocks.append(len(block) * len(samples.used))
        return numerator_values(rs, samples, block)

    with mock.patch.object(numeric, "_MAX_HELD_VALUES", cap), mock.patch.object(
        numeric, "_numerator_values", recording
    ):
        run = numeric.sample_numerators(rs, basis, indices, num_samples=num_samples, seed=seed)
        reports = [
            verify_ratio(rs, basis, *index, num_samples=num_samples, seed=seed, sampled=sampled)
            for index, sampled in zip(indices, run)
        ]
    return reports, max(blocks)


def test_samples_are_drawn_once_per_key(g2, monkeypatch):
    # The draw builds one power chain per point.  After it, each used point
    # gets one chain per block of indices, reaching every numerator in the
    # block: used x ceil(indices / block) builds.
    chains = []
    power_chains = numeric._power_chains

    def counting_chains(axes, extents):
        chains.append(axes)
        return power_chains(axes, extents)

    draws = counting_draws(monkeypatch)
    monkeypatch.setattr(numeric, "_power_chains", counting_chains)
    indices = [(0, 0), (1, 2), (2, 1)]
    basis = build_basis(g2, Kind.SECOND)
    # verify_ratio alone is a run over its one index: it draws every call
    for index in indices:
        report = verify_ratio(g2, basis, *index, num_samples=50, seed=7)
        assert report.skipped == 0
    assert draws == [(7, 50)] * 3
    assert len(chains) == 3 * (50 + 50)
    # one block of three, blocks of two and one, and blocks of one index
    for cap, blocks in ((150, 1), (100, 2), (49, 3)):
        chains.clear()
        draws.clear()
        reports, most = verify_in_blocks(g2, basis, indices, 50, 7, cap)
        assert draws == [(7, 50)]
        assert len(chains) == 50 + 50 * blocks, cap
        assert most <= max(cap, 50)
    # a run with a new key draws for it, once
    draws.clear()
    verify_in_blocks(g2, basis, indices, 40, 7, 10**6)
    assert draws == [(7, 40)]


@st.composite
def _planned_points(draw):
    """A Laurent polynomial with +1, -1 and larger coefficients, and a
    torus point of its rank: z = 1, -1, i or a random angle per axis."""
    rank = draw(st.integers(1, 2))
    angle = st.one_of(st.sampled_from([0.0, 0.5, 0.25]), st.floats(0, 1, exclude_max=True))
    coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-10**6, 10**6).filter(bool))
    exps = st.tuples(*[st.integers(-12, 12)] * rank)
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=16))
    return LaurentPoly(rank, terms), AnglePoint(*draw(st.tuples(*[angle] * rank)))


@given(_planned_points())
@example((LaurentPoly(2, {(3, -2): 1, (-4, 5): -1, (0, 0): 2}), AnglePoint(0.25, 0.5)))
@example((LaurentPoly(2, {(7, 7): -10**6, (-9, 1): 1}), AnglePoint(0.0, 0.25)))
@example((LaurentPoly(1, {(5,): 1, (-5,): -1, (0,): 3}), AnglePoint(0.5)))
@example((LaurentPoly(1, {(-12,): -10**6}), AnglePoint(0.1234567)))
def test_the_three_multiply_kernel_gives_the_four_multiply_integers(case):
    """Chains stepped by three multiplications and plans summed with three
    per rank-2 term give the integers of the four-multiply reference."""
    laurent, point = case
    axes = numeric._fixed_axes(point, laurent.rank)
    extents, (plan,) = numeric._plans([laurent])
    plus, minus, others = plan
    assert {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1), **dict(others)} == laurent._terms
    assert len(plus) + len(minus) + len(others) == len(laurent._terms)
    assert all(c * c != 1 for _, c in others)
    chains, want = numeric._power_chains(axes, extents), power_chains(axes, extents)
    for axis, (chain, want_chain) in enumerate(zip(chains, want)):
        assert chain == [(r, i - r if axis else i, r + i) for r, i in want_chain]
    assert numeric._planned_value(chains, plan) == fixed_value(want, laurent)


def test_a_verify_sampling_pass_makes_128400_complex_products(g2, monkeypatch):
    """The G2 4x4, 300-sample, seed-7 run, counted from chain lengths and
    plan sizes: each chain entry past z^0 is one step and each planned
    rank-2 term one product, three integer multiplications each, and a
    term outside the +1 and -1 lists takes two more for its coefficient.
    The four-multiply kernel took 4 x 128400 + 2 x 99600 = 712800."""
    steps, terms, others = [], [], []
    power_chains_of, planned_value = numeric._power_chains, numeric._planned_value

    def counting_chains(axes, extents):
        chains = power_chains_of(axes, extents)
        steps.append(sum(len(chain) - 1 for chain in chains))
        return chains

    def counting_value(chains, plan):
        terms.append(sum(map(len, plan)))
        others.append(len(plan[2]))
        return planned_value(chains, plan)

    monkeypatch.setattr(numeric, "_power_chains", counting_chains)
    monkeypatch.setattr(numeric, "_planned_value", counting_value)
    basis = build_basis(g2, Kind.SECOND)
    run = numeric.sample_numerators(g2, basis, index_box(2, 4, 4), num_samples=300, seed=7)
    assert sum(len(sampled.values) for sampled in run) == 25 * 300
    assert (sum(steps), sum(terms)) == (28800, 99600)
    assert 3 * (sum(steps) + sum(terms)) + 2 * sum(others) == 385800


@pytest.mark.parametrize(
    "algebra, bound", [(AlgebraId.A1, 40), (AlgebraId.C2, 12), (AlgebraId.G2, 12)]
)
def test_numerator_plans_hold_only_unit_terms(algebra, bound, monkeypatch):
    """A_rho and every numerator A_{lambda+rho} of a box have coefficients
    +1 and -1 only, so no term is multiplied by a coefficient."""
    made = []
    plans = numeric._plans

    def recording(laurents):
        extents, planned = plans(laurents)
        made.append(planned)
        return extents, planned

    monkeypatch.setattr(numeric, "_plans", recording)
    rs = build_root_system(algebra)
    indices = index_box(rs.rank, bound, bound if rs.rank == 2 else None)
    basis = build_basis(rs, Kind.SECOND)
    run = numeric.sample_numerators(rs, basis, indices, num_samples=1, seed=7)
    assert len(list(run)) == len(indices)
    (denominator, *_), *blocks = made
    numerators = [plan for block in blocks for plan in block]
    assert len(numerators) == len(indices)
    assert [plan for plan in [denominator, *numerators] if plan[2]] == []


_BOX_BOUNDS = {AlgebraId.A1: 9, AlgebraId.C2: 4, AlgebraId.G2: 3}
_FRESH_REPORTS: dict = {}


def _fresh_report(algebra, index, num_samples, seed):
    """verify_ratio on a fresh basis, or the exception it raises."""
    key = (algebra, index, num_samples, seed)
    if key not in _FRESH_REPORTS:
        rs = build_root_system(algebra)
        try:
            _FRESH_REPORTS[key] = verify_ratio(
                rs, build_basis(rs, Kind.SECOND), *index, num_samples=num_samples, seed=seed
            )
        except AllPointsSingularError as exc:
            _FRESH_REPORTS[key] = exc
    return _FRESH_REPORTS[key]


@st.composite
def _block_runs(draw):
    algebra = draw(st.sampled_from(sorted(_BOX_BOUNDS, key=lambda a: a.value)))
    rank = 1 if algebra is AlgebraId.A1 else 2
    coordinate = st.integers(0, _BOX_BOUNDS[algebra])
    indices = draw(st.lists(st.tuples(*[coordinate] * rank), min_size=1, max_size=8, unique=True))
    num_samples = draw(st.integers(1, 12))
    seed = draw(st.sampled_from([3, 7, SINGULAR_SEED]))
    cap = draw(st.integers(1, num_samples * (len(indices) + 1)))
    return algebra, indices, num_samples, seed, cap


@given(_block_runs())
@example((AlgebraId.G2, [(1, 0), (0, 0), (2, 2), (0, 1)], 10, 7, 1))
@example((AlgebraId.G2, [(3, 3), (0, 0), (1, 2), (2, 1), (0, 3)], 10, 7, 20))
@example((AlgebraId.C2, [(4, 4), (0, 0), (4, 0)], 12, 3, 35))
@example((AlgebraId.A1, [(9,), (2,), (0,), (5,)], 8, SINGULAR_SEED, 14))
@example((AlgebraId.A1, [(3,), (1,)], 1, SINGULAR_SEED, 2))
def test_filling_in_chunks_reports_what_one_index_at_a_time_does(run):
    algebra, indices, num_samples, seed, cap = run
    rs = build_root_system(algebra)
    basis = build_basis(rs, Kind.SECOND)
    want = [_fresh_report(algebra, index, num_samples, seed) for index in indices]
    if isinstance(want[0], AllPointsSingularError):
        with pytest.raises(AllPointsSingularError):
            verify_in_blocks(rs, basis, indices, num_samples, seed, cap)
        return
    got, most = verify_in_blocks(rs, basis, indices, num_samples, seed, cap)
    assert got == want
    # a block holds at most the cap, or one index's values
    assert most <= max(cap, num_samples)


def test_not_real_variables_raise_on_every_call(g2, g2_second, monkeypatch):
    verify_ratio(g2, g2_second, 1, 0, num_samples=20, seed=3)
    var_x = LaurentPoly(2, {(1, 0): 1})
    bad = dataclasses.replace(
        g2_second, var_laurents=(var_x, g2_second.var_laurents[1])
    )
    assert bad._power_cache == {}
    draws = counting_draws(monkeypatch)
    for index in ((1, 0), (1, 0), (0, 2)):
        with pytest.raises(ArithmeticError, match="not real"):
            verify_ratio(g2, bad, *index, num_samples=20, seed=3)
        with pytest.raises(ArithmeticError, match="not real"):
            numeric.sample_numerators(g2, bad, [index], num_samples=20, seed=3)
    # each call drew afresh and raised before a polynomial was computed
    assert draws == [(3, 20)] * 6
    assert bad._polys == {}


def test_dimension_check_uses_the_cached_polynomial(g2):
    basis = build_basis(g2, Kind.SECOND)
    basis._polys[(1, 1)] = XYPoly.constant(2, 5)
    assert dimension_check(g2, basis, 1, 1) == (5, 64)


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
    # Negative weights are in the domain; non-int and bool entries are not.
    assert weyl_dimension(a2, (-1, 0)) == 0
    for index in [(2.0, 0), (1, True), (0,)]:
        with pytest.raises(ValueError, match="rank-2"):
            weyl_dimension(g2, index)


# Grid bound and known dimensions per algebra.
_DIMENSION_GRIDS = {
    AlgebraId.A2: (6, {(0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 8}),
    AlgebraId.C2: (6, {(0, 0): 1, (1, 0): 4, (0, 1): 5, (1, 1): 16}),
    AlgebraId.G2: (8, {(0, 0): 1, (1, 0): 7, (0, 1): 14, (1, 1): 64}),
}


def test_dimension_check_grid():
    for algebra, (bound, known) in _DIMENSION_GRIDS.items():
        rs = build_root_system(algebra)
        basis = build_basis(rs, Kind.SECOND)
        for m in range(bound + 1):
            for n in range(bound + 1):
                left, right = dimension_check(rs, basis, m, n)
                assert left == right, (algebra, m, n)
        for index, dim in known.items():
            assert dimension_check(rs, basis, *index) == (dim, dim), (algebra, index)


def test_dimension_check_rank_one(a1, a1_second):
    # m-th second-kind polynomial tracks an (m+1)-dimensional representation
    for m in range(7):
        assert dimension_check(a1, a1_second, m) == (m + 1, m + 1)


def test_dimension_check_rejects_a_non_integral_value(g2):
    basis = build_basis(g2, Kind.SECOND)
    basis._polys[(1, 1)] = XYPoly.constant(2, Fraction(1, 2))
    with pytest.raises(ArithmeticError, match="not integral"):
        dimension_check(g2, basis, 1, 1)


_coeffs = st.one_of(
    st.integers(-10**12, 10**12),
    st.fractions(max_denominator=10**6).filter(lambda c: c.denominator != 1),
)


@given(
    rank=st.integers(1, 2),
    terms=st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 8)), _coeffs, max_size=12
    ),
    nums=st.tuples(*[st.integers(-(16 << 96), 16 << 96)] * 2),
)
@example(rank=2, terms={}, nums=(1 << 96, 3))
@example(rank=2, terms={(3, 1): -7, (0, 0): 2}, nums=(5 << 95, -(1 << 94)))
@example(rank=1, terms={(2, 0): Fraction(1, 3), (0, 0): Fraction(-5, 7)}, nums=(3 << 96, 0))
def test_scaled_evaluator_is_the_exact_value_rounded_once(rank, terms, nums):
    poly = XYPoly(rank, {deg[:rank]: c for deg, c in terms.items()})
    nums = nums[:rank]
    exact = evaluate(poly, tuple(Fraction(n, 1 << 96) for n in nums))
    evaluator, denominator = numeric._scaled_evaluator(poly, 96)
    assert evaluator(nums) / denominator == float(exact)


def test_a_non_integral_dimension_is_refused(g2):
    """Coroots that are not the root system's own give a quotient that is
    not an integer, which the formula refuses rather than truncates."""
    bent = dataclasses.replace(g2, positive_coroots=((2, 1),))
    with pytest.raises(ArithmeticError, match="dimension did not come out integral"):
        weyl_dimension(bent, (1, 0))

"""Weyl group construction: closure, orders, signs, chamber geometry."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from weylcheb import (
    AlgebraId,
    Kind,
    XYPoly,
    act,
    build_basis,
    build_root_system,
    coefficient_trace,
    dimension_check,
    first_kind_poly,
    normalize_index,
    numeric,
    poly_via_recurrence,
    second_kind_poly,
    verify_ratio,
    weyl_dimension,
)
from weylcheb import rootsystem
from weylcheb.rootsystem import (
    act_all, check_index, check_weight, coset, dominant_sweep, fold, height, stabilizer_order,
)
from g2_reference import NEGATIVE_DET_WORDS
from reference import dominant_representative, is_dominant, orbit_points, weyl_image

ALL_ALGEBRAS = [AlgebraId.A1, AlgebraId.A2, AlgebraId.C2, AlgebraId.G2]
ORDERS = {AlgebraId.A1: 2, AlgebraId.A2: 6, AlgebraId.C2: 8, AlgebraId.G2: 12}


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_group_order(algebra):
    rs = build_root_system(algebra)
    assert len(rs.elements) == ORDERS[algebra]
    # matrices are pairwise distinct
    assert len({w.matrix for w in rs.elements}) == ORDERS[algebra]


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_closure_and_det_homomorphism(algebra):
    rs = build_root_system(algebra)
    by_matrix = {w.matrix: w for w in rs.elements}

    def matmul(a, b):
        d = len(a)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
            for i in range(d)
        )

    for u in rs.elements:
        for v in rs.elements:
            prod = matmul(u.matrix, v.matrix)
            assert prod in by_matrix
            assert by_matrix[prod].det == u.det * v.det


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_generator_involution(algebra):
    rs = build_root_system(algebra)
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(rs.rank)) for i in range(rs.rank)
    )
    for w in rs.generators:
        squared = tuple(
            tuple(
                sum(w.matrix[i][k] * w.matrix[k][j] for k in range(rs.rank))
                for j in range(rs.rank)
            )
            for i in range(rs.rank)
        )
        assert squared == ident


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_det_matches_word_parity(algebra):
    rs = build_root_system(algebra)
    for w in rs.elements:
        assert w.det == (-1) ** len(w.word)


def test_g2_negative_det_words(g2):
    words = {w.word for w in g2.elements if w.det == -1}
    assert words == NEGATIVE_DET_WORDS


def test_rho_and_positive_roots(g2, c2, a2, a1):
    for rs, count in [(a1, 1), (a2, 3), (c2, 4), (g2, 6)]:
        coroots = rs.positive_coroots
        # at rank <= 2 the reflections are exactly the det = -1 elements
        assert len(coroots) == count == sum(w.det == -1 for w in rs.elements)
        for coroot in coroots:
            assert sum(c * r for c, r in zip(coroot, rs.rho)) > 0
        # every simple root has height <alpha_i, 2 rho^v> = 2
        two_rho_check = [sum(column) for column in zip(*coroots)]
        for alpha in rs.cartan:
            assert sum(a * h for a, h in zip(alpha, two_rho_check)) == 2


def test_act_examples(g2):
    w1 = next(w for w in g2.elements if w.word == (1,))
    assert act(g2, w1, (1, 0)) == (-1, 1)
    assert act(g2, w1, (-1, 1)) == (1, 0)
    ident = next(w for w in g2.elements if w.word == ())
    assert act(g2, ident, (3, -2)) == (3, -2)


def _reaches(rs, mu, sign, nu):
    """Whether a group element of determinant ``sign`` sends ``mu`` to ``nu``:
    true of the walk ``fold`` takes, on a wall too."""
    return any(act(rs, w, mu) == nu and w.det == sign for w in rs.elements)


def test_fold_examples(g2):
    assert fold(g2, (-1, 1)) == (-1, (1, 0))
    assert fold(g2, (1, 1)) == (1, (1, 1))
    assert fold(g2, (0, -1))[1] == (0, 1)
    assert fold(g2, (1, -3)) == (-1, (1, 2))
    assert fold(g2, (-2, -1)) == (1, (2, 1))


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_fold_matches_the_group_scan(algebra):
    """The descent lands where the scan of all |W| elements does, and off
    the walls its sign is the determinant of the scan's witness."""
    rs = build_root_system(algebra)
    for mu in product(range(-6, 7), repeat=rs.rank):
        sign, nu = fold(rs, mu)
        w, want = dominant_representative(rs, mu)
        assert nu == want, mu
        if min(nu) > 0:
            assert sign == w.det, mu


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_orbit_meets_chamber_once(algebra):
    rs = build_root_system(algebra)
    span = range(-4, 5)
    weights = (
        [(a,) for a in span]
        if rs.rank == 1
        else [(a, b) for a in span for b in span]
    )
    for mu in weights:
        orbit = {act(rs, w, mu) for w in rs.elements}
        dominant = [nu for nu in orbit if is_dominant(nu)]
        assert len(dominant) == 1
        sign, nu = fold(rs, mu)
        assert nu == dominant[0]
        assert _reaches(rs, mu, sign, nu)


@given(
    mu=st.tuples(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
    )
)
def test_fold_random(mu):
    rs = build_root_system(AlgebraId.G2)
    sign, nu = fold(rs, mu)
    assert is_dominant(nu)
    assert _reaches(rs, mu, sign, nu)


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_act_all_matches_act(algebra):
    """Both actions agree with the plain matrix product, weight by weight."""
    rs = build_root_system(algebra)
    span = range(-3, 4)
    weights = [(a,) for a in span] if rs.rank == 1 else [(a, b) for a in span for b in span]
    for w in rs.elements:
        expected = [weyl_image(w, mu) for mu in weights]
        assert act_all(rs, w, weights) == expected, w.word
        assert [act(rs, w, mu) for mu in weights] == expected, w.word
    w = rs.elements[1]
    with pytest.raises(ValueError, match="out of supported range"):
        act_all(rs, w, [(2**31,) + (0,) * (rs.rank - 1)])
    with pytest.raises(ValueError, match="rank mismatch"):
        act_all(rs, w, [(0,) * (rs.rank + 1)])


@pytest.mark.parametrize(
    "algebra, index",
    [
        (AlgebraId.A1, (1, 0)),
        (AlgebraId.A1, (-1,)),
        (AlgebraId.G2, (1,)),
        (AlgebraId.G2, (-1, 0)),
        (AlgebraId.A1, (2.0,)),
        (AlgebraId.G2, (1.5, 0)),
        (AlgebraId.A1, (True,)),
        (AlgebraId.G2, (0, False)),
    ],
    ids=[
        "a1-arity", "a1-negative", "g2-arity", "g2-negative", "a1-float", "g2-float",
        "a1-bool", "g2-bool",
    ],
)
def test_every_entry_point_raises_the_check_index_error(algebra, index, monkeypatch):
    drawn = []
    monkeypatch.setattr(numeric, "_draw_samples", lambda *args: drawn.append(args))
    rs = build_root_system(algebra)
    second = build_basis(rs, Kind.SECOND)
    first = build_basis(rs, Kind.FIRST)
    # a cached polynomial at the bad index must not get past the check
    second._polys[tuple(index)] = XYPoly.constant(rs.rank, 1)
    with pytest.raises(ValueError) as want:
        check_index(rs, index)
    assert f"rank-{rs.rank}" in str(want.value)
    calls = {
        "coefficient_trace": lambda: coefficient_trace(rs, *index),
        "second_kind_poly": lambda: second_kind_poly(rs, second, *index),
        "first_kind_poly": lambda: first_kind_poly(rs, first, index),
        "poly_via_recurrence": lambda: poly_via_recurrence(rs, second, *index),
        "verify_ratio": lambda: verify_ratio(rs, second, *index, num_samples=20, seed=7),
        "dimension_check": lambda: dimension_check(rs, second, *index),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value), name
    # the index is checked before anything is drawn
    assert drawn == []


@pytest.mark.parametrize(
    "algebra, weight",
    [
        (AlgebraId.A1, (1, 0)),
        (AlgebraId.G2, (1,)),
        (AlgebraId.A1, (2.0,)),
        (AlgebraId.G2, (1.5, 0)),
        (AlgebraId.A1, (True,)),
        (AlgebraId.G2, (0, False)),
    ],
    ids=["a1-arity", "g2-arity", "a1-float", "g2-float", "a1-bool", "g2-bool"],
)
def test_weight_functions_raise_the_check_weight_error(algebra, weight):
    """normalize_index and weyl_dimension share one weight check, whose
    message names the rank; negative entries are in their domain."""
    rs = build_root_system(algebra)
    with pytest.raises(ValueError) as want:
        check_weight(rs, weight)
    assert str(want.value) == (
        f"a rank-{rs.rank} weight takes {rs.rank} integer entries, got {weight}"
    )
    calls = {
        "normalize_index": lambda: normalize_index(rs, *weight),
        "weyl_dimension": lambda: weyl_dimension(rs, weight),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value), name
    negative = (-1,) + (0,) * (rs.rank - 1)
    check_weight(rs, negative)
    assert weyl_dimension(rs, negative) == 0
    assert normalize_index(rs, *negative).sign == 0


HEIGHTS = {AlgebraId.A1: (1,), AlgebraId.A2: (2, 2), AlgebraId.C2: (3, 4), AlgebraId.G2: (6, 10)}


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_dominant_sweep_orders_the_dominant_weights_by_height(algebra):
    """The sweep is every dominant weight of height at most top, highest
    first and lexicographically descending within a height, and a dominant
    weight below another by a positive root comes after it."""
    rs = build_root_system(algebra)
    assert rs.heights == HEIGHTS[algebra]
    assert rs.heights == tuple(map(sum, zip(*rs.positive_coroots)))
    roots = {act(rs, w, alpha) for w in rs.elements for alpha in rs.cartan}
    positive = [alpha for alpha in roots if height(rs, alpha) > 0]
    assert len(positive) == len(rs.positive_coroots)
    assert all(height(rs, alpha) >= 2 for alpha in positive)
    for top in (-1, 0, 1, 7, 24):
        box = product(range(top + 1), repeat=rs.rank)
        brute = [mu for mu in box if height(rs, mu) <= top]
        sweep = dominant_sweep(rs, top, -1)
        assert sweep == sorted(brute, key=lambda mu: (height(rs, mu), mu), reverse=True)
        place = {mu: k for k, mu in enumerate(sweep)}
        for mu in sweep:
            for alpha in positive:
                lower = tuple(a - b for a, b in zip(mu, alpha))
                if is_dominant(lower):
                    assert place[lower] > place[mu], (mu, alpha)


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_stabilizer_order_times_orbit_size_is_the_group_order(algebra):
    rs = build_root_system(algebra)
    for mu in product(range(4), repeat=rs.rank):
        fixing = sum(act(rs, w, mu) == mu for w in rs.elements)
        assert stabilizer_order(rs, mu) == fixing, mu
        assert stabilizer_order(rs, mu) * len(orbit_points(rs, mu)) == ORDERS[algebra], mu


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS)
def test_coset_is_the_class_modulo_the_root_lattice(algebra):
    """Weights differ by a root-lattice vector exactly when their cosets
    agree, and there are det C cosets: 2, 3, 2 and 1."""
    rs = build_root_system(algebra)
    box = list(product(range(-3, 4), repeat=rs.rank))
    cosets = {coset(rs, mu) for mu in box}
    assert len(cosets) == {AlgebraId.A1: 2, AlgebraId.A2: 3, AlgebraId.C2: 2, AlgebraId.G2: 1}[algebra]
    lattice = {
        tuple(sum(k * row[j] for k, row in zip(ks, rs.cartan)) for j in range(rs.rank))
        for ks in product(range(-20, 21), repeat=rs.rank)
    }
    for mu in box:
        for root in rs.cartan:
            shifted = tuple(a + b for a, b in zip(mu, root))
            assert coset(rs, shifted) == coset(rs, mu)
        assert (coset(rs, mu) == coset(rs, (0,) * rs.rank)) == (mu in lattice), mu


def test_act_rejects_a_weight_of_the_wrong_rank_or_out_of_range(g2):
    w = g2.elements[1]
    with pytest.raises(ValueError, match="weight rank mismatch"):
        act(g2, w, (1,))
    with pytest.raises(ValueError, match="weight coordinate out of supported range"):
        act(g2, w, (2**31, 0))


def test_the_weyl_closure_checks_the_group_order(monkeypatch):
    """A closure of the wrong size is refused, not cached: the check runs
    on an uncached build against a patched order."""
    monkeypatch.setitem(rootsystem._WEYL_ORDER, AlgebraId.G2, 6)
    with pytest.raises(RuntimeError, match="produced 12 elements, expected 6"):
        rootsystem.build_root_system.__wrapped__(AlgebraId.G2)

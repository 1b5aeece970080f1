"""Recurrence route: index folding, the seed fill and the axis steps, companion matrices."""

from __future__ import annotations

import dataclasses
import gc
from fractions import Fraction
from itertools import product
from math import prod
from operator import add, le, lt
from pathlib import Path

import hypothesis
import pytest
from hypothesis import strategies as st

import weylcheb.genfunc as genfunc
import weylcheb.orbit as orbit
from weylcheb import (
    AlgebraId,
    Kind,
    LaurentPoly,
    NotInvariantError,
    NormalizedIndex,
    XYPoly,
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
    rootsystem,
    second_kind_table,
    signed_orbit_sum,
)
from weylcheb.genfunc import denominator_coeffs
from weylcheb.recurrence import _apply_poly_to_matrix, _build, _reach
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
    applied = _apply_poly_to_matrix(one, companions[0])
    for r in range(6):
        for c in range(6):
            want = XYPoly.constant(2, 1) if r == c else XYPoly.zero(2)
            assert applied[r][c] == want
    # dropping the top coefficient leaves a nonzero matrix: the degree is
    # genuinely minimal
    truncated = _apply_poly_to_matrix(g2_gf.denominators[0][:6], companions[0])
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


def test_the_table_builds_exactly_its_box(g2, g2_second):
    """The seed block's single steps stay inside a 16 x 16 box, and the
    axis steps fill the rest of it, so nothing outside is built."""
    box = rootsystem.index_box(2, 16, 16)
    table, _ = _build(g2, g2_second, box)
    assert sorted(table) == box


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", [AlgebraId.A2, AlgebraId.C2, AlgebraId.G2])
def test_axis_polynomials_are_the_closed_form_denominators(algebra, kind):
    """The fill's own P_i, rewritten over the X_i through the table, is
    the closed form's denominator, which reduce rewrites over the x_i."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    _, axes = _build(rs, basis, [(0, 0)])
    for i, coeffs in enumerate(axes):
        expected = [
            XYPoly(2, {d: c * prod(map(pow, basis.leads, d)) for d, c in poly.terms()})
            for poly in denominator_coeffs(rs, basis, i)
        ]
        assert coeffs == [p._terms for p in expected], (i, [XYPoly(2, c).as_text() for c in coeffs])


def _spy_packs(monkeypatch) -> list:
    """Record every ``_pack`` call as its bits, its strides (read off the
    slots of the terms with a y-degree) and the terms it packs."""
    packs, honest_pack = [], recurrence._pack

    def spy(terms, slots, bits):
        strides = {(s - d[0]) // d[1] for d, s in slots.items() if d[1:] and d[1]}
        packs.append((bits, strides, frozenset(terms.items())))
        return honest_pack(terms, slots, bits)

    monkeypatch.setattr(recurrence, "_pack", spy)
    return packs


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", list(AlgebraId))
def test_narrow_slots_widen_to_the_same_tables(algebra, kind, monkeypatch):
    """Starting from 8-bit slots, the steps overflow them and widen them (a
    width above 8 is only ever reached by widening); the tables come out
    the same.  An entry is packed only after a widening dropped its packed
    sum, at most once per width, and every pack uses the one stride."""
    rs = build_root_system(algebra)
    size = (20,) if rs.rank == 1 else (8, 8)
    wide = recurrence_table(rs, build_basis(rs, kind), *size)
    monkeypatch.setattr(recurrence, "_SLOT_BITS", 8)
    packs = _spy_packs(monkeypatch)
    assert recurrence_table(rs, build_basis(rs, kind), *size) == wide
    widths = [bits for bits, _, _ in packs]
    assert min(widths) > 8, widths
    packed = [(bits, terms) for bits, _, terms in packs]
    assert len(set(packed)) == len(packed)
    assert rs.rank == 1 or len(set().union(*(got for _, got, _ in packs))) == 1, packs


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", list(AlgebraId))
def test_the_first_stride_and_slots_hold_a_16_box(algebra, kind, monkeypatch):
    """The stride is one more than the box's largest x-degree, a bound
    known before the first step, and 64-bit slots hold every coefficient
    up to 16 x 16, so no step widens the slots and no entry is ever
    repacked: every step reads its operands' own packed sums.  A zero slot
    decodes to no term."""
    rs = build_root_system(algebra)
    widths, reaches = set(), []
    honest_unpack = recurrence._unpack

    def reach(rs, t):
        reaches.append(_reach(rs, t))
        return reaches[-1]

    def unpack(value, bits):
        widths.add(bits)
        return honest_unpack(value, bits)

    monkeypatch.setattr(recurrence, "_reach", reach)
    monkeypatch.setattr(recurrence, "_unpack", unpack)
    packs = _spy_packs(monkeypatch)
    box = rootsystem.index_box(rs.rank, 16, 16 if rs.rank == 2 else None)
    table, _ = _build(rs, build_basis(rs, kind), box)
    assert widths == {64}
    stride = 1 + max(reaches)
    assert stride == 1 + max(max(table[t]._terms)[0] for t in box)
    assert packs == []
    assert all(all(u._terms.values()) for u in table.values())


_SLOT_WIDTHS = (8, 16, 64, 128, 192, 256, 320)


def _widest(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def _slot_values(bits: int):
    """Slot -> nonzero value, every |value| < 2^(bits-1), the extremes drawn often."""
    top = _widest(bits)
    value = st.one_of(st.sampled_from((top, -top)), st.integers(-top, top).filter(bool))
    return st.tuples(st.just(bits), st.dictionaries(st.integers(0, 24), value, min_size=1))


def _extremes(bits: int) -> tuple[int, dict[int, int]]:
    """Both extremes, an empty slot 0 and gaps, and a negative top slot."""
    return bits, {1: _widest(bits), 2: -_widest(bits), 3: -1, 6: -_widest(bits)}


@hypothesis.example(case=_extremes(8))
@hypothesis.example(case=_extremes(16))
@hypothesis.example(case=_extremes(64))
@hypothesis.example(case=_extremes(128))
@hypothesis.example(case=_extremes(192))
@hypothesis.example(case=_extremes(256))
@hypothesis.example(case=_extremes(320))
@hypothesis.given(case=st.sampled_from(_SLOT_WIDTHS).flatmap(_slot_values))
def test_unpack_reads_back_every_packed_slot(case):
    """_unpack inverts _pack: each slot's signed value, and 0 in every slot
    that has no term, up to the top slot at least."""
    bits, values = case
    digits = recurrence._unpack(recurrence._pack(values, {j: j for j in values}, bits), bits)
    assert len(digits) > max(values)
    assert list(digits) == [values.get(j, 0) for j in range(len(digits))]


class _CountingInt(int):
    """``int`` whose ``from_bytes`` counts its calls in ``calls``."""

    calls = 0

    @classmethod
    def from_bytes(cls, *args, **kwargs):
        _CountingInt.calls += 1
        return int.from_bytes(*args, **kwargs)


@pytest.mark.parametrize("bits", [128, 192, 256])
@pytest.mark.parametrize("kind", list(Kind))
def test_wide_slots_decode_through_limbs(g2, kind, bits, monkeypatch):
    """Started at 128, 192 or 256 bits, a G2 10 x 10 build gives the
    default tables, and each decode reads its slots through one limb
    ``unpack``: its only ``from_bytes`` builds the bias, none reads a slot."""
    wide = recurrence_table(g2, build_basis(g2, kind), 10, 10)
    per_call, honest_unpack = [], recurrence._unpack

    def unpack(value, width):
        before = _CountingInt.calls
        digits = honest_unpack(value, width)
        per_call.append(_CountingInt.calls - before)
        return digits

    monkeypatch.setattr(recurrence, "_SLOT_BITS", bits)
    monkeypatch.setattr(recurrence, "int", _CountingInt, raising=False)
    monkeypatch.setattr(recurrence, "_unpack", unpack)
    assert recurrence_table(g2, build_basis(g2, kind), 10, 10) == wide
    assert per_call and max(per_call) <= 1, max(per_call)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize(
    "algebra, size", [(AlgebraId.A1, 2), (AlgebraId.A2, 10), (AlgebraId.C2, 18), (AlgebraId.G2, 57)]
)
def test_the_seed_fill_builds_the_closure_of_its_block(algebra, size, kind):
    """The seed block of a 16 x 16 box, below deg P_i on every axis i,
    with what it and the P_i need, has a fixed number of entries on each
    algebra, the same on both kinds: a build of the block alone makes no
    axis step, so its table is that closure."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    degrees = [len(coeffs) - 1 for coeffs in _build(rs, basis, [(0,) * rs.rank])[1]]
    box = rootsystem.index_box(rs.rank, 16, 16 if rs.rank == 2 else None)
    block = [t for t in box if all(map(lt, t, degrees))]
    table, _ = _build(rs, basis, block)
    assert set(block) <= set(table)
    assert len(table) == size


def _fill_objects(objects) -> list:
    """The objects among ``objects`` that a fill makes: its polynomials, a
    dict of them such as its table, and its functions and their cells."""
    return [
        o for o in objects
        if isinstance(o, XYPoly)
        or type(o) is dict and any(isinstance(v, XYPoly) for v in o.values())
        or getattr(o, "__module__", None) == recurrence.__name__
        or type(o).__name__ == "cell" and isinstance(o.cell_contents, dict)
    ]


@pytest.mark.parametrize("kind", list(Kind))
def test_the_seed_fill_leaves_no_reference_cycle(g2, kind):
    """The seed fill recurses through a closure over itself; a cycle left
    behind would keep the whole table alive until the next collection.
    Only the fill's own objects count: a line tracer leaves cycles of its
    own."""
    basis = build_basis(g2, kind)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _build(g2, basis, rootsystem.index_box(2, 16, 16))
        gc.collect()
        assert _fill_objects(gc.garbage) == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


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


_PAIRS = [(algebra, kind) for algebra in AlgebraId for kind in Kind]
_PAIR_IDS = [f"{algebra.value}-{kind.value}" for algebra, kind in _PAIRS]
_GF_TABLES: dict = {}


def _gf_slice(algebra, kind, size):
    """The GF route's table up to ``size``, cut from one over A1 0..12 or
    the rank-2 box 0..10 x 0..10, built once per pair."""
    if (algebra, kind) not in _GF_TABLES:
        rs = build_root_system(algebra)
        full = (12,) if rs.rank == 1 else (10, 10)
        _GF_TABLES[algebra, kind] = _gf_table(rs, build_basis(rs, kind), *full)
    return {idx: p for idx, p in _GF_TABLES[algebra, kind].items() if all(map(le, idx, size))}


def _pairs_and_boxes(pair):
    """The pair with a random box: A1 up to 12, a rank-2 side up to 10."""
    sides = [st.integers(0, 12)] if pair[0] is AlgebraId.A1 else [st.integers(0, 10)] * 2
    return st.tuples(st.just(pair), st.tuples(*sides))


@hypothesis.given(case=st.sampled_from(_PAIRS).flatmap(_pairs_and_boxes))
def test_recurrence_table_matches_the_gf_table_on_any_box(case):
    """Any box on any pair, sides thinner or wider than the seed block."""
    (algebra, kind), size = case
    rs = build_root_system(algebra)
    assert recurrence_table(rs, build_basis(rs, kind), *size) == _gf_slice(algebra, kind, size)


@pytest.mark.parametrize("algebra, kind", _PAIRS, ids=_PAIR_IDS)
def test_boxes_thinner_than_the_seed_block_match_the_gf_table(algebra, kind):
    """Boxes that cut the seed block, which the axis steps extend along one
    axis only or not at all, and every rank-1 length up to 12."""
    rs = build_root_system(algebra)
    sizes = [(m,) for m in range(13)] if rs.rank == 1 else [
        (0, 10), (10, 0), (2, 9), (9, 2), (1, 1), (0, 0), (5, 10), (10, 5)
    ]
    for size in sizes:
        table = recurrence_table(rs, build_basis(rs, kind), *size)
        assert table == _gf_slice(algebra, kind, size), size


def _reach_boxes(pair):
    """The pair with a random box: A1 up to 40, a rank-2 side up to 10."""
    sides = [st.integers(0, 40)] if pair[0] is AlgebraId.A1 else [st.integers(0, 10)] * 2
    return st.tuples(st.just(pair), st.tuples(*sides))


@hypothesis.example(case=((AlgebraId.G2, Kind.FIRST), (2, 9)))
@hypothesis.example(case=((AlgebraId.C2, Kind.SECOND), (9, 2)))
@hypothesis.example(case=((AlgebraId.A1, Kind.SECOND), (40,)))
@hypothesis.given(case=st.sampled_from(_PAIRS).flatmap(_reach_boxes))
def test_every_entry_stays_within_its_reach(case):
    """The stride bound is sound: every entry a build makes, the seed's
    requests outside the box too, has x-degree at most ``_reach`` of its
    index, and each P_i[k] at most ``_reach`` of k lambda_i."""
    (algebra, kind), size = case
    rs = build_root_system(algebra)
    box = rootsystem.index_box(rs.rank, size[0], size[1] if rs.rank == 2 else None)
    table, axes = _build(rs, build_basis(rs, kind), box)
    for t, u in table.items():
        assert max(u._terms)[0] <= _reach(rs, t), t
    for i, coeffs in enumerate(axes):
        for k, terms in enumerate(coeffs):
            lam = tuple(k * (j == i) for j in range(rs.rank))
            assert max(terms)[0] <= _reach(rs, lam), (i, k)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("algebra", [AlgebraId.A2, AlgebraId.C2, AlgebraId.G2])
def test_a_reach_one_short_breaks_the_tables(algebra, kind, monkeypatch):
    """The stride bound is tight: one lower, some entry's top x-degree
    aliases the next y-degree, and the 8 x 8 table is wrong."""
    honest = recurrence._reach
    monkeypatch.setattr(recurrence, "_reach", lambda rs, t: honest(rs, t) - 1)
    rs = build_root_system(algebra)
    assert recurrence_table(rs, build_basis(rs, kind), 8, 8) != _gf_slice(algebra, kind, (8, 8))


@pytest.mark.parametrize("algebra, kind", _PAIRS, ids=_PAIR_IDS)
def test_over_x_gives_what_the_checked_constructor_makes(algebra, kind):
    """``over_x`` adopts its terms unchecked.  On every entry the fill builds
    for a 6x6 box (A1: 6), they are what the checked constructor makes of
    c / prod(lead_i^d_i): the same terms, each an int where it is integral."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    box = rootsystem.index_box(rs.rank, 6, 6 if rs.rank == 2 else None)
    for t, p in _build(rs, basis, box)[0].items():
        got = basis.over_x(p)._terms
        want = XYPoly(rs.rank, {
            d: Fraction(c, prod(map(pow, basis.leads, d))) for d, c in p._terms.items()
        })._terms
        assert got == want, t
        assert {d: type(c) for d, c in got.items()} == {d: type(c) for d, c in want.items()}, t


@pytest.mark.parametrize("algebra, kind", _PAIRS, ids=_PAIR_IDS)
def test_a_variable_times_an_orbit_sum_is_its_shifted_orbit_sums(algebra, kind):
    """The step identity of the fill, on Laurent products alone: with
    x_i = sum c_mu z^mu, x_i times the orbit sum of k (first kind), or the
    signed orbit sum of k + rho (second kind), is the sum of c_mu times the
    one shifted by mu, for every dominant k up to (6, 6) (A1: 12)."""
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)
    if kind is Kind.SECOND:
        sums, shift = signed_orbit_sum, rs.rho
    else:
        sums, shift = orbit_sum, (0,) * rs.rank
    for k in product(range(13 if rs.rank == 1 else 7), repeat=rs.rank):
        at = tuple(map(add, k, shift))
        for i, x in enumerate(basis.var_laurents):
            shifted = LaurentPoly.zero(rs.rank)
            for mu, c in x.terms():
                shifted = shifted + sums(rs, tuple(map(add, at, mu))).scale(c)
            assert sums(rs, at) * x == shifted, (k, i)


@pytest.mark.parametrize("algebra, kind", _PAIRS, ids=_PAIR_IDS)
def test_the_recurrence_route_runs_without_the_gf_route(algebra, kind, monkeypatch):
    """The routes share only the root system, the variables and ``over_x``:
    with reduce, its elimination and product rules, the dominant-weight
    index and its sweep, and the exact division all made to raise, the
    recurrence still gives the GF route's table."""
    rs = build_root_system(algebra)
    size = (8,) if rs.rank == 1 else (8, 8)
    expected = _gf_table(rs, build_basis(rs, kind), *size)
    basis = build_basis(rs, kind)
    assert basis.leads

    def refuse(*args, **kwargs):
        raise AssertionError("the recurrence route ran the GF route's code")

    for owner, name in (
        (polynomialize, "_eliminate"),
        (polynomialize, "reduce"),
        (genfunc, "denominator_coeffs"),
        (genfunc, "closed_form_gf"),
        (polynomialize.VariableBasis, "_product_rule"),
        (recurrence, "reduce"),
        (orbit, "exact_divide"),
        (genfunc, "exact_divide"),
        (rootsystem.DominantIndex, "grow"),
        (rootsystem, "dominant_sweep"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    assert recurrence_table(rs, basis, *size) == expected


@pytest.mark.parametrize("algebra, kind", _PAIRS, ids=_PAIR_IDS)
def test_the_recurrence_route_runs_no_xypoly_arithmetic(algebra, kind, monkeypatch):
    """Every entry, the seed block's too, is one packed step: with XYPoly's
    sum, difference, product and scaling made to raise, the recurrence
    still gives the GF route's table at 8 x 8 (A1: 0..12)."""
    size = (12,) if algebra is AlgebraId.A1 else (8, 8)
    expected = _gf_slice(algebra, kind, size)
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)

    def refuse(*args, **kwargs):
        raise AssertionError("the recurrence route ran XYPoly arithmetic")

    for name in ("__add__", "__sub__", "__mul__", "scale"):
        monkeypatch.setattr(XYPoly, name, refuse)
    assert recurrence_table(rs, basis, *size) == expected


@pytest.mark.parametrize("kind", list(Kind))
def test_the_recurrence_route_neither_reads_nor_fills_the_gf_cache(g2, kind):
    """The polynomials the GF route keeps in a basis are its own answers:
    the recurrence module never names the cache, and a fill adds nothing to it."""
    assert "_polys" not in Path(recurrence.__file__).read_text(encoding="utf-8")
    basis = build_basis(g2, kind)
    recurrence_table(g2, basis, 6, 6)
    assert basis._polys == {}


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("axis", [0, 1])
def test_the_fill_refuses_a_variable_that_is_not_invariant(g2, kind, axis):
    """A basis from dataclasses.replace skips build_basis.  A variable with
    an extra 2 z^(-1, 0) still passes ``leads``, but the fill's step rule
    holds only for an invariant one, so the fill raises."""
    basis = build_basis(g2, kind)
    variables = list(basis.var_laurents)
    variables[axis] = variables[axis] + LaurentPoly.monomial(2, (-1, 0)).scale(2)
    bad = dataclasses.replace(basis, var_laurents=tuple(variables))
    assert bad.leads == basis.leads
    with pytest.raises(NotInvariantError, match=f"the variable {'xy'[axis]} is not Weyl-invariant"):
        recurrence_table(g2, bad, 3, 3)


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
        value = _apply_poly_to_matrix(den[::-1], companion)
        assert not any(entry for row in value for entry in row)
    assert minimal_poly_check(rs, gf, companions) is (algebra is not AlgebraId.A2)

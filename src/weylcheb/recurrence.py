"""Recurrence route to the polynomials of both kinds, and companion matrices.

The multiplication rule behind it (Humphreys, Lie Algebras, section 24,
exercise 9): for any weight k and any W-invariant L = sum_mu c_mu z^mu,

    signed(k) * L = sum_mu c_mu signed(k + mu)
    orbit(k) * L = sum_mu c_mu orbit(k + mu)

exactly (substitute mu -> w mu inside the double sum).  Dividing the first
by the rho-shifted denominator gives a linear relation among the
second-kind polynomials; the second already is one among the first-kind
polynomials, the orbit sums.  Shifted indices fold back into the dominant
table: by normalize_index for the second kind (rho-shifted, signed, zero on
walls), by the image of ``rootsystem.fold`` with sign +1 for the first.

Every entry of a table is one packed step (``_build``), all at one stride
fixed up front: X^a Y^b in U_t leads at a lambda_1 + b lambda_2, at or
below t in dominance, and the inverse Cartan matrix is positive
(Humphreys, section 13), so a <= min_j tau_j(t) / tau_j(lambda_1) over
the simple-root coordinates tau_j (``_reach``).  That bound is
superadditive and monotone in dominance, so it bounds every product
M U_s a step sums, M leading at or below t - s.  The seed block,
below deg P_i on every axis i, steps by single variables: with
L = X_i = x_i / lead_i, every weight of x_i lies at or below lambda_i in
dominance, so solving for k + lambda_i steps forward from X_i U_k and
lower entries, which each entry asks for.  The rule with L a
coefficient of P_i and k = 0 rewrites P_i over the X_i.  Both kinds are
sums of geometric sequences along axis i, with ratios z^nu over the
orbit of lambda_i, so P_i(t) = prod (1 - t z^nu) annihilates every row
or column from deg P_i on: the first deg P_1 columns step along n by
P_2, every later column along m by P_1.  The closed form's denominators
are these P_i, ``orbit.axis_denominator``; the GF route's tables never read them.

The companion matrices realize the one-variable recurrences hidden in the
closed-form denominators: first column = negated denominator coefficients,
identity shift on the superdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, and_, lshift, mul, sub
from struct import unpack
from typing import Sequence

from .genfunc import RationalGF, denominator_coeffs
from .orbit import Kind, axis_denominator, unit_weight
from .polynomialize import _VAR_NAMES, NotInvariantError, VariableBasis, XYPoly, _check_basis
from .polynomialize import reduce  # noqa: F401  bench/tracing.py wraps it; the fill never calls it
from .rootsystem import (
    _COORD_LIMIT, RootSystem, Weight, _adjugate, check_index, check_symmetry, check_weight, fold,
    index_box,
)

# Bits per slot of the packed steps, widened for a step that could overflow them.
_SLOT_BITS = 64


@dataclass(frozen=True)
class NormalizedIndex:
    """Result of folding an arbitrary integer index into the dominant table:
    sign 0 on a chamber wall, else the unique dominant index with its
    reflection sign."""

    sign: int
    index: Weight | None


def normalize_index(rs: RootSystem, *n: int) -> NormalizedIndex:
    """Fold the index via the reflection rule for rho-shifted weights: n + rho
    goes to the dominant chamber, and a zero coordinate there puts it on a
    wall.  Off the walls the element reaching the chamber is unique, so the
    sign of ``fold`` is its determinant.  A coordinate of n + rho at 2**31 or
    beyond in size is rejected."""
    check_weight(rs, n)
    shifted = tuple(map(add, n, rs.rho))
    if max(map(abs, shifted)) >= _COORD_LIMIT:
        raise ValueError("weight coordinate out of supported range")
    sign, image = fold(rs, shifted)
    if 0 in image:
        return NormalizedIndex(0, None)
    return NormalizedIndex(sign, tuple(map(sub, image, rs.rho)))


def _fold(rs: RootSystem, kind: Kind, index: Weight) -> NormalizedIndex:
    if kind is Kind.SECOND:
        return normalize_index(rs, *index)
    return NormalizedIndex(1, fold(rs, index)[1])


def _reach(rs: RootSystem, t: Weight) -> int:
    """The largest a of any X^a Y^b at or below t in dominance: the least
    t . col // col[0] over the columns col of adj C, row 0 being lambda_1's."""
    return min(sum(map(mul, t, col)) // col[0] for col in zip(*_adjugate(rs)))


def _pack(coeffs: dict[Weight, int], slots: dict[Weight, int], bits: int) -> int:
    """sum(c << (slots[mu] * bits)), built in linear time through bytes,
    positive and negative coefficients apart; every |c| < 2^bits."""
    width = bits // 8
    size = (max(map(slots.__getitem__, coeffs)) + 1) * width
    halves = bytearray(size), bytearray(size)
    for mu, c in coeffs.items():
        at = slots[mu] * width
        halves[c < 0][at : at + width] = abs(c).to_bytes(width, "little")
    return int.from_bytes(halves[0], "little") - int.from_bytes(halves[1], "little")


def _unpack(value: int, bits: int) -> Sequence[int]:
    """The slots of ``value``, each below 2^(bits-1) in size, as signed ints.
    Biased by 2^(bits-1), every slot is a nonnegative digit, so one
    ``to_bytes`` reads them all; XOR with the bias leaves each value mod 2^bits.
    One ``unpack`` reads its limbs signed; lower limbs are masked, joined in C."""
    width, limb = bits // 8, min(bits, 64)
    count, per = abs(value).bit_length() // bits + 1, bits // limb
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = ((value + bias) ^ bias).to_bytes(count * width, "little")
    limbs = unpack(f"<{count * per}" + {8: "b", 16: "h", 32: "i", 64: "q"}[limb], raw)
    slots, mask = limbs[per - 1 :: per], repeat((1 << limb) - 1)
    for j in reversed(range(per - 1)):
        slots = map(add, map(lshift, slots, repeat(limb)), map(and_, limbs[j::per], mask))
    return tuple(slots)


def _build(
    rs: RootSystem, basis: VariableBasis, box: list[Weight]
) -> tuple[dict[Weight, XYPoly], list[list[dict[Weight, int]]]]:
    """Every entry of ``box`` over the X_i, with what its seed block needs,
    and the terms of each P_i[k] over the X_i.

    Each is one ``step``: sum M U_s over earlier entries s, M the monomial
    X_i, an integer or -P_i[k], divided exactly by an integer.  X^a Y^b
    packs to a slot of ``bits`` bits at a + stride * b of one int, so M U_s
    is one shifted multiply per term of M.  Packing is a ring homomorphism,
    so an entry decodes exactly if it fits its slots.  The stride is one
    more than the largest ``_reach`` of the box's corner and the seed's
    requests, which bounds every entry and every product M U_s (monotone
    and superadditive), fixed before the first step.  A step widens the
    slots first if its operands' sizes need it.  An entry keeps its packed
    sum until a widening, is decoded once, as signed slots whose nonzero
    ones are its terms, and is dropped after the last axis step that reads
    it: past the seed block, U_t = -sum over k >= 1 of P_i[k] U_(t - k e_i),
    i the first axis with t_i >= deg P_i."""
    _check_basis(rs, basis)
    kind, zero = basis.kind, (0,) * rs.rank
    rules = []
    for i, (name, x, lead) in enumerate(zip(_VAR_NAMES, basis.var_laurents, basis.leads)):
        check_symmetry(rs, x._terms, 1, NotInvariantError, f"the variable {name}")
        rules.append((unit_weight(rs, i), [(mu, c // lead) for mu, c in x._terms.items()]))
    folded = [[[(_fold(rs, kind, mu), c) for mu, c in e._terms.items()]
               for e in axis_denominator(rs, i)] for i in range(rs.rank)]
    degrees = [len(coeffs) - 1 for coeffs in folded]
    needed = {n.index for coeffs in folded for e in coeffs for n, _ in e if n.sign}
    requests = [t for t in box if all(c < d for c, d in zip(t, degrees))] + sorted(needed)
    stride = 1 + max(_reach(rs, t) for t in [box[-1], *requests])
    seed = 1 if kind is Kind.SECOND else len(rs.elements)
    table, packed, stats = {zero: XYPoly.constant(rs.rank, seed)}, {zero: seed}, {zero: seed}
    bits, keys = _SLOT_BITS, []

    def slot(d: Weight) -> int:
        return d[0] + stride * sum(d[1:])

    def multiplier(terms: dict[Weight, int]) -> tuple[int, list[tuple[int, int]]]:
        """M as its size (the sum of its |coefficients|) and (coefficient, slot) pairs."""
        return sum(map(abs, terms.values())), [(c, slot(d)) for d, c in terms.items()]

    def step(t: Weight | None, reads: list[tuple[tuple, Weight]], divisor: int = 1) -> dict:
        """The terms of sum M U_s over the (M, s) ``reads`` divided by
        ``divisor``, filed as entry ``t`` unless it is None."""
        nonlocal bits, packed
        bound = sum(size * stats[s] for (size, _), s in reads)
        if bound >> (bits - 1):
            bits, packed = -(-(bound.bit_length() + 1) // 64) * 64, {}
        acc = 0
        for (_, m), s in reads:
            if s not in packed:
                packed[s] = _pack(table[s]._terms, {d: slot(d) for d in table[s]._terms}, bits)
            acc += sum((c * packed[s]) << (bits * at) for c, at in m)
        if divisor != 1:  # exact: every entry is integral over the X_i
            acc //= divisor
        digits = _unpack(acc, bits)
        keys.extend((j % stride, j // stride)[: rs.rank] for j in range(len(keys), len(digits)))
        terms = dict(compress(zip(keys, digits), digits))
        if t is not None:
            packed[t], table[t], stats[t] = acc, XYPoly._wrap(rs.rank, terms), max(map(abs, digits))
        return terms

    def entry(t: Weight) -> None:
        """Step to t by X_i from t - e_i, i the first axis with t_i > 0, after
        what it reads: every other shift folds onto t, into the divisor, or
        strictly below it in dominance, so the recursion ends."""
        if t in table:
            return
        i = next(j for j, c in enumerate(t) if c > 0)
        base = tuple(c - (j == i) for j, c in enumerate(t))
        unit, steps = rules[i]
        divisor, others = 0, {}
        for mu, c in steps:
            norm = _fold(rs, kind, tuple(map(add, base, mu)))
            if norm.index == t:
                divisor += c * norm.sign
            elif norm.sign:
                others[norm.index] = others.get(norm.index, 0) - c * norm.sign
        for s in (base, *others):
            entry(s)
        reads = [(multiplier({unit: 1}), base)]
        step(t, reads + [(multiplier({zero: c}), s) for s, c in others.items()], divisor)

    for t in requests:
        entry(t)
    del entry  # entry's closure holds entry: without this the cycle keeps the table until a GC
    axes = [
        [step(None, [(multiplier({zero: n.sign * c}), n.index) for n, c in e if n.sign], seed)
         for e in coeffs]
        for coeffs in folded
    ]
    multipliers = [[multiplier({d: -c for d, c in e.items()}) for e in coeffs] for coeffs in axes]
    for t in box:
        i = next((j for j, (c, d) in enumerate(zip(t, degrees)) if c >= d), None)
        if i is not None and t not in table:
            step(t, [(multipliers[i][k], tuple(c - k * (j == i) for j, c in enumerate(t)))
                     for k in range(1, degrees[i] + 1)])
        if t[0] >= degrees[0]:
            packed.pop((t[0] - degrees[0], *t[1:]), None)
    return table, axes


def poly_via_recurrence(rs: RootSystem, basis: VariableBasis, *index: int) -> XYPoly:
    """The polynomial at a dominant index, the corner of the box it fills."""
    check_index(rs, index)
    box = index_box(rs.rank, index[0], index[1] if rs.rank == 2 else None)
    return basis.over_x(_build(rs, basis, box)[0][index])


def recurrence_table(
    rs: RootSystem, basis: VariableBasis, max_m: int, max_n: int | None = None
) -> dict[tuple[int, ...], XYPoly]:
    """The full box, every entry one packed step (``_build``); each entry
    over the X_i is dropped as soon as it is rewritten over the x_i."""
    box = index_box(rs.rank, max_m, max_n)
    table, _ = _build(rs, basis, box)
    return {idx: basis.over_x(table.pop(idx)) for idx in box}


# -- companion matrices -------------------------------------------------------


Companion = tuple[tuple[XYPoly, ...], ...]


def build_companions(rs: RootSystem, basis: VariableBasis) -> tuple[Companion, ...]:
    """One companion per axis, as a tuple of rows, from the closed-form
    denominator of that axis: the negated denominator coefficients down the
    first column, an identity shift on the superdiagonal."""
    if rs.rank != 2:
        raise ValueError("companions are implemented for rank-2 systems")
    one = XYPoly.constant(rs.rank, 1)
    zero = XYPoly.zero(rs.rank)
    mats = []
    for i in range(rs.rank):
        coeffs = denominator_coeffs(rs, basis, i)
        size = len(coeffs) - 1
        mats.append(tuple(
            (-coeffs[r + 1], *(one if c == r + 1 else zero for c in range(1, size)))
            for r in range(size)
        ))
    return tuple(mats)


def _apply_poly_to_matrix(coeffs: tuple[XYPoly, ...], mat: Companion) -> Companion:
    """Horner evaluation of sum_k coeffs[k] M^k as a matrix over XYPoly.

    Defined for companions only: A M shifts each row of A one column right
    and puts the row's pairing with M's first column in front.  The rank
    is that of the companion's entries.
    """
    first = [row[0] for row in mat]
    zero = XYPoly.zero(mat[0][0].rank)
    acc = [[zero] * len(mat) for _ in mat]
    for coeff in reversed(coeffs):
        acc = [
            [sum((a * b for a, b in zip(row, first) if a and b), zero), *row[:-1]]
            for row in acc
        ]
        for r, row in enumerate(acc):
            row[r] = row[r] + coeff
    return tuple(tuple(row) for row in acc)


def minimal_poly_check(
    rs: RootSystem,
    gf: RationalGF,
    companions: tuple[Companion, ...],
) -> bool:
    """Each closed-form denominator annihilates its companion matrix.

    A companion's characteristic polynomial is its denominator *reversed*,
    t^d P(1/t), so by Cayley-Hamilton the reversal always annihilates it,
    and the denominator itself does exactly when it is palindromic or
    anti-palindromic.  That holds for C2 and G2; on A2 this returns False.
    Both ``gf`` and ``companions`` must have one entry per axis of ``rs``;
    otherwise this raises ValueError naming both counts.
    """
    counts = (len(gf.denominators), len(companions))
    if counts != (rs.rank, rs.rank):
        raise ValueError(
            f"a rank-{rs.rank} check takes {rs.rank} denominators and"
            f" {rs.rank} companions, got {counts[0]} and {counts[1]}"
        )
    for coeffs, mat in zip(gf.denominators, companions):
        value = _apply_poly_to_matrix(coeffs, mat)
        if any(entry for row in value for entry in row):
            return False
    return True

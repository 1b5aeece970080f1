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

A table is filled in three parts.  The seed block, below deg P_i on every
axis i, is stepped by single variables: with L = X_i = x_i / lead_i, every
weight of x_i lies at or below lambda_i in dominance, so solving for
k + lambda_i steps forward, and each entry asks for the lower ones it
needs (``_fill``).  Both kinds are sums of geometric sequences along
axis i, with ratios z^nu over the orbit of lambda_i, so P_i(t) =
prod (1 - t z^nu) annihilates every row or column from deg P_i on: the
first deg P_1 columns step along n by P_2, every later column along m
by P_1, on Kronecker-packed entries (``_build``).  The rule with
L a coefficient of P_i and k = 0 rewrites P_i over the X_i (``_seed``).

The companion matrices realize the one-variable recurrences hidden in the
closed-form denominators: first column = negated denominator coefficients,
identity shift on the superdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import floor
from operator import add, mul, sub
from struct import unpack
from typing import Iterable, Sequence

from .genfunc import RationalGF, denominator_coeffs
from .laurent import LaurentPoly
from .orbit import Kind, unit_weight
from .polynomialize import _VAR_NAMES, NotInvariantError, VariableBasis, XYPoly, _check_basis
from .polynomialize import reduce  # noqa: F401  bench/tracing.py wraps it; the fill never calls it
from .rootsystem import (
    _COORD_LIMIT, RootSystem, Weight, act, check_index, check_symmetry, check_weight, fold,
    index_box,
)

# Bits per slot of the packed axis steps, widened for a step that could overflow them.
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


def _fill(
    rs: RootSystem, basis: VariableBasis, targets: Iterable[Weight]
) -> dict[Weight, XYPoly]:
    """The targets and every index they depend on, over the X_i.  Entry t
    steps by X_i from t - lambda_i, i the first coordinate with t_i > 0;
    every other shift folds onto t itself or strictly below it in
    dominance, so the memoized recursion ``entry`` ends.  Shifts that fold
    onto t (first kind only, e.g. from 0) add to the coefficient divided
    out.  A variable that is not invariant raises NotInvariantError."""
    _check_basis(rs, basis)
    kind = basis.kind
    rules = []
    for i, (name, x, lead) in enumerate(zip(_VAR_NAMES, basis.var_laurents, basis.leads)):
        check_symmetry(rs, x._terms, 1, NotInvariantError, f"the variable {name}")
        steps = [(mu, c // lead) for mu, c in x._terms.items()]
        rules.append((XYPoly(rs.rank, {unit_weight(rs, i): 1}), steps))
    seed = 1 if kind is Kind.SECOND else len(rs.elements)
    table = {(0,) * rs.rank: XYPoly.constant(rs.rank, seed)}

    def entry(t: Weight) -> XYPoly:
        if t in table:
            return table[t]
        i = next(j for j, c in enumerate(t) if c > 0)
        base = tuple(c - 1 if j == i else c for j, c in enumerate(t))
        multiplier, steps = rules[i]
        divisor = 0
        others = []
        for mu, c in steps:
            norm = _fold(rs, kind, tuple(b + m for b, m in zip(base, mu)))
            if norm.index == t:
                divisor += c * norm.sign
            elif norm.sign:
                others += [(norm.sign * c // abs(c), norm.index)] * abs(c)
        acc = multiplier * entry(base)
        for sign, index in others:
            term = entry(index)
            acc = acc - term if sign > 0 else acc + term
        if divisor != 1:  # exact: every entry is integral over the X_i
            acc = XYPoly(rs.rank, {d: c // divisor for d, c in acc._terms.items()})
        table[t] = acc
        return acc

    for t in targets:
        entry(t)
    del entry  # entry's closure holds entry: without this the cycle keeps the table until a GC
    return table


def _seed(rs: RootSystem, basis: VariableBasis, box: list[Weight]) -> tuple[dict, list[list]]:
    """The seed block of ``box`` with what it needs, and each P_i over the
    X_i: a coefficient e = sum c_mu z^mu times the entry at 0 (1, or |W| for
    the first kind) is sum c_mu sign U_fold(mu), which that entry divides."""
    one, nil = LaurentPoly.one(rs.rank), LaurentPoly.zero(rs.rank)
    folded = []
    for i in range(rs.rank):
        coeffs = [one]
        for nu in {act(rs, w, unit_weight(rs, i)) for w in rs.elements}:
            z = LaurentPoly.monomial(rs.rank, nu)
            coeffs = [a - b * z for a, b in zip([*coeffs, nil], [nil, *coeffs])]
        folded.append([[(_fold(rs, basis.kind, mu), c) for mu, c in e.terms()] for e in coeffs])
    needed = {n.index for coeffs in folded for e in coeffs for n, _ in e if n.sign}
    seed = [t for t in box if all(c < len(f) - 1 for c, f in zip(t, folded))]
    table = _fill(rs, basis, seed + sorted(needed))
    scale, axes = table[(0,) * rs.rank].coeff((0,) * rs.rank), []
    for coeffs in folded:
        sums = [sum((table[n.index].scale(n.sign * c) for n, c in e if n.sign), XYPoly(rs.rank))
                for e in coeffs]
        axes.append([XYPoly(rs.rank, {d: c // scale for d, c in e._terms.items()}) for e in sums])
    return table, axes


def _sizes(poly: XYPoly, norm) -> tuple[int, int]:
    """``norm`` of the coefficients' sizes, and the x-degree, of a nonzero ``poly``."""
    return norm(map(abs, poly._terms.values())), max(poly._terms)[0]  # degrees compare x first


def _stride(sizes: list[list[tuple[int, int]]], stats: dict, corner: Weight) -> int:
    """One more than a bound on the x-degree of every entry up to ``corner``:
    a step along axis i adds at most r_i = max_k deg_x P_i[k] / k per unit
    of t_i, so no entry t exceeds r . t plus the seed's largest excess."""
    rates = [max(Fraction(x, k) for k, (_, x) in enumerate(axis) if k) for axis in sizes]
    excess = max(x - sum(map(mul, rates, t)) for t, (_, x) in stats.items())
    return floor(excess + sum(map(mul, rates, corner))) + 1


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
    ``to_bytes`` reads them all; XOR with the bias leaves each value mod 2^bits."""
    width = bits // 8
    count = abs(value).bit_length() // bits + 1
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = ((value + bias) ^ bias).to_bytes(count * width, "little")
    if bits == 64:
        return unpack(f"<{count}q", raw)
    return [int.from_bytes(raw[j : j + width], "little", signed=True)
            for j in range(0, len(raw), width)]


def _build(rs: RootSystem, basis: VariableBasis, box: list[Weight]) -> dict[Weight, XYPoly]:
    """Every entry of ``box`` over the X_i, and what its seed block needs.

    Past the seed block, U_t = -sum over k >= 1 of P_i[k] U_(t - k e_i),
    i the first axis with t_i >= deg P_i.  X^a Y^b packs to a slot of
    ``bits`` bits at a + stride * b of one int, so a step is one shifted
    multiply-subtract per term of P_i, and each entry is decoded once, as
    signed slots whose nonzero ones are its terms.
    Packing is a ring homomorphism, so U_t decodes exactly if it fits its
    slots: each step bounds its coefficients and x-degree by its
    operands', and widens the slots or the stride first if need be.  A
    packed entry is dropped after the last step that reads it."""
    table, axes = _seed(rs, basis, box)
    degrees = [len(coeffs) - 1 for coeffs in axes]
    sizes = [[_sizes(c, sum) for c in coeffs] for coeffs in axes]
    stats = {t: _sizes(u, max) for t, u in table.items()}
    bits, stride, packed, shifts, keys = _SLOT_BITS, _stride(sizes, stats, box[-1]), {}, {}, []

    def slot(d: Weight) -> int:
        return d[0] + stride * sum(d[1:])

    for t in box:
        i = next((j for j, (c, d) in enumerate(zip(t, degrees)) if c >= d), None)
        if i is not None and t not in table:
            reads = [(k, tuple(c - k * (j == i) for j, c in enumerate(t)))
                     for k in range(1, degrees[i] + 1)]
            bound = sum(sizes[i][k][0] * stats[s][0] for k, s in reads)
            x_degree = max(sizes[i][k][1] + stats[s][1] for k, s in reads)
            if bound >> (bits - 1):
                bits, packed, shifts = -(-(bound.bit_length() + 1) // 64) * 64, {}, {}
            if x_degree >= stride:
                stride, packed, shifts, keys = max(2 * stride, x_degree + 1), {}, {}, []
            if i not in shifts:
                shifts[i] = [[(c, bits * slot(d)) for d, c in e._terms.items()] for e in axes[i]]
            acc = 0
            for k, s in reads:
                if s not in packed:
                    packed[s] = _pack(table[s]._terms, {d: slot(d) for d in table[s]._terms}, bits)
                acc -= sum((c * packed[s]) << shift for c, shift in shifts[i][k])
            packed[t], digits = acc, _unpack(acc, bits)
            keys += [(j % stride, j // stride)[: rs.rank] for j in range(len(keys), len(digits))]
            table[t] = u = XYPoly._wrap(rs.rank, dict(compress(zip(keys, digits), digits)))
            stats[t] = _sizes(u, max)
        if t[0] >= degrees[0]:
            packed.pop((t[0] - degrees[0], *t[1:]), None)
    return table


def poly_via_recurrence(rs: RootSystem, basis: VariableBasis, *index: int) -> XYPoly:
    """The polynomial at a dominant index, the corner of the box it fills."""
    check_index(rs, index)
    box = index_box(rs.rank, index[0], index[1] if rs.rank == 2 else None)
    return basis.over_x(_build(rs, basis, box)[index])


def recurrence_table(
    rs: RootSystem, basis: VariableBasis, max_m: int, max_n: int | None = None
) -> dict[tuple[int, ...], XYPoly]:
    """The full box: its seed block by single steps, the rest by the axis
    recurrences (``_build``)."""
    box = index_box(rs.rank, max_m, max_n)
    table = _build(rs, basis, box)
    return {idx: basis.over_x(table[idx]) for idx in box}


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

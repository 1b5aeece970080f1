"""Recurrence route to the polynomials of both kinds, and companion matrices.

The multiplication rule behind it (Humphreys, Lie Algebras, section 24,
exercise 9): for any weight k and any W-invariant L = sum_mu c_mu z^mu,

    signed(k) * L = sum_mu c_mu signed(k + mu)
    orbit(k) * L = sum_mu c_mu orbit(k + mu)

exactly (substitute mu -> w mu inside the double sum).  The fill takes L to
be X_i = x_i / lead_i itself, with integer coefficients.  Dividing the
first by the rho-shifted denominator gives a linear relation among the
second-kind polynomials; the second already is one among the first-kind
polynomials, the orbit sums.  Shifted indices fold back into the dominant
table: by normalize_index for the second kind (rho-shifted, signed, zero on
walls), by the image of ``rootsystem.fold`` with sign +1 for the first.
Every weight of x_i lies at or below lambda_i in dominance, so solving for
k + lambda_i steps the table forward.  Shifts that fold onto k + lambda_i
itself (first kind only, e.g. at k = 0) add to the coefficient divided out.

The companion matrices realize the one-variable recurrences hidden in the
closed-form denominators: first column = negated denominator coefficients,
identity shift on the superdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .genfunc import RationalGF, denominator_coeffs
from .orbit import Kind, unit_weight
from .polynomialize import _VAR_NAMES, NotInvariantError, VariableBasis, XYPoly, _check_basis
from .polynomialize import reduce  # noqa: F401  bench/tracing.py wraps it; the fill never calls it
from .rootsystem import (
    _COORD_LIMIT, RootSystem, Weight, check_index, check_symmetry, check_weight, dominant_sweep,
    fold, height, index_box,
)


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
    shifted = tuple(c + 1 for c in n)
    if max(map(abs, shifted)) >= _COORD_LIMIT:
        raise ValueError("weight coordinate out of supported range")
    sign, image = fold(rs, shifted)
    if 0 in image:
        return NormalizedIndex(0, None)
    return NormalizedIndex(sign, tuple(c - 1 for c in image))


def _fold(rs: RootSystem, kind: Kind, index: Weight) -> NormalizedIndex:
    if kind is Kind.SECOND:
        return normalize_index(rs, *index)
    return NormalizedIndex(1, fold(rs, index)[1])


def _fill(
    rs: RootSystem, basis: VariableBasis, targets: Iterable[Weight]
) -> dict[Weight, XYPoly]:
    """The targets and every index they depend on.  Target t comes from
    t - lambda_i, i the first coordinate with t_i > 0; what it needs lies
    strictly below t in dominance, hence in height and later in the sweep
    that plans it.  Entries are filled over the X_i, in reverse plan order,
    stepping by X_i.  A variable that is not invariant raises NotInvariantError."""
    _check_basis(rs, basis)
    kind = basis.kind
    rules = []
    for i, (name, x, lead) in enumerate(zip(_VAR_NAMES, basis.var_laurents, basis.leads)):
        check_symmetry(rs, x._terms, 1, NotInvariantError, f"the variable {name}")
        steps = [(mu, c // lead) for mu, c in x._terms.items()]
        rules.append((XYPoly(rs.rank, {unit_weight(rs, i): 1}), steps))
    zero = (0,) * rs.rank
    needed = set(targets)
    plans = []
    for t in dominant_sweep(rs, max((height(rs, t) for t in needed), default=0)):
        if t not in needed or t == zero:
            continue
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
        needed.update((base, *(index for _, index in others)))
        plans.append((t, multiplier, base, others, divisor))
    seed = 1 if kind is Kind.SECOND else len(rs.elements)
    table = {zero: XYPoly.constant(rs.rank, seed)}
    for t, multiplier, base, others, divisor in reversed(plans):
        acc = multiplier * table[base]
        for sign, index in others:
            term = table[index]
            acc = acc - term if sign > 0 else acc + term
        if divisor != 1:  # exact: every entry is integral over the X_i
            acc = XYPoly(rs.rank, {d: c // divisor for d, c in acc._terms.items()})
        table[t] = acc
    return table


def poly_via_recurrence(rs: RootSystem, basis: VariableBasis, *index: int) -> XYPoly:
    """The polynomial at a dominant index, filling only what it depends on."""
    check_index(rs, index)
    return basis.over_x(_fill(rs, basis, [index])[index])


def recurrence_table(
    rs: RootSystem, basis: VariableBasis, max_m: int, max_n: int | None = None
) -> dict[tuple[int, ...], XYPoly]:
    """The full box, filled with what it depends on."""
    box = index_box(rs.rank, max_m, max_n)
    table = _fill(rs, basis, box)
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


def apply_poly_to_matrix(coeffs: tuple[XYPoly, ...], mat: Companion) -> Companion:
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
        value = apply_poly_to_matrix(coeffs, mat)
        if any(entry for row in value for entry in row):
            return False
    return True

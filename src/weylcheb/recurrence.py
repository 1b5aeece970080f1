"""Recurrence route to the polynomials of both kinds, and companion matrices.

The multiplication rules behind it: for any weight k and fundamental weight
lambda_i, with O_i = sum_{mu in orbit(lambda_i)} z^mu over the distinct
orbit points,

    signed(k) * O_i = sum_mu signed(k + mu)
    orbit(k) * O_i = sum_mu orbit(k + mu)

exactly (substitute mu -> w mu inside the double sum).  Dividing the first
by the rho-shifted denominator turns it into a linear relation among the
second-kind polynomials; the second already is one among the first-kind
polynomials, which are the orbit sums.  Shifted indices fold back into the
dominant table: by normalize_index for the second kind (rho-shifted,
signed, zero on walls), by the dominant representative with sign +1 for
the first.  Since lambda_i is the highest weight of its orbit, every folded
index lies at or below k + lambda_i in the dominance order, so solving for
k + lambda_i steps the table forward.  Shifts that fold onto k + lambda_i
itself (first kind only, e.g. at k = 0) add to the coefficient divided out.

The companion matrices realize the one-variable recurrences hidden in the
closed-form denominators: first column = negated denominator coefficients,
identity shift on the superdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .genfunc import RationalGF, denominator_coeffs
from .laurent import LaurentPoly
from .orbit import Kind, orbit_points, unit_weight
from .polynomialize import VariableBasis, XYPoly, reduce
from .rootsystem import RootSystem, Weight, check_index, dominant_representative, index_box


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
    wall.  Off the walls the element reaching the chamber is unique."""
    if len(n) != rs.rank:
        raise ValueError("index rank mismatch")
    w, image = dominant_representative(rs, tuple(c + 1 for c in n))
    if 0 in image:
        return NormalizedIndex(0, None)
    return NormalizedIndex(w.det, tuple(c - 1 for c in image))


def _fold(rs: RootSystem, kind: Kind, index: Weight) -> NormalizedIndex:
    if kind is Kind.SECOND:
        return normalize_index(rs, *index)
    return NormalizedIndex(1, dominant_representative(rs, index)[1])


def _fill(
    rs: RootSystem, basis: VariableBasis, targets: Iterable[Weight]
) -> dict[Weight, XYPoly]:
    """The targets and every index they depend on.  Target t comes from
    t - lambda_i, i the first coordinate with t_i > 0; what it needs lies
    strictly below t in dominance, so the explicit stack terminates."""
    kind = basis.kind
    rules = []
    for i in range(rs.rank):
        orbit = orbit_points(rs, unit_weight(rs, i))
        multiplier = reduce(basis, LaurentPoly(rs.rank, dict.fromkeys(orbit, 1)))
        rules.append((multiplier, orbit))
    seed = 1 if kind is Kind.SECOND else len(rs.elements)
    table = {(0,) * rs.rank: XYPoly.constant(rs.rank, seed)}
    plans: dict[Weight, tuple] = {}
    stack = list(targets)
    while stack:
        t = stack[-1]
        if t in table:
            stack.pop()
            continue
        plan = plans.get(t)
        if plan is None:
            i = next(j for j, c in enumerate(t) if c > 0)
            base = tuple(c - 1 if j == i else c for j, c in enumerate(t))
            multiplier, orbit = rules[i]
            divisor = 0
            others = []
            for mu in orbit:
                norm = _fold(rs, kind, tuple(b + m for b, m in zip(base, mu)))
                if norm.index == t:
                    divisor += norm.sign
                elif norm.sign:
                    others.append(norm)
            plan = plans[t] = (multiplier, base, others, divisor)
        multiplier, base, others, divisor = plan
        needed = (base, *(norm.index for norm in others))
        missing = [idx for idx in needed if idx not in table]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        del plans[t]
        acc = multiplier * table[base]
        for norm in others:
            term = table[norm.index]
            acc = acc - term if norm.sign > 0 else acc + term
        table[t] = acc if divisor == 1 else acc.scale(Fraction(1, divisor))
    return table


def poly_via_recurrence(rs: RootSystem, basis: VariableBasis, *index: int) -> XYPoly:
    """The polynomial at a dominant index, filling only what it depends on."""
    check_index(rs, index)
    return _fill(rs, basis, [index])[index]


def recurrence_table(
    rs: RootSystem, basis: VariableBasis, max_m: int, max_n: int | None = None
) -> dict[tuple[int, ...], XYPoly]:
    """The full box in one demand-driven pass."""
    box = index_box(rs.rank, max_m, max_n)
    table = _fill(rs, basis, box)
    return {idx: table[idx] for idx in box}


# -- companion matrices -------------------------------------------------------


@dataclass(frozen=True)
class CompanionMatrix:
    """Square matrix over XYPoly: recurrence coefficients down the first
    column, identity shift on the superdiagonal."""

    entries: tuple[tuple[XYPoly, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def build_companions(
    rs: RootSystem, basis: VariableBasis
) -> tuple[CompanionMatrix, CompanionMatrix]:
    """One companion per axis, from the closed-form denominator of that
    axis: column k steps the index, first column folds back with the
    negated denominator coefficients."""
    mats = []
    for i in range(rs.rank):
        coeffs = denominator_coeffs(rs, basis, i)
        size = len(coeffs) - 1
        zero = XYPoly.zero(rs.rank)
        rows = []
        for r in range(size):
            row = [-coeffs[r + 1]]
            for c in range(1, size):
                row.append(XYPoly.constant(rs.rank, 1) if c == r + 1 else zero)
            rows.append(tuple(row))
        mats.append(CompanionMatrix(tuple(rows)))
    return tuple(mats)


def _mat_mul(a, b, rank: int):
    size = len(a)
    out = []
    for r in range(size):
        row = []
        for c in range(size):
            acc = XYPoly.zero(rank)
            for k in range(size):
                if a[r][k] and b[k][c]:
                    acc = acc + a[r][k] * b[k][c]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_add_scaled_identity(m, coeff: XYPoly):
    size = len(m)
    return tuple(
        tuple(m[r][c] + coeff if r == c else m[r][c] for c in range(size))
        for r in range(size)
    )


def apply_poly_to_matrix(
    coeffs: tuple[XYPoly, ...], mat: CompanionMatrix, rank: int
) -> tuple[tuple[XYPoly, ...], ...]:
    """Horner evaluation of sum_k coeffs[k] M^k as a matrix over XYPoly."""
    size = mat.size
    zero = XYPoly.zero(rank)
    acc = tuple(
        tuple(coeffs[-1] if r == c else zero for c in range(size))
        for r in range(size)
    )
    for k in range(len(coeffs) - 2, -1, -1):
        acc = _mat_mul(acc, mat.entries, rank)
        acc = _mat_add_scaled_identity(acc, coeffs[k])
    return acc


def minimal_poly_check(
    rs: RootSystem,
    gf: RationalGF,
    companions: tuple[CompanionMatrix, CompanionMatrix],
) -> bool:
    """Each closed-form denominator annihilates its companion matrix.

    A companion's characteristic polynomial is its denominator *reversed*,
    t^d P(1/t), so by Cayley-Hamilton the reversal always annihilates it,
    and the denominator itself does exactly when it is palindromic or
    anti-palindromic.  That holds for C2 and G2; on A2 this returns False.
    """
    for coeffs, mat in zip(gf.denominators, companions):
        value = apply_poly_to_matrix(coeffs, mat, rs.rank)
        if any(entry for row in value for entry in row):
            return False
    return True

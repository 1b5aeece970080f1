"""Recurrence route to the second-kind polynomials, and companion matrices.

The multiplication rule behind it: for any weight k and fundamental weight
lambda_i, the signed orbit sum satisfies

    signed(k) * sum_{mu in orbit(lambda_i)} z^mu = sum_mu signed(k + mu)

exactly (substitute mu -> w mu inside the double sum).  Dividing by the
rho-shifted denominator turns this into a linear relation among the
polynomials whose index shifts run over the orbit, with out-of-range
indices folded back by normalize_index.  Solving for the shift by
lambda_i itself steps the table forward.

The companion matrices realize the one-variable recurrences hidden in the
closed-form denominators: first column = negated denominator coefficients,
identity shift on the superdiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .genfunc import RationalGF, denominator_coeffs
from .laurent import LaurentPoly
from .orbit import Kind, unit_weight
from .polynomialize import VariableBasis, XYPoly, reduce
from .rootsystem import AlgebraId, RootSystem, Weight, act


@dataclass(frozen=True)
class NormalizedIndex:
    """Result of folding an arbitrary integer index into the dominant table:
    sign 0 on a chamber wall, else the unique dominant index with its
    reflection sign."""

    sign: int
    index: Weight | None


def normalize_index(rs: RootSystem, *n: int) -> NormalizedIndex:
    """Fold the index via the reflection rule for rho-shifted weights.

    Brute force over the whole group: with at most 12 elements this is
    simpler than a chamber walk and obviously exhaustive.
    """
    if len(n) != rs.rank:
        raise ValueError("index rank mismatch")
    shifted = tuple(c + 1 for c in n)
    for w in rs.elements:
        image = act(rs, w, shifted)
        if all(c > 0 for c in image):
            return NormalizedIndex(w.det, tuple(c - 1 for c in image))
    return NormalizedIndex(0, None)


@dataclass(frozen=True)
class _StepRule:
    """One multiplication rule, solved for the dominant shift."""

    multiplier: XYPoly
    dominant_shift: Weight
    other_shifts: tuple[Weight, ...]


def _step_rules(rs: RootSystem, basis: VariableBasis) -> tuple[_StepRule, ...]:
    rules = []
    for i in range(rs.rank):
        lam = unit_weight(rs, i)
        orbit = sorted({act(rs, w, lam) for w in rs.elements})
        multiplier = reduce(basis, LaurentPoly(rs.rank, {mu: 1 for mu in orbit}))
        others = tuple(mu for mu in orbit if mu != lam)
        rules.append(_StepRule(multiplier, lam, others))
    return tuple(rules)


def _apply_rule(
    rs: RootSystem,
    rule: _StepRule,
    table: dict[Weight, XYPoly],
    base: Weight,
) -> XYPoly:
    """Value at base + dominant_shift, from the rule applied at base."""
    acc = rule.multiplier * table[base]
    for shift in rule.other_shifts:
        target = tuple(b + s for b, s in zip(base, shift))
        norm = normalize_index(rs, *target)
        if norm.sign == 0:
            continue
        term = table[norm.index]
        acc = acc - term if norm.sign > 0 else acc + term
    return acc


def _fill_table(
    rs: RootSystem,
    basis: VariableBasis,
    max_level: int,
) -> dict[Weight, XYPoly]:
    """Dynamic program over increasing m+n, x-steps before y-steps.

    Stage L computes every (m, n) with m + n = L and m >= 1, plus the
    column entry (0, L-1).  Within a stage, descending m first: the x-step
    producing (a, b) references (a+1, b-1) of the same level.  The y-step
    for (0, L-1) references (3, L-3) of level L, which the descending-m
    pass has already produced; the remaining two x-steps (2, L-2) and
    (1, L-1) in turn reference (0, L-1).  Every other reference lands in
    an earlier stage, so the order is acyclic.
    """
    if rs.algebra is not AlgebraId.G2:
        raise ValueError("recurrence tables are implemented for G2")
    if basis.kind is not Kind.SECOND:
        raise ValueError("recurrence tables need a second-kind basis")
    x_rule, y_rule = _step_rules(rs, basis)
    table: dict[Weight, XYPoly] = {
        (0, 0): XYPoly.constant(2, 1),
        (1, 0): XYPoly.variable(2, 0),
        (0, 1): XYPoly.variable(2, 1),
    }
    for level in range(2, max_level + 1):
        for a in range(level, 2, -1):
            table[(a, level - a)] = _apply_rule(rs, x_rule, table, (a - 1, level - a))
        if level >= 3:
            table[(0, level - 1)] = _apply_rule(rs, y_rule, table, (0, level - 2))
        table[(2, level - 2)] = _apply_rule(rs, x_rule, table, (1, level - 2))
        table[(1, level - 1)] = _apply_rule(rs, x_rule, table, (0, level - 1))
    return table


def poly_via_recurrence(
    rs: RootSystem, basis: VariableBasis, m: int, n: int
) -> XYPoly:
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return _fill_table(rs, basis, max(m + n, n + 1, 2))[(m, n)]


def recurrence_table(
    rs: RootSystem, basis: VariableBasis, max_m: int, max_n: int
) -> dict[Weight, XYPoly]:
    """The full rectangle in one dynamic-programming pass."""
    full = _fill_table(rs, basis, max(max_m + max_n, max_n + 1, 2))
    return {
        (m, n): full[(m, n)]
        for m in range(max_m + 1)
        for n in range(max_n + 1)
    }


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
    """Each closed-form denominator annihilates its companion matrix."""
    for coeffs, mat in zip(gf.denominators, companions):
        value = apply_poly_to_matrix(coeffs, mat, rs.rank)
        if any(entry for row in value for entry in row):
            return False
    return True

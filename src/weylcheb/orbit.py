"""Weyl-orbit sums, the one exact division, and the variables they induce.

``orbit_sum`` runs over the whole group without normalization, so a weight
with a stabilizer of order s contributes each orbit point s times and the
orbit sum of 0 is the group order.  ``signed_orbit_sum`` weights each term
by the determinant; it vanishes exactly on chamber walls and changes by
det(w) under reflection of the index.  ``exact_divide`` divides an
anti-invariant by A_rho, the signed orbit sum of rho, in the dominant
chamber and returns the dominant coefficients of the invariant quotient;
it reads a ``RacahTable``, which folds each weight's terms of A_rho once.
``unfold`` spreads dominant coefficients back over their orbits.  Both
kinds of variable, and every second-kind polynomial on the
generating-function route, come from them.  ``axis_denominator`` gives P_i.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import add, mul, sub

from .laurent import LaurentPoly, NonDivisibleError
from .rootsystem import (
    DominantIndex, RootSystem, Weight, act, act_all, check_symmetry, fold, height,
)


class Kind(Enum):
    FIRST = "first"
    SECOND = "second"


def orbit_sum(rs: RootSystem, n: Weight) -> LaurentPoly:
    """Sum of z^(w.n) over every group element w."""
    return _group_sum(rs, n, False)


def signed_orbit_sum(rs: RootSystem, k: Weight) -> LaurentPoly:
    """Sum of det(w) * z^(w.k) over every group element w."""
    return _group_sum(rs, k, True)


def _group_sum(rs: RootSystem, n: Weight, signed: bool) -> LaurentPoly:
    """Sum of z^(w.n) over every group element w, weighted by det(w) if ``signed``."""
    acc: dict[Weight, int] = {}
    for w in rs.elements:
        exp = act(rs, w, n)
        acc[exp] = acc.get(exp, 0) + (w.det if signed else 1)
    return LaurentPoly(rs.rank, acc)


def unit_weight(rs: RootSystem, i: int) -> Weight:
    """The fundamental weight of axis ``i``: an ``int``, not a ``bool``, in
    ``range(rs.rank)``."""
    if type(i) is not int or not 0 <= i < rs.rank:
        raise ValueError(f"a rank-{rs.rank} root system has axes 0 to {rs.rank - 1}, got {i!r}")
    return tuple(1 if j == i else 0 for j in range(rs.rank))


@lru_cache(maxsize=None, typed=True)  # typed: the axis True is rejected, not read as 1
def axis_denominator(rs: RootSystem, i: int) -> tuple[LaurentPoly, ...]:
    """Laurent coefficients of P_i(t) = prod (1 - t z^nu), ascending in t, nu
    over the distinct orbit points of lambda_i in group-element order: the
    closed form's denominator of axis ``i``, and what the recurrence steps by."""
    lam, nil, coeffs = unit_weight(rs, i), LaurentPoly.zero(rs.rank), [LaurentPoly.one(rs.rank)]
    for nu in dict.fromkeys(act(rs, w, lam) for w in rs.elements):
        z = LaurentPoly.monomial(rs.rank, nu)
        coeffs = [a - b * z for a, b in zip([*coeffs, nil], [nil, *coeffs])]
    return tuple(coeffs)


class RacahTable:
    """Racah's recursion for ``exact_divide``, worked out once per weight.

    ``offsets`` holds (rho - w rho, det w) for each w != 1, A_rho but z^rho:
    the root system fixes A_rho, and the table reads it from ``index``, a
    ``DominantIndex`` that may be shared, whose weights it links.  ``rows``
    holds, per coset and by rank, each weight's folded neighbours
    dom(mu + rho - w rho) that do not cancel, as their ranks and summed
    det w.  A neighbour lies at most ``reach`` higher than its weight, so
    ``grow`` grows the index that far first; it folds each new weight's
    neighbours once, and no row is ever rebuilt."""

    def __init__(self, index: DominantIndex) -> None:
        rs, self.index, self.rows = index.rs, index, {}
        self.offsets = [(tuple(map(sub, rs.rho, act(rs, w, rs.rho))), w.det)
                        for w in rs.elements if w.word]
        # dom(mu + nu) <= mu + dom(nu) for dominant mu, so nothing folds higher
        self.reach = max(height(rs, fold(rs, nu)[1]) for nu, _ in self.offsets)

    def grow(self, cos: Weight, rank: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The rows of the coset ``cos`` up to ``rank``, a filed one, each folded once."""
        rs, index, rows = self.index.rs, self.index, self.rows.setdefault(cos, [])
        weights = index.cosets[cos]
        if len(rows) <= rank:
            index.grow(height(rs, weights[rank]) + self.reach)
        for mu in weights[len(rows) : rank + 1]:
            links: dict[int, int] = {}
            for offset, c in self.offsets:
                j = index.where[fold(rs, tuple(map(add, mu, offset)))[1]][1]
                links[j] = links.get(j, 0) + c
            links = {j: c for j, c in links.items() if c}
            rows.append((tuple(links), tuple(links.values())))
        return rows


def exact_divide(table: RacahTable, numerator: LaurentPoly) -> dict[Weight, int]:
    """Dominant coefficients of the invariant quotient ``numerator / A_rho``,
    by Racah's recursion (Humphreys, Lie Algebras, section 24) over ``table``:
    q[mu] = num[mu+rho] - sum over w != 1 of det(w) q[dom(mu+rho-w rho)].
    rho - w rho is a nonzero sum of positive roots and folding raises a
    weight, so each neighbour lies in mu's coset at a greater height and
    rank: walking each of the numerator's cosets down from its highest term
    there reads only finished entries, and an entry above that term reads
    0, as it has no term and every neighbour of it lies higher still.
    Every anti-invariant is A_rho times an invariant, so the division is exact
    when the numerator is anti-invariant, checked before the table is touched
    (NonDivisibleError).  ``place`` grows the index only for unfiled terms."""
    rs, index = table.index.rs, table.index
    check_symmetry(rs, numerator._terms, -1, NonDivisibleError, "the numerator")
    lead = {tuple(map(sub, nu, rs.rho)): c for nu, c in numerator._terms.items() if min(nu) > 0}
    parts: dict[Weight, dict[int, int]] = {}
    for (cos, r), c in zip(index.place(lead), lead.values()):
        parts.setdefault(cos, {})[r] = c
    quot: dict[Weight, int] = {}
    for cos, part in parts.items():
        rows, weights = table.grow(cos, max(part)), index.cosets[cos]
        q = [0] * len(weights)
        for r, c in part.items():
            q[r] = c
        for r in range(max(part), -1, -1):
            js, cs = rows[r]
            if c := q[r] - sum(map(mul, cs, map(q.__getitem__, js))):
                quot[weights[r]] = c
            q[r] = c
    return quot


def unfold(rs: RootSystem, dominant: dict[Weight, int]) -> LaurentPoly:
    """The invariant Laurent polynomial with these dominant coefficients."""
    lams = list(dominant)
    terms = {mu: dominant[lam] for w in rs.elements for lam, mu in zip(lams, act_all(rs, w, lams))}
    return LaurentPoly(rs.rank, terms)


def variable_laurents(rs: RootSystem, kind: Kind) -> tuple[LaurentPoly, ...]:
    """Laurent expansions of the polynomial variables, one per rank.

    First kind: the plain orbit sum of each fundamental weight.  Second
    kind: the Weyl character quotient A_{rho+lambda_i} / A_rho, which
    carries leading coefficient 1.
    """
    if kind is Kind.FIRST:
        return tuple(orbit_sum(rs, unit_weight(rs, i)) for i in range(rs.rank))
    shifted = (tuple(map(add, rs.rho, unit_weight(rs, i))) for i in range(rs.rank))
    table = RacahTable(DominantIndex(rs))
    return tuple(unfold(rs, exact_divide(table, signed_orbit_sum(rs, k))) for k in shifted)

"""Weyl-orbit sums and the variables they induce.

``orbit_sum`` runs over the whole group without normalization, so a weight
with a stabilizer of order s contributes each orbit point s times and the
orbit sum of 0 is the group order.  ``signed_orbit_sum`` weights each term
by the determinant; it vanishes exactly on chamber walls and changes by
det(w) under reflection of the index.
"""

from __future__ import annotations

from enum import Enum

from .laurent import LaurentPoly
from .rootsystem import RootSystem, Weight, act


class Kind(Enum):
    FIRST = "first"
    SECOND = "second"


def orbit_sum(rs: RootSystem, n: Weight) -> LaurentPoly:
    """Sum of z^(w.n) over every group element w."""
    acc: dict[Weight, int] = {}
    for w in rs.elements:
        exp = act(rs, w, n)
        acc[exp] = acc.get(exp, 0) + 1
    return LaurentPoly(rs.rank, acc)


def signed_orbit_sum(rs: RootSystem, k: Weight) -> LaurentPoly:
    """Sum of det(w) * z^(w.k) over every group element w."""
    acc: dict[Weight, int] = {}
    for w in rs.elements:
        exp = act(rs, w, k)
        acc[exp] = acc.get(exp, 0) + w.det
    return LaurentPoly(rs.rank, acc)


def orbit_points(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """Distinct orbit points of ``lam``, in group-element order."""
    return tuple(dict.fromkeys(act(rs, w, lam) for w in rs.elements))


def unit_weight(rs: RootSystem, i: int) -> Weight:
    return tuple(1 if j == i else 0 for j in range(rs.rank))


def variable_laurents(rs: RootSystem, kind: Kind) -> tuple[LaurentPoly, ...]:
    """Laurent expansions of the polynomial variables, one per rank.

    First kind: the plain orbit sum of each fundamental weight.  Second
    kind: the Weyl character quotient of signed orbit sums, which carries
    leading coefficient 1.
    """
    if kind is Kind.FIRST:
        return tuple(orbit_sum(rs, unit_weight(rs, i)) for i in range(rs.rank))

    from .laurent import exact_divide

    den = signed_orbit_sum(rs, rs.rho)
    out = []
    for i in range(rs.rank):
        shifted = tuple(r + u for r, u in zip(rs.rho, unit_weight(rs, i)))
        out.append(exact_divide(signed_orbit_sum(rs, shifted), den))
    return tuple(out)

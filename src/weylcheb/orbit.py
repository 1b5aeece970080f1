"""Weyl-orbit sums, the one exact division, and the variables they induce.

``orbit_sum`` runs over the whole group without normalization, so a weight
with a stabilizer of order s contributes each orbit point s times and the
orbit sum of 0 is the group order.  ``signed_orbit_sum`` weights each term
by the determinant; it vanishes exactly on chamber walls and changes by
det(w) under reflection of the index.  ``exact_divide`` divides an
anti-invariant by A_rho in the dominant chamber and returns the dominant
coefficients of the invariant quotient; ``unfold`` spreads dominant
coefficients back over their orbits.  Both kinds of variable, and every
second-kind polynomial on the generating-function route, come from them.
"""

from __future__ import annotations

from enum import Enum
from operator import add, sub

from .laurent import LaurentPoly, NonDivisibleError
from .rootsystem import RootSystem, Weight, act, check_symmetry, dominant_sweep, fold, height


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
    """The fundamental weight of axis ``i``: an ``int``, not a ``bool``, in
    ``range(rs.rank)``."""
    if type(i) is not int or not 0 <= i < rs.rank:
        raise ValueError(f"a rank-{rs.rank} root system has axes 0 to {rs.rank - 1}, got {i!r}")
    return tuple(1 if j == i else 0 for j in range(rs.rank))


def exact_divide(
    rs: RootSystem, numerator: LaurentPoly, denominator: LaurentPoly
) -> dict[Weight, int]:
    """Dominant coefficients of the invariant quotient ``numerator / A_rho``,
    by Racah's recursion (Humphreys, Lie Algebras, section 24):
    q[mu] = num[mu+rho] - sum over e != rho of den[e] q[dom(mu+rho-e)].
    rho - e is a nonzero sum of positive roots and folding raises a weight,
    so ``dominant_sweep`` has fixed each q looked up.  By the Weyl character
    formula the division is exact, with no remainder to sweep, when the
    numerator is anti-invariant and the denominator is A_rho: anti-invariant,
    with rho its only strictly dominant term, at coefficient 1.  Both are
    checked; a failure raises NonDivisibleError."""
    num, den, rho = numerator._terms, denominator._terms, rs.rho
    check_symmetry(rs, num, -1, NonDivisibleError, "the numerator")
    check_symmetry(rs, den, -1, NonDivisibleError, "the denominator")
    strict = {e: c for e, c in den.items() if min(e) > 0}
    if strict != {rho: 1}:
        raise NonDivisibleError(f"the denominator is not A_rho: strictly dominant terms {strict}")
    rest = [(tuple(map(sub, rho, e)), c) for e, c in den.items() if e != rho]
    top = max((height(rs, tuple(map(sub, nu, rho))) for nu in num if min(nu) > 0), default=-1)
    folds: dict[Weight, Weight] = {}  # nu -> dom(nu)
    quot: dict[Weight, int] = {}
    for mu in dominant_sweep(rs, top):
        coeff = num.get(tuple(map(add, mu, rho)), 0)
        for offset, c in rest:
            nu = tuple(map(add, mu, offset))
            dom = folds.get(nu)
            if dom is None:
                dom = folds[nu] = fold(rs, nu)[1]
            coeff -= c * quot.get(dom, 0)
        if coeff:
            quot[mu] = coeff
    return quot


def unfold(rs: RootSystem, dominant: dict[Weight, int]) -> LaurentPoly:
    """The invariant Laurent polynomial with these dominant coefficients."""
    terms = {mu: c for lam, c in dominant.items() for mu in orbit_points(rs, lam)}
    return LaurentPoly(rs.rank, terms)


def variable_laurents(rs: RootSystem, kind: Kind) -> tuple[LaurentPoly, ...]:
    """Laurent expansions of the polynomial variables, one per rank.

    First kind: the plain orbit sum of each fundamental weight.  Second
    kind: the Weyl character quotient A_{rho+lambda_i} / A_rho, which
    carries leading coefficient 1.
    """
    if kind is Kind.FIRST:
        return tuple(orbit_sum(rs, unit_weight(rs, i)) for i in range(rs.rank))
    den = signed_orbit_sum(rs, rs.rho)
    out = []
    for i in range(rs.rank):
        num = signed_orbit_sum(rs, tuple(map(add, rs.rho, unit_weight(rs, i))))
        out.append(unfold(rs, exact_divide(rs, num, den)))
    return tuple(out)

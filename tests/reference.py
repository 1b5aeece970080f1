"""Operations on the package's polynomials that only the tests use, each a
second, plain path to something a route depends on."""

from __future__ import annotations

from fractions import Fraction
from math import prod

from weylcheb import LaurentPoly, act
from weylcheb.orbit import orbit_points


def expand(basis, p):
    """Substitute the variable expansions back into ``p``: the dominant
    coefficients of its monomials are summed, then unfolded once over the
    orbits."""
    acc = {}
    for deg, coeff in p._terms.items():
        for lam, c in basis._dominant_monomial(deg).items():
            acc[lam] = acc.get(lam, 0) + coeff * c
    rs = basis.rs
    return LaurentPoly(rs.rank, {mu: c for lam, c in acc.items() for mu in orbit_points(rs, lam)})


def evaluate(poly, point):
    """Value of ``poly`` at ``point``: exact for exact coordinates, complex
    for complex ones.  A Laurent polynomial needs every coordinate nonzero,
    since negative exponents need inverses."""
    if len(point) != poly.rank:
        raise ValueError("point rank mismatch")
    if isinstance(poly, LaurentPoly) and 0 in point:
        raise ValueError("evaluation point has a zero coordinate")
    return sum(c * prod(z**e for z, e in zip(point, exp)) for exp, c in poly._terms.items())


def apply_weyl(poly, rs, w):
    """Move the exponents of a Laurent polynomial through the group element
    ``w``.  Exponent maps are bijective, so no two terms collide."""
    return LaurentPoly(poly.rank, {act(rs, w, e): c for e, c in poly._terms.items()})


def from_json_obj(cls, rank, obj):
    """The polynomial of type ``cls`` whose ``to_json_obj`` is ``obj``."""
    return cls(rank, {tuple(rec[cls._json_key]): Fraction(rec["coeff"]) for rec in obj})

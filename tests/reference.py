"""Operations on the package's polynomials that only the tests use, each a
second, plain path to something a route depends on."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from weylcheb import LaurentPoly, NonDivisibleError, act, is_dominant
from weylcheb.laurent import _norm_coeff
from weylcheb.orbit import orbit_points

# The most box positions exact_divide sweeps; a larger box is rejected up front.
_DIVIDE_STEP_CAP = 10_000_000


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


def dominant_representative(rs, mu):
    """First group element (in closure order) sending ``mu`` into the closed
    dominant chamber, together with the image: a scan of all |W| elements,
    the reference for ``rootsystem.fold``.

    Every orbit meets the closed chamber in exactly one point, so the image
    is canonical even though the witnessing element need not be.
    """
    for w in rs.elements:
        image = act(rs, w, mu)
        if is_dominant(image):
            return w, image
    raise RuntimeError("orbit failed to meet the dominant chamber")


def leading(poly):
    """The lexicographically highest term of a nonzero Laurent polynomial."""
    if not poly:
        raise ValueError("zero polynomial has no leading term")
    exp = max(poly._terms)
    return exp, poly._terms[exp]


def exact_divide(num, den):
    """Quotient ``num / den`` of Laurent polynomials when the division is
    exact: the general division, the reference for ``orbit.exact_divide``.

    An exact quotient lies in the box [min num - min den, max num - max den],
    taken per coordinate: the Newton polytope of a product is the sum of its
    factors' (Ostrowski), so in each coordinate the top and bottom exponents
    of a product are the sums of its factors'.  The box is swept once in
    decreasing lexicographic order.  At each point q the remainder term at
    q + lead(den) is final, because every later subtraction lands
    lexicographically below it, so it fixes the coefficient of z^q.  A box
    with more than ``_DIVIDE_STEP_CAP`` points is rejected before any
    elimination, and a remainder left after the sweep means the division was
    not exact; both raise NonDivisibleError, whose message names the check
    that failed.
    """
    if num.rank != den.rank:
        raise ValueError("rank mismatch")
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPoly.zero(num.rank)

    lead, lead_coeff = leading(den)
    num_cols, den_cols = list(zip(*num._terms)), list(zip(*den._terms))
    lo = tuple(min(a) - min(b) for a, b in zip(num_cols, den_cols))
    hi = tuple(max(a) - max(b) for a, b in zip(num_cols, den_cols))
    # Each point of the box, shifted by lead, is the remainder exponent it clears.
    spans = [range(h + e, o + e - 1, -1) for o, h, e in zip(lo, hi, lead)]
    size = prod(map(len, spans))
    if size > _DIVIDE_STEP_CAP:
        raise NonDivisibleError(
            f"division not attempted: the quotient box {lo} to {hi} has {size}"
            f" positions, over the cap {_DIVIDE_STEP_CAP}"
        )
    # The rest of the divisor, as offsets from its leading exponent.
    rest = [
        (tuple(a - b for a, b in zip(exp, lead)), c)
        for exp, c in den._terms.items()
        if exp != lead
    ]
    rem = dict(num._terms)
    quot = {}
    for point in product(*spans):
        coeff = rem.pop(point, 0)
        if not coeff:
            continue
        qc = _norm_coeff(Fraction(coeff) / Fraction(lead_coeff))
        quot[tuple(a - b for a, b in zip(point, lead))] = qc
        for offset, c in rest:
            key = tuple(a + b for a, b in zip(point, offset))
            new = rem.get(key, 0) - qc * c
            if new:
                rem[key] = new
            else:
                del rem[key]
    if rem:
        top = max(rem)
        qexp = tuple(a - b for a, b in zip(top, lead))
        raise NonDivisibleError(
            f"nonzero remainder: {len(rem)} term(s) left, led by z^{top};"
            f" quotient exponent {qexp} lies outside the box {lo} to {hi}"
        )
    return LaurentPoly(num.rank, quot)

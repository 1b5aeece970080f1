"""Operations on the package's polynomials that only the tests use, each a
second, plain path to something a route depends on."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from weylcheb import LaurentPoly, NonDivisibleError, RationalGF, XYPoly, act, second_kind_table
from weylcheb.genfunc import denominator_coeffs
from weylcheb.orbit import unfold
from weylcheb.laurent import _norm_coeff

# The most box positions exact_divide sweeps; a larger box is rejected up front.
_DIVIDE_STEP_CAP = 10_000_000


def expand(basis, p):
    """Substitute the variable expansions back into ``p``: its coefficients,
    each scaled by prod(lead_i ^ d_i), times the dominant coefficients of
    the cached X-monomials, summed and then unfolded once."""
    acc = {}
    for deg, coeff in p._terms.items():
        scaled = coeff * prod(map(pow, basis.leads, deg))
        for mu, c in dominant_monomial(basis, deg).items():
            acc[mu] = acc.get(mu, 0) + scaled * c
    return unfold(basis.rs, acc)


def dominant_monomial(basis, deg):
    """The cached X-monomial of ``deg`` as {weight: coefficient}: its list
    by rank, read through the basis's index."""
    ranked = basis._dominant_monomial(tuple(deg))
    weights = basis.index.cosets[basis.index.where[tuple(deg)][0]]
    return {mu: c for mu, c in zip(weights, ranked) if c}


def orbit_points(rs, lam):
    """Distinct orbit points of ``lam``, in group-element order."""
    return tuple(dict.fromkeys(act(rs, w, lam) for w in rs.elements))


def product_rule(basis, lam, i):
    """Dominant terms of m_lam * X_i, m_lam the sum over the distinct orbit
    points of lam, as {weight: coefficient}: every orbit point added to
    every term of x_i, the reference for ``VariableBasis._product_rule``."""
    acc = {}
    for mu in orbit_points(basis.rs, lam):
        for nu, c in basis.var_laurents[i]._terms.items():
            exp = tuple(a + b for a, b in zip(mu, nu))
            if min(exp) >= 0:
                acc[exp] = acc.get(exp, 0) + c
    return {exp: Fraction(c, basis.leads[i]) for exp, c in acc.items() if c}


def is_dominant(mu):
    """Whether ``mu`` lies in the closed dominant chamber."""
    return all(c >= 0 for c in mu)


def evaluate(poly, point):
    """Value of ``poly`` at ``point``: exact for exact coordinates, complex
    for complex ones.  A Laurent polynomial needs every coordinate nonzero,
    since negative exponents need inverses."""
    if len(point) != poly.rank:
        raise ValueError("point rank mismatch")
    if isinstance(poly, LaurentPoly) and 0 in point:
        raise ValueError("evaluation point has a zero coordinate")
    return sum(c * prod(z**e for z, e in zip(point, exp)) for exp, c in poly._terms.items())


def power_chains(axes, extents):
    """Each axis's powers z^e for lo <= e <= hi as (re, im) integers with
    96 fractional bits, stepped outward from z^0 by the four-multiply
    complex product: the reference for ``numeric._power_chains``.  A chain
    lists z^0 .. z^hi and then z^lo .. z^-1, so indexing it by e reads z^e."""
    bits = 96
    one = 1 << bits
    chains = []
    for (re, im), (lo, hi) in zip(axes, extents):
        norm = (re * re + im * im) >> bits
        inverse = ((re << bits) // norm, (-im << bits) // norm)
        up, down = [(one, 0)], []
        for (br, bi), count, chain in (((re, im), hi, up), (inverse, -lo, down)):
            ar, ai = one, 0
            for _ in range(count):
                ar, ai = (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits
                chain.append((ar, ai))
        chains.append(up + down[::-1])
    return chains


def fixed_value(chains, laurent):
    """The Laurent polynomial at the chains' point: in rank 2 each term is
    its x-power times its y-power by the four-multiply product, truncated
    to 96 fractional bits, then times its coefficient.  The reference for
    ``numeric._planned_value``."""
    bits = 96
    acc_re = acc_im = 0
    if len(chains) == 1:
        (chain,) = chains
        for (e,), coeff in laurent._terms.items():
            wr, wi = chain[e]
            acc_re += coeff * wr
            acc_im += coeff * wi
        return (acc_re, acc_im)
    x_chain, y_chain = chains
    for (ex, ey), coeff in laurent._terms.items():
        ar, ai = x_chain[ex]
        br, bi = y_chain[ey]
        acc_re += coeff * ((ar * br - ai * bi) >> bits)
        acc_im += coeff * ((ar * bi + ai * br) >> bits)
    return (acc_re, acc_im)


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


def closed_form_both_axes(rs, basis):
    """The closed form with its numerator convolved over both axes at once,
    K[i, j] = sum over a <= i, b <= j of T[a, b] P1[i - a] P2[j - b]: the
    reference for ``genfunc.closed_form_gf``, which convolves one axis at
    a time."""
    dens = tuple(denominator_coeffs(rs, basis, i) for i in range(2))
    deg1, deg2 = (len(coeffs) - 1 for coeffs in dens)
    table = second_kind_table(rs, basis, deg1, deg2)
    numerator = {}
    for i in range(deg1 + 1):
        for j in range(deg2 + 1):
            acc = XYPoly.zero(2)
            for a in range(i + 1):
                for b in range(j + 1):
                    acc = acc + table[(a, b)] * dens[0][i - a] * dens[1][j - b]
            if acc:
                numerator[(i, j)] = acc
    return RationalGF(denominators=dens, numerator=numerator)

"""Generating-function route to the polynomials.

The generating functions are traces of products of diagonal resolvents
(1 - p M)^{-1} where M carries the exponentials z^{w mu} on its diagonal,
one entry per group element.  Because the matrices are diagonal, series
coefficients come out in closed form: position j contributes
z^{m (w_j mu_1) + n (w_j mu_2)}, so no truncated series is ever built.
A second-kind polynomial is the trace at the rho-shifted index divided by
the trace at rho, A_rho, in the dominant chamber (``orbit.exact_divide``
over the basis's Racah table, ``VariableBasis.racah``, which reads A_rho
from the root system, so the trace at rho is never built); the dominant
coefficients of the quotient go straight to ``reduce``.  A basis computes
each polynomial once and keeps it (``VariableBasis._polys``).

For the second kind the full generating function is rational; this module
also computes its closed form: per-axis denominators P_k
(``orbit.axis_denominator`` over the variables) and the numerator table K,
the polynomial table convolved with them one axis at a time.  The tables
never read P_k, so they check the recurrence, which steps by P_k.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from .laurent import LaurentPoly, NonDivisibleError
# bench/tracing.py wraps genfunc.exact_divide (called here) and genfunc.orbit_sum (unused).
from .orbit import Kind, axis_denominator, exact_divide, orbit_sum, unit_weight
from .polynomialize import NonDominantLeaderError, NotInvariantError, VariableBasis, XYPoly
from .polynomialize import _check_basis, reduce
from .rootsystem import RootSystem, Weight, act, check_index, index_box, stabilizer_order

log = logging.getLogger(__name__)


class ConvolutionNotTerminatingError(ArithmeticError):
    """Numerator entries persist beyond the denominator degree bound."""


def diagonal_exp_matrix(rs: RootSystem, i: int) -> tuple[Weight, ...]:
    """Diagonal of the exponential matrix for the fundamental weight
    lambda_i: entry j is w_j . lambda_i, with j running over the group
    elements in root-system order (the same order for every i)."""
    lam = unit_weight(rs, i)
    return tuple(act(rs, w, lam) for w in rs.elements)


def coefficient_trace(rs: RootSystem, *index: int) -> LaurentPoly:
    """Coefficient of p1^m1 ... pd^md in the resolvent-product trace, each
    diagonal position weighted by the determinant of its group element.
    This is an independent route to the same Laurent polynomials as the
    signed orbit sums.
    """
    check_index(rs, index)
    rows, dets = _trace_rows(rs)
    coords = map(sum, map(map, repeat(mul), repeat(index), rows))
    acc: dict[Weight, int] = {}
    for exp, det in zip(zip(*[coords] * rs.rank), dets):  # rank coords per exponent
        acc[exp] = acc.get(exp, 0) + det
    return LaurentPoly._wrap(rs.rank, {exp: c for exp, c in acc.items() if c})


@lru_cache(maxsize=None)
def _trace_rows(rs: RootSystem) -> tuple[tuple[Weight, ...], tuple[int, ...]]:
    """Per diagonal position, per coordinate c, the diagonals' entries c; and the dets."""
    diagonals = [diagonal_exp_matrix(rs, i) for i in range(rs.rank)]
    rows = tuple(row for entries in zip(*diagonals) for row in zip(*entries))
    return rows, tuple(w.det for w in rs.elements)


def _cached(basis: VariableBasis, index: Weight, compute) -> XYPoly:
    """The polynomial of ``basis`` at ``index``: looked up, or computed by
    ``compute()`` and stored.  A failure names the index and stores nothing."""
    key = tuple(index)
    poly = basis._polys.get(key)
    if poly is None:
        try:
            poly = compute()
        except (NonDivisibleError, NonDominantLeaderError, NotInvariantError) as exc:
            raise type(exc)(f"at index {key}: {exc}") from exc
        basis._polys[key] = poly
    return poly


def second_kind_poly(rs: RootSystem, basis: VariableBasis, *index: int) -> XYPoly:
    """Second-kind polynomial at a dominant index: the character quotient
    at the rho-shifted index, rewritten over the variables."""
    if basis.kind is not Kind.SECOND:
        raise ValueError("second_kind_poly needs a second-kind basis")
    check_index(rs, index)
    _check_basis(rs, basis)

    def compute() -> XYPoly:
        numerator = coefficient_trace(rs, *map(add, index, rs.rho))
        return reduce(basis, exact_divide(basis.racah, numerator))

    return _cached(basis, index, compute)


def first_kind_poly(rs: RootSystem, basis: VariableBasis, n: Weight) -> XYPoly:
    """First-kind polynomial: the plain orbit sum rewritten over the
    variables (non-normalized convention, so the index 0 gives |W|); reduce
    needs only its dominant term, n once per group element fixing n."""
    if basis.kind is not Kind.FIRST:
        raise ValueError("first_kind_poly needs a first-kind basis")
    check_index(rs, n)
    _check_basis(rs, basis)
    return _cached(basis, n, lambda: reduce(basis, {tuple(n): stabilizer_order(rs, n)}))


def second_kind_table(
    rs: RootSystem, basis: VariableBasis, max_m: int, max_n: int | None = None
) -> dict[tuple[int, ...], XYPoly]:
    return {
        idx: second_kind_poly(rs, basis, *idx)
        for idx in index_box(rs.rank, max_m, max_n)
    }


def first_kind_table(
    rs: RootSystem, basis: VariableBasis, max_m: int, max_n: int | None = None
) -> dict[tuple[int, ...], XYPoly]:
    return {
        idx: first_kind_poly(rs, basis, idx)
        for idx in index_box(rs.rank, max_m, max_n)
    }


# -- closed-form rational generating function --------------------------------


@dataclass(frozen=True)
class RationalGF:
    """Closed form of the double series: numerator / (P1(p) P2(q)).

    denominators[k] lists the coefficients of P_{k+1} by ascending power of
    its formal parameter; numerator maps (i, j) to the nonzero K_ij.
    """

    denominators: tuple[tuple[XYPoly, ...], ...]
    numerator: dict[tuple[int, int], XYPoly]


def denominator_coeffs(rs: RootSystem, basis: VariableBasis, i: int) -> tuple[XYPoly, ...]:
    """The coefficients of P_{i+1}, ``orbit.axis_denominator``, each rewritten
    over the variables: elementary symmetric functions of the orbit of
    lambda_i, hence W-invariant and reducible."""
    _check_basis(rs, basis)
    reduced = tuple(reduce(basis, c) for c in axis_denominator(rs, i))
    if reduced[0] != XYPoly.constant(rs.rank, 1):
        raise RuntimeError("denominator constant term is not 1")
    return reduced


def closed_form_gf(rs: RootSystem, basis: VariableBasis) -> RationalGF:
    """Denominators from the orbit products, numerator by finite
    convolution of the polynomial table T against them, one axis at a time:
    H[a, j] = sum_b T[a, b] P2[j - b], then K[i, j] = sum_a P1[i - a] H[a, j]."""
    if rs.rank != 2:
        raise ValueError("closed form is implemented for rank-2 systems")
    if basis.kind is not Kind.SECOND:
        raise ValueError("closed form is implemented for the second kind")
    dens = tuple(denominator_coeffs(rs, basis, i) for i in range(2))
    deg1, deg2 = (len(coeffs) - 1 for coeffs in dens)
    table = second_kind_table(rs, basis, deg1, deg2)
    zero = XYPoly.zero(2)
    half = {(a, j): sum((table[(a, b)] * dens[1][j - b] for b in range(j + 1)), zero)
            for a in range(deg1 + 1) for j in range(deg2 + 1)}
    numerator: dict[tuple[int, int], XYPoly] = {}
    for i in range(deg1 + 1):
        for j in range(deg2 + 1):
            acc = sum((dens[0][i - a] * half[(a, j)] for a in range(i + 1)), zero)
            if acc:
                if i > deg1 - 1 or j > deg2 - 1:
                    raise ConvolutionNotTerminatingError(f"nonzero numerator entry at ({i}, {j})")
                numerator[(i, j)] = acc
    return RationalGF(denominators=dens, numerator=numerator)


def gf_series_check(
    gf: RationalGF, basis: VariableBasis, max_m: int, max_n: int
) -> bool:
    """Expand the closed form back into a double series by long division and
    compare every coefficient up to (max_m, max_n) with the direct route."""
    rs = basis.rs
    p_coeffs, q_coeffs = gf.denominators
    box = index_box(2, max_m, max_n)
    steps = [(a, b, p * q) for a, p in enumerate(p_coeffs)
             for b, q in enumerate(q_coeffs) if a or b]
    series: dict[tuple[int, int], XYPoly] = {}
    for m, n in box:
        acc = gf.numerator.get((m, n), XYPoly.zero(2))
        for a, b, step in steps:
            if a <= m and b <= n:
                acc = acc - step * series[(m - a, n - b)]
        series[(m, n)] = acc
    for m, n in box:
        direct = second_kind_poly(rs, basis, m, n)
        if series[(m, n)] != direct:
            got = series[(m, n)].as_text()
            log.warning("series mismatch at (%d, %d): %s != %s", m, n, got, direct.as_text())
            return False
    return True

"""Floating-point verification layer.

Angles live in the co-root basis, so a weight in fundamental-weight
coordinates pairs with the angle vector coordinate-wise: z_i = e^{2 pi i
phi_i} turns every Laurent exponential into a product of plain powers.
The defining ratio of signed orbit sums is then checked against the
polynomial at randomly sampled angles, and the value at the origin against
the classical dimension formula (exact rational arithmetic there).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .genfunc import second_kind_poly
from .orbit import Kind, signed_orbit_sum
from .polynomialize import VariableBasis, XYPoly
from .rootsystem import RootSystem, inner_weight_root, positive_roots

DEFAULT_SEED = 104729

_SINGULAR_CUTOFF = 1e-6
_IMAG_CUTOFF = 1e-12
_FIXED_BITS = 96


class AllPointsSingularError(RuntimeError):
    """Every sampled point fell within the singular cutoff."""


class AnglePoint(NamedTuple):
    phi: float
    psi: float = 0.0


@dataclass(frozen=True)
class VerificationReport:
    samples: int
    max_abs_error: float
    worst_point: AnglePoint | None
    skipped: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_error < self.tol


def _unit_circle(pt: AnglePoint, rank: int) -> tuple[complex, ...]:
    coords = (pt.phi, pt.psi)[:rank]
    return tuple(cmath.exp(2j * math.pi * c) for c in coords)


def _fixed_embed(value: float) -> int:
    return int(math.ldexp(value, _FIXED_BITS))


def _fixed_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    ar, ai = a
    br, bi = b
    return (
        (ar * br - ai * bi) >> _FIXED_BITS,
        (ar * bi + ai * br) >> _FIXED_BITS,
    )


def _fixed_complex(value: tuple[int, int]) -> complex:
    return complex(
        math.ldexp(float(value[0]), -_FIXED_BITS),
        math.ldexp(float(value[1]), -_FIXED_BITS),
    )


class _FixedPoint:
    """Laurent evaluation at one torus point in 96-fractional-bit integers.

    Near a wall of the Weyl chamber the signed sums almost cancel, and
    plain double evaluation leaves an absolute error around 1e-16 that
    the later division amplifies by 1/|denominator|.  Fixed-point keeps
    the absolute error near 2^-96, so only the relative rounding of the
    final conversion survives.  Power tables are cached per point and
    shared by every polynomial evaluated there; negative exponents use
    the fixed-point inverse of each coordinate.
    """

    __slots__ = ("axes", "_cache")

    def __init__(self, z: tuple[complex, ...]):
        self.axes = tuple(
            (_fixed_embed(c.real), _fixed_embed(c.imag)) for c in z
        )
        one = (1 << _FIXED_BITS, 0)
        self._cache = tuple({0: one, 1: axis} for axis in self.axes)

    def _inverse(self, k: int) -> tuple[int, int]:
        re, im = self.axes[k]
        norm = (re * re + im * im) >> _FIXED_BITS
        return ((re << _FIXED_BITS) // norm, (-im << _FIXED_BITS) // norm)

    def _power(self, k: int, e: int) -> tuple[int, int]:
        cache = self._cache[k]
        found = cache.get(e)
        if found is not None:
            return found
        step = 1 if e > 0 else -1
        base = cache[1] if e > 0 else cache.setdefault(-1, self._inverse(k))
        j = e
        while j - step not in cache:
            j -= step
        value = cache[j - step]
        while j != e + step:
            value = _fixed_mul(value, base)
            cache[j] = value
            j += step
        return value

    def eval(self, laurent) -> tuple[int, int]:
        acc_re = 0
        acc_im = 0
        # The sums are exact integers, so term order cannot matter.
        for exp, coeff in laurent._terms.items():
            w = self._power(0, exp[0])
            for k in range(1, len(self.axes)):
                w = _fixed_mul(w, self._power(k, exp[k]))
            acc_re += coeff * w[0]
            acc_im += coeff * w[1]
        return (acc_re, acc_im)


def _eval_poly_scaled(poly: XYPoly, nums: list[int], scale: int) -> float:
    """Exact value of the polynomial at arguments nums[k] / 2^scale.

    Terms of a high-degree polynomial can reach 1e12 while the value
    stays near 1, so summing in doubles loses most of the answer.  With
    binary-rational arguments the sum collapses to one integer over a
    power of two, and the final division rounds once.
    """
    items = poly.terms()
    if not items:
        return 0.0
    if any(not isinstance(c, int) for _, c in items):
        exact = poly.evaluate(tuple(Fraction(n, 1 << scale) for n in nums))
        return float(exact)
    top = max(sum(deg) for deg, _ in items)
    tables = []
    for k, base in enumerate(nums):
        limit = max(deg[k] for deg, _ in items)
        powers = [1]
        for _ in range(limit):
            powers.append(powers[-1] * base)
        tables.append(powers)
    acc = 0
    for deg, coeff in items:
        term = coeff
        for k, d in enumerate(deg):
            term *= tables[k][d]
        acc += term << (scale * (top - sum(deg)))
    return acc / (1 << (scale * top))


def verify_ratio(
    rs: RootSystem,
    basis: VariableBasis,
    m: int,
    n: int | None = None,
    num_samples: int = 100,
    tol: float = 1e-8,
    seed: int | None = None,
    poly: XYPoly | None = None,
) -> VerificationReport:
    """Sample the defining ratio of signed orbit sums against the
    polynomial; near-singular denominators are skipped and counted."""
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    index = (m,) if rs.rank == 1 else (m, 0 if n is None else n)
    if any(c < 0 for c in index):
        raise ValueError("indices must be nonnegative")
    if poly is None:
        poly = second_kind_poly(rs, basis, *index)
    shifted = tuple(c + 1 for c in index)
    numerator = signed_orbit_sum(rs, shifted)
    denominator = signed_orbit_sum(rs, rs.rho)
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    max_err = 0.0
    worst: AnglePoint | None = None
    skipped = 0
    used = 0
    imag_limit = _fixed_embed(_IMAG_CUTOFF)
    for _ in range(num_samples):
        pt = AnglePoint(rng.random(), rng.random() if rs.rank == 2 else 0.0)
        fp = _FixedPoint(_unit_circle(pt, rs.rank))
        den_val = _fixed_complex(fp.eval(denominator))
        if abs(den_val) < _SINGULAR_CUTOFF:
            skipped += 1
            continue
        used += 1
        rhs = _fixed_complex(fp.eval(numerator)) / den_val
        variables = [fp.eval(v) for v in basis.var_laurents]
        for _, v_im in variables:
            if abs(v_im) >= imag_limit:
                raise ArithmeticError(
                    f"variable value is not real at {pt}"
                )
        lhs = _eval_poly_scaled(poly, [v_re for v_re, _ in variables], _FIXED_BITS)
        err = abs(lhs - rhs)
        if err > max_err or worst is None:
            max_err = err
            worst = pt
    if used == 0:
        raise AllPointsSingularError(
            f"all {num_samples} samples were within {_SINGULAR_CUTOFF} of a wall"
        )
    return VerificationReport(
        samples=num_samples,
        max_abs_error=max_err,
        worst_point=worst,
        skipped=skipped,
        tol=tol,
    )


def weyl_dimension(rs: RootSystem, index: tuple[int, ...]) -> int:
    """Classical dimension formula, evaluated with exact rationals over the
    positive roots."""
    if len(index) != rs.rank:
        raise ValueError("index rank mismatch")
    shifted = tuple(c + 1 for c in index)
    value = Fraction(1)
    for alpha in positive_roots(rs):
        value *= Fraction(
            inner_weight_root(rs, shifted, alpha),
            inner_weight_root(rs, rs.rho, alpha),
        )
    if value.denominator != 1:
        raise ArithmeticError("dimension did not come out integral")
    return int(value)


def dimension_check(
    rs: RootSystem,
    basis: VariableBasis,
    m: int,
    n: int | None = None,
) -> tuple[int, int]:
    """Exact substitution at the origin against the dimension formula.

    At the origin every exponential is 1, so each variable value is just
    the coefficient sum of its Laurent expansion; the substitution stays
    in exact arithmetic.
    """
    if basis.kind is not Kind.SECOND:
        raise ValueError("dimension_check needs a second-kind basis")
    index = (m,) if rs.rank == 1 else (m, 0 if n is None else n)
    origin = tuple(
        sum(laurent._terms.values()) for laurent in basis.var_laurents
    )
    poly = second_kind_poly(rs, basis, *index)
    left = poly.evaluate(origin)
    if isinstance(left, Fraction):
        if left.denominator != 1:
            raise ArithmeticError("polynomial value at the origin not integral")
        left = int(left)
    return left, weyl_dimension(rs, index)

"""Floating-point verification layer.

Angles live in the co-root basis, so a weight in fundamental-weight
coordinates pairs with the angle vector coordinate-wise: z_i = e^{2 pi i
phi_i} turns every Laurent exponential into a product of plain powers.
The defining ratio of signed orbit sums is then checked against the
polynomial at randomly sampled angles, and the value at the origin against
the classical dimension formula (exact rational arithmetic there).

The seeded points, the Weyl denominator and the variable values there do
not depend on the index, so each basis draws and evaluates them once per
(seed, sample count) and every index reads them back; only the numerator
and the polynomial are evaluated per index.  Fixed-point power tables are
built per call.  Fixed-point values are exact functions of the point, so
the reports are bit-identical to evaluating everything afresh.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .genfunc import second_kind_poly
from .orbit import Kind, signed_orbit_sum
from .polynomialize import VariableBasis, XYPoly, _check_basis
from .rootsystem import RootSystem, check_index, check_weight

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


def _fixed_axes(pt: AnglePoint, rank: int) -> tuple[tuple[int, int], ...]:
    """The torus point e^{2 pi i phi_k} of these angles, embedded."""
    coords = (pt.phi, pt.psi)[:rank]
    return tuple(
        (_fixed_embed(z.real), _fixed_embed(z.imag))
        for z in (cmath.exp(2j * math.pi * c) for c in coords)
    )


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


def _fixed_eval(axes: tuple[tuple[int, int], ...], laurent) -> tuple[int, int]:
    """Laurent evaluation at one torus point in 96-fractional-bit integers.

    Near a wall of the Weyl chamber the signed sums almost cancel, and
    plain double evaluation leaves an absolute error around 1e-16 that
    the later division amplifies by 1/|denominator|.  Fixed-point keeps
    the absolute error near 2^-96, so only the relative rounding of the
    final conversion survives.  Each axis's powers are built per call,
    outward from exponent 0: upward by the coordinate, downward by its
    fixed-point inverse.
    """
    terms = laurent._terms
    one = (1 << _FIXED_BITS, 0)
    tables = []
    for axis, column in zip(axes, zip(*terms)):
        re, im = axis
        norm = (re * re + im * im) >> _FIXED_BITS
        inverse = ((re << _FIXED_BITS) // norm, (-im << _FIXED_BITS) // norm)
        powers = {0: one}
        for base, step, stop in ((axis, 1, max(column)), (inverse, -1, min(column))):
            value = one
            for e in range(step, stop + step, step):
                value = powers[e] = _fixed_mul(value, base)
        tables.append(powers)
    acc_re = 0
    acc_im = 0
    # The sums are exact integers, so term order cannot matter.
    for exp, coeff in terms.items():
        w = tables[0][exp[0]]
        for k in range(1, len(tables)):
            w = _fixed_mul(w, tables[k][exp[k]])
        acc_re += coeff * w[0]
        acc_im += coeff * w[1]
    return (acc_re, acc_im)


class _Sample(NamedTuple):
    """A torus point off the singular set, with its index-free values."""

    point: AnglePoint
    axes: tuple[tuple[int, int], ...]
    denominator: complex
    variables: tuple[int, ...]  # real parts, fixed point


class _TorusSamples(NamedTuple):
    used: tuple[_Sample, ...]
    skipped: int


def _draw_samples(basis: VariableBasis, seed: int, num_samples: int) -> _TorusSamples:
    """Draw the seeded points and evaluate the Weyl denominator and the
    variables there; raises before returning if a variable is not real."""
    rs = basis.rs
    denominator = signed_orbit_sum(rs, rs.rho)
    rng = random.Random(seed)
    imag_limit = _fixed_embed(_IMAG_CUTOFF)
    used = []
    skipped = 0
    for _ in range(num_samples):
        pt = AnglePoint(rng.random(), rng.random() if rs.rank == 2 else 0.0)
        axes = _fixed_axes(pt, rs.rank)
        den_val = _fixed_complex(_fixed_eval(axes, denominator))
        if abs(den_val) < _SINGULAR_CUTOFF:
            skipped += 1
            continue
        variables = [_fixed_eval(axes, v) for v in basis.var_laurents]
        if any(abs(v_im) >= imag_limit for _, v_im in variables):
            raise ArithmeticError(f"variable value is not real at {pt}")
        used.append(_Sample(pt, axes, den_val, tuple(re for re, _ in variables)))
    return _TorusSamples(tuple(used), skipped)


def _torus_samples(basis: VariableBasis, seed: int, num_samples: int) -> _TorusSamples:
    """The basis's samples for this seed and count, drawn on first use.

    The cache keeps only the most recent key, so its memory stays linear
    in the sample count; a failed draw stores nothing.  Concurrent callers
    at worst draw the same samples twice.
    """
    key = (seed, num_samples)
    samples = basis._torus_samples.get(key)
    if samples is None:
        samples = _draw_samples(basis, seed, num_samples)
        basis._torus_samples.clear()
        basis._torus_samples[key] = samples
    return samples


def _scaled_evaluator(poly: XYPoly, scale: int) -> tuple[Callable[[Sequence[int]], int], int]:
    """Exact value of the polynomial at arguments nums[k] / 2^scale, as an
    evaluator of the integer sum and the one denominator it is over.

    Terms of a high-degree polynomial can reach 1e12 while the value
    stays near 1, so summing in doubles loses most of the answer.  With
    binary-rational arguments the sum collapses to one integer over a
    power of two, and dividing the two rounds once.  Fractional
    coefficients go over their common denominator into the same sum.  The
    integer sum is exact, so term order cannot matter.
    """
    items = poly._terms.items()
    common = math.lcm(*(coeff.denominator for _, coeff in items))
    top = max((sum(deg) for deg, _ in items), default=0)
    limits = [max((deg[k] for deg, _ in items), default=0) for k in range(poly.rank)]
    shifted = [
        (deg, coeff.numerator * (common // coeff.denominator), scale * (top - sum(deg)))
        for deg, coeff in items
    ]
    denominator = common << (scale * top)

    def evaluate(nums: Sequence[int]) -> int:
        tables = []
        for base, limit in zip(nums, limits):
            powers = [1]
            for _ in range(limit):
                powers.append(powers[-1] * base)
            tables.append(powers)
        acc = 0
        for deg, coeff, shift in shifted:
            term = coeff
            for table, d in zip(tables, deg):
                term *= table[d]
            acc += term << shift
        return acc

    return evaluate, denominator


def verify_ratio(
    rs: RootSystem,
    basis: VariableBasis,
    *index: int,
    num_samples: int = 100,
    tol: float = 1e-8,
    seed: int | None = None,
    poly: XYPoly | None = None,
) -> VerificationReport:
    """Sample the defining ratio of signed orbit sums against the
    polynomial; near-singular denominators are skipped and counted.

    The points, the denominator and the variable values come from the
    basis's sample cache, so a run over many indices with one seed and
    sample count evaluates only each index's numerator.
    """
    if basis.kind is not Kind.SECOND:
        raise ValueError("verify_ratio needs a second-kind basis")
    if type(num_samples) is not int or num_samples <= 0:
        raise ValueError(f"num_samples must be a positive integer, got {num_samples!r}")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    check_index(rs, index)
    _check_basis(rs, basis)
    if poly is None:
        poly = second_kind_poly(rs, basis, *index)
    numerator = signed_orbit_sum(rs, tuple(c + 1 for c in index))
    samples = _torus_samples(basis, DEFAULT_SEED if seed is None else seed, num_samples)
    if not samples.used:
        raise AllPointsSingularError(
            f"all {num_samples} samples were within {_SINGULAR_CUTOFF} of a wall"
        )
    evaluate, scaled_denominator = _scaled_evaluator(poly, _FIXED_BITS)
    max_err = 0.0
    worst: AnglePoint | None = None
    for sample in samples.used:
        num_val = _fixed_complex(_fixed_eval(sample.axes, numerator))
        err = abs(evaluate(sample.variables) / scaled_denominator - num_val / sample.denominator)
        if err > max_err or worst is None:
            max_err = err
            worst = sample.point
    return VerificationReport(
        samples=num_samples,
        max_abs_error=max_err,
        worst_point=worst,
        skipped=samples.skipped,
        tol=tol,
    )


def weyl_dimension(rs: RootSystem, index: tuple[int, ...]) -> int:
    """Weyl dimension formula over the positive coroots c: the product of
    <lambda + rho, c> / <rho, c>, in exact integers."""
    check_weight(rs, index)
    shifted = tuple(c + r for c, r in zip(index, rs.rho))
    numerator = denominator = 1
    for coroot in rs.positive_coroots:
        numerator *= sum(a * b for a, b in zip(coroot, shifted))
        denominator *= sum(a * b for a, b in zip(coroot, rs.rho))
    value, rest = divmod(numerator, denominator)
    if rest:
        raise ArithmeticError("dimension did not come out integral")
    return value


def dimension_check(
    rs: RootSystem,
    basis: VariableBasis,
    *index: int,
    poly: XYPoly | None = None,
) -> tuple[int, int]:
    """Exact substitution at the origin against the dimension formula.

    At the origin every exponential is 1, so each variable value is just
    the coefficient sum of its Laurent expansion; the substitution is the
    exact evaluator at integer arguments (scale 0).
    """
    if basis.kind is not Kind.SECOND:
        raise ValueError("dimension_check needs a second-kind basis")
    check_index(rs, index)
    _check_basis(rs, basis)
    origin = tuple(
        sum(laurent._terms.values()) for laurent in basis.var_laurents
    )
    if poly is None:
        poly = second_kind_poly(rs, basis, *index)
    evaluate, denominator = _scaled_evaluator(poly, 0)
    left, rest = divmod(evaluate(origin), denominator)
    if rest:
        raise ArithmeticError("polynomial value at the origin not integral")
    return left, weyl_dimension(rs, index)

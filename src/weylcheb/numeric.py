"""Floating-point verification layer.

Angles live in the co-root basis, so a weight in fundamental-weight
coordinates pairs with the angle vector coordinate-wise: z_i = e^{2 pi i
phi_i} turns every Laurent exponential into a product of plain powers.
The defining ratio of signed orbit sums is then checked against the
polynomial at randomly sampled angles, and the value at the origin against
the classical dimension formula (exact rational arithmetic there).

The seeded points, the Weyl denominator and the variable values there do
not depend on the index, so a verify run (``sample_numerators``) draws and
evaluates them once for all its indices.  Numerators are evaluated
sample-major, one block of indices at a time: at each used point one
fixed-point power chain per axis reaches the exponents of every index in
the block, each index's terms are read from it, and the chain is dropped
with the point.  Fixed-point values are exact functions of the point, and
a chain value does not depend on how far the chain reaches, so the reports
are bit-identical to evaluating every index afresh.  With k = br (ar + ai),
ar br - ai bi = k - ai (br + bi) and ar bi + ai br = k + ar (bi - br) in
integers: a product a b truncates alike with three multiplications or four.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterator, NamedTuple, Sequence

from .genfunc import second_kind_poly
from .laurent import LaurentPoly
from .orbit import Kind, signed_orbit_sum
from .polynomialize import VariableBasis, XYPoly, _check_basis
from .rootsystem import RootSystem, check_index, check_weight

DEFAULT_SEED = 104729

_SINGULAR_CUTOFF = 1e-6
_IMAG_CUTOFF = 1e-12
_FIXED_BITS = 96
# Numerator values (one per used sample and index, about 40 bytes each) a
# run holds at once: about 42 MB, and blocks of at least 10 indices at the
# command line's largest sample count.
_MAX_HELD_VALUES = 1 << 20


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


def _fixed_complex(value: tuple[int, int]) -> complex:
    return complex(
        math.ldexp(float(value[0]), -_FIXED_BITS),
        math.ldexp(float(value[1]), -_FIXED_BITS),
    )


def _plans(laurents: Sequence[LaurentPoly]) -> tuple[tuple[tuple[int, int], ...], list[tuple]]:
    """Per axis, the lowest and the highest exponent of these Laurent
    polynomials, widened to include 0; and each one's plan: the exponents
    of its +1 terms, of its -1 terms, and its other (exponent, coeff) terms."""
    exps = [exp for laurent in laurents for exp in laurent._terms]
    plans = []
    for terms in (laurent._terms.items() for laurent in laurents):
        others = [(e, c) for e, c in terms if c * c != 1]
        plans.append(([e for e, c in terms if c == 1], [e for e, c in terms if c == -1], others))
    return tuple((min(0, *column), max(0, *column)) for column in zip(*exps)), plans


def _power_chains(
    axes: tuple[tuple[int, int], ...], extents: tuple[tuple[int, int], ...]
) -> list[list[tuple[int, int, int]]]:
    """Each axis's powers z^e for lo <= e <= hi in 96-fractional-bit
    integers, built outward from exponent 0: up by z, down by its
    fixed-point inverse.

    Near a wall of the Weyl chamber the signed sums almost cancel, and
    plain double evaluation leaves an absolute error around 1e-16 that
    the later division amplifies by 1/|denominator|.  Fixed-point keeps
    the absolute error near 2^-96, so only the relative rounding of the
    final conversion survives.  Each power is the same truncated product
    of its neighbour toward 0 whatever the extent, so a chain that reaches
    further holds the same values.  A step to a b is (k - ai (br + bi)) >> 96
    and (k + ar (bi - br)) >> 96 with k = br (ar + ai); unshifted, these are
    the integers ar br - ai bi and ar bi + ai br.  A chain lists z^0 .. z^hi,
    then z^lo .. z^-1, so indexing it by e reads z^e as the three integers
    a product reads: (re, im, re + im) on x, (re, im - re, re + im) on y.
    """
    bits = _FIXED_BITS
    one = 1 << bits
    chains = []
    for axis, ((re, im), (lo, hi)) in enumerate(zip(axes, extents)):
        norm = (re * re + im * im) >> bits
        inverse = ((re << bits) // norm, (-im << bits) // norm)
        up, down = [(one, -one if axis else 0, one)], []
        for (br, bi), count, chain in (((re, im), hi, up), (inverse, -lo, down)):
            ar, ai = one, 0
            b_sum, b_diff = br + bi, bi - br
            for _ in range(count):
                k = br * (ar + ai)
                ar, ai = (k - ai * b_sum) >> bits, (k + ar * b_diff) >> bits
                chain.append((ar, ai - ar if axis else ai, ar + ai))
        up.extend(reversed(down))
        chains.append(up)
    return chains


def _power_sum(chains: list[list[tuple[int, int, int]]], exps) -> tuple[int, int]:
    """The sum of z^e over the exponents e at the chains' torus point; in
    rank 2 each z^e is its x-power times its y-power, three multiplications."""
    if len(chains) == 1:
        (x,) = chains
        return sum(x[e][0] for (e,) in exps), sum(x[e][1] for (e,) in exps)
    x, y = chains
    re = im = 0
    for ex, ey in exps:
        xr, xi, xs = x[ex]
        yr, yd, ys = y[ey]
        k = yr * xs
        re += (k - xi * ys) >> _FIXED_BITS
        im += (k + xr * yd) >> _FIXED_BITS
    return re, im


def _planned_value(chains: list[list[tuple[int, int, int]]], plan: tuple) -> tuple[int, int]:
    """The planned Laurent polynomial at the chains' torus point, in exact
    integer sums: only a term other than +1 and -1 meets its coefficient."""
    plus, minus, others = plan
    (re, im), (minus_re, minus_im) = _power_sum(chains, plus), _power_sum(chains, minus)
    for exp, coeff in others:
        term_re, term_im = _power_sum(chains, (exp,))
        re, im = re + coeff * term_re, im + coeff * term_im
    return re - minus_re, im - minus_im


class _Sample(NamedTuple):
    """A torus point off the singular set, with its index-free values; its
    fixed-point axes are recomputed from the point when they are needed."""

    point: AnglePoint
    denominator: complex
    variables: tuple[int, ...]  # real parts, fixed point


class Sampled(NamedTuple):
    """One index's numerator values at the used samples of a
    ``sample_numerators`` run, with the run's key (basis, seed, sample
    count, index), its used samples and the count of singular ones it
    skipped."""

    key: tuple[VariableBasis, int, int, tuple[int, ...]]
    used: tuple[_Sample, ...]
    skipped: int
    values: tuple[complex, ...]


def _draw_samples(
    basis: VariableBasis, seed: int, num_samples: int
) -> tuple[tuple[_Sample, ...], int]:
    """Draw the seeded points and evaluate the Weyl denominator and the
    variables there: the used samples and the count skipped.  Raises
    before returning if a variable is not real."""
    rs = basis.rs
    denominator = signed_orbit_sum(rs, rs.rho)
    extents, (den_plan, *var_plans) = _plans((denominator, *basis.var_laurents))
    rng = random.Random(seed)
    imag_limit = _fixed_embed(_IMAG_CUTOFF)
    used = []
    skipped = 0
    for _ in range(num_samples):
        pt = AnglePoint(rng.random(), rng.random() if rs.rank == 2 else 0.0)
        chains = _power_chains(_fixed_axes(pt, rs.rank), extents)
        den_val = _fixed_complex(_planned_value(chains, den_plan))
        if abs(den_val) < _SINGULAR_CUTOFF:
            skipped += 1
            continue
        variables = [_planned_value(chains, plan) for plan in var_plans]
        if any(abs(v_im) >= imag_limit for _, v_im in variables):
            raise ArithmeticError(f"variable value is not real at {pt}")
        used.append(_Sample(pt, den_val, tuple(re for re, _ in variables)))
    return tuple(used), skipped


def _numerator_values(
    rs: RootSystem, used: Sequence[_Sample], indices: Sequence[tuple[int, ...]]
) -> list[tuple[complex, ...]]:
    """Each index's numerator A_{lambda+rho} at every used sample,
    sample-major: one power chain per axis of the sample's point reaches
    every numerator's exponents, and no chain outlives its sample."""
    numerators = [signed_orbit_sum(rs, tuple(map(add, index, rs.rho))) for index in indices]
    extents, plans = _plans(numerators)
    columns: list[list[complex]] = [[] for _ in numerators]
    for sample in used:
        chains = _power_chains(_fixed_axes(sample.point, rs.rank), extents)
        for plan, column in zip(plans, columns):
            column.append(_fixed_complex(_planned_value(chains, plan)))
    return [tuple(column) for column in columns]


def _scaled_evaluator(poly: XYPoly, scale: int) -> tuple[Callable[[Sequence[int]], int], int]:
    """Exact value of the polynomial at arguments nums[k] / 2^scale, as an
    evaluator of the integer sum and the one denominator it is over.

    Terms of a high-degree polynomial can reach 1e12 while the value
    stays near 1, so summing in doubles loses most of the answer.  With
    binary-rational arguments the sum collapses to one integer over a
    power of two, and dividing the two rounds once.  Fractional
    coefficients go over their common denominator into the same sum.  The
    integer, the sum of c X^i Y^j 2^(scale (top - i - j)), is evaluated by
    nested Horner steps, in y within each power of x and then in x; every
    step is exact, so the order cannot change it.
    """
    items = poly._terms.items()
    common = math.lcm(*(coeff.denominator for _, coeff in items))
    top = max((sum(deg) for deg, _ in items), default=0)
    rows: list[list[int]] = []  # rows[i][j]: the shifted coefficient of x^i y^j
    for deg, coeff in items:
        i, j = (*deg, 0)[:2]
        rows.extend([] for _ in range(i + 1 - len(rows)))
        rows[i].extend(0 for _ in range(j + 1 - len(rows[i])))
        rows[i][j] = coeff.numerator * (common // coeff.denominator) << (scale * (top - i - j))
    rows = [row[::-1] for row in reversed(rows)]  # Horner's order

    def evaluate(nums: Sequence[int]) -> int:
        x, y = nums[0], nums[-1]  # in rank 1 a row is one coefficient: y only multiplies 0
        acc = 0
        for row in rows:
            inner = 0
            for coeff in row:
                inner = inner * y + coeff
            acc = acc * x + inner
        return acc

    return evaluate, common << (scale * top)


def _check_request(
    rs: RootSystem,
    basis: VariableBasis,
    num_samples: int,
    seed: int,
    indices: Sequence[tuple[int, ...]],
) -> None:
    if basis.kind is not Kind.SECOND:
        raise ValueError("torus sampling needs a second-kind basis")
    if type(num_samples) is not int or num_samples <= 0:
        raise ValueError(f"num_samples must be a positive integer, got {num_samples!r}")
    if type(seed) is not int:  # random.Random(None) would draw unseeded points
        raise ValueError(f"seed must be an integer, got {seed!r}")
    for index in indices:
        check_index(rs, index)
    _check_basis(rs, basis)


def sample_numerators(
    rs: RootSystem,
    basis: VariableBasis,
    indices: Sequence[tuple[int, ...]],
    *,
    num_samples: int,
    seed: int,
) -> Iterator[Sampled]:
    """One verify run: check the arguments and draw the samples now, then
    yield each index's ``Sampled`` record in order, evaluating the
    numerators one block of at most ``_MAX_HELD_VALUES`` values (or one
    index) at a time.  Raises AllPointsSingularError here, before anything
    is yielded, when every sample is singular.
    """
    _check_request(rs, basis, num_samples, seed, indices)
    used, skipped = _draw_samples(basis, seed, num_samples)
    if not used:
        raise AllPointsSingularError(
            f"all {num_samples} samples were within {_SINGULAR_CUTOFF} of a wall"
        )
    step = max(1, _MAX_HELD_VALUES // len(used))
    blocks = (indices[start : start + step] for start in range(0, len(indices), step))
    return (
        Sampled((basis, seed, num_samples, index), used, skipped, values)
        for block in blocks
        for index, values in zip(block, _numerator_values(rs, used, block))
    )


def verify_ratio(
    rs: RootSystem,
    basis: VariableBasis,
    *index: int,
    num_samples: int = 100,
    tol: float = 1e-8,
    seed: int = DEFAULT_SEED,
    sampled: Sampled | None = None,
) -> VerificationReport:
    """Sample the defining ratio of signed orbit sums against the basis's
    polynomial at the index; near-singular denominators are skipped and
    counted.

    The samples and the numerator values come from ``sampled``, a record
    of a ``sample_numerators`` run with this basis, seed, sample count and
    index; without it, a run over this one index draws them.  The
    polynomial comes last, from ``second_kind_poly``, which computes it
    once per basis, so the samples are checked before it is computed.
    """
    _check_request(rs, basis, num_samples, seed, [index])
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    key = (basis, seed, num_samples, index)
    if sampled is None:
        (sampled,) = sample_numerators(rs, basis, [index], num_samples=num_samples, seed=seed)
    elif sampled.key != key:
        got, want = (
            f"{b.rs.algebra.value} {b.kind.value}-kind basis {id(b):#x}, "
            f"seed {s}, {n} samples, index {i}"
            for b, s, n, i in (sampled.key, key)
        )
        raise ValueError(f"sampled values of run ({got}) cannot verify run ({want})")
    poly = second_kind_poly(rs, basis, *index)
    evaluate, scaled_denominator = _scaled_evaluator(poly, _FIXED_BITS)
    max_err = 0.0
    worst: AnglePoint | None = None
    for sample, num_val in zip(sampled.used, sampled.values):
        err = abs(evaluate(sample.variables) / scaled_denominator - num_val / sample.denominator)
        if err > max_err or worst is None:
            max_err = err
            worst = sample.point
    return VerificationReport(
        samples=num_samples,
        max_abs_error=max_err,
        worst_point=worst,
        skipped=sampled.skipped,
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


def dimension_check(rs: RootSystem, basis: VariableBasis, *index: int) -> tuple[int, int]:
    """Exact substitution at the origin against the dimension formula.

    At the origin every exponential is 1, so each variable value is just
    the coefficient sum of its Laurent expansion; the substitution of the
    basis's polynomial (``second_kind_poly``) is the exact evaluator at
    integer arguments (scale 0).
    """
    if basis.kind is not Kind.SECOND:
        raise ValueError("dimension_check needs a second-kind basis")
    poly = second_kind_poly(rs, basis, *index)  # checks the index and the basis
    origin = tuple(sum(laurent._terms.values()) for laurent in basis.var_laurents)
    evaluate, denominator = _scaled_evaluator(poly, 0)
    left, rest = divmod(evaluate(origin), denominator)
    if rest:
        raise ArithmeticError("polynomial value at the origin not integral")
    return left, weyl_dimension(rs, index)

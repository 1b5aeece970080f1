"""Rewriting invariant Laurent polynomials as polynomials in the variables.

The work happens in the dominant chamber.  Every Weyl orbit meets the
closed dominant chamber exactly once, so a W-invariant Laurent polynomial,
such as a monomial in the variables, is fixed by its dominant coefficients.
``reduce`` takes an invariant Laurent polynomial, which it checks for Weyl
invariance, or just its dominant coefficients, then cancels the dominant
terms one leading weight at a time, highest first, in integers.

The monomials are built with product rules.  X_i is W-invariant, so the
product of the orbit sum m_lam with X_i is a sum of orbit sums, one
``fold`` per term of X_i (Humphreys, Lie Algebras, section 24, exercise 9;
Bourbaki, Lie Groups, ch. VI section 3).  The elimination is packed: each
dominant weight of one root-lattice coset has a slot of B bits in one
Python int, and subtracting a monomial is one big-int multiply-subtract.
Every call proves that no slot overflowed, and redoes a coset at 2B bits
when it cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add

from .laurent import LaurentPoly, SparsePoly
from .orbit import Kind, unfold, unit_weight, variable_laurents
from .rootsystem import (
    RootSystem, Weight, check_symmetry, coset, dominant_sweep, fold, height, stabilizer_order,
)


class NotInvariantError(ValueError):
    """An input to reduce() or a variable of the recurrence fill is not Weyl-invariant."""


class NonDominantLeaderError(ValueError):
    """Elimination stalled on a nonzero polynomial with no dominant term."""


# Bits per slot of the packed elimination in ``reduce``, doubled for an
# input whose slots could overflow it.
_SLOT_BITS = 64


# -- polynomials in the variables -------------------------------------------

Degree = tuple[int, ...]

_VAR_NAMES = ("x", "y")


class XYPoly(SparsePoly):
    """Polynomial in the generalized-cosine variables, exact coefficients.

    Keys are nonnegative exponent vectors over (x, y) (just (x,) at rank 1);
    canonical term order is graded lexicographic, descending, with x heavier
    than y inside a degree block.
    """

    __slots__ = ()

    _json_key = "degree"

    @staticmethod
    def _order_key(deg: Degree) -> tuple:
        return (sum(deg), deg)

    @staticmethod
    def _check_key(deg: Degree) -> None:
        if any(d < 0 for d in deg):
            raise ValueError("negative degree")

    @classmethod
    def constant(cls, rank: int, c: int | Fraction) -> "XYPoly":
        return cls(rank, {(0,) * rank: c})

    def __repr__(self) -> str:
        return f"XYPoly({self.as_text() or '0'})"

    # -- rendering -------------------------------------------------------

    def as_text(self) -> str:
        """Compact string such as ``x^{2}-x-y-1``: descending graded-lex,
        unit coefficients suppressed, LaTeX-style exponent braces."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for deg, coeff in self.terms():
            body = "".join(
                f"{_VAR_NAMES[i]}" if e == 1 else f"{_VAR_NAMES[i]}^{{{e}}}"
                for i, e in enumerate(deg)
                if e
            )
            c = Fraction(coeff)
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if not body:
                head = str(mag)
            elif mag == 1:
                head = body
            else:
                head = f"{mag}{body}"
            pieces.append(sign + head)
        return "".join(pieces).removeprefix("+")


# -- variable basis ----------------------------------------------------------

DominantCoeffs = dict[Weight, int | Fraction]


class _Slots:
    """Where ``reduce`` packs each dominant weight, for one basis.

    ``sweep`` is the ascending ``dominant_sweep`` seen so far.  Per
    root-lattice coset, ``cosets`` holds the coset's weights in that order
    and their slots, 1, 2, ... in that order; ``coset_of`` holds each
    weight's coset, and ``packed`` the monomials packed per (coset, slot
    width).  A sweep that neither extends nor continues the one seen so
    far replaces it, and every slot and packed monomial with it, so a
    packed monomial always has the slots it was packed with.
    """

    def __init__(self) -> None:
        self.sweep: list[Weight] = []
        self.coset_of: dict[Weight, Weight] = {}
        self.cosets: dict[Weight, tuple[list[Weight], dict[Weight, int]]] = {}
        self.packed: dict[tuple[Weight, int], dict[Weight, tuple[int, int]]] = {}

    def extend(self, rs: RootSystem, ascending: list[Weight]) -> None:
        """Give a slot to each weight of ``ascending`` that has none."""
        if self.sweep[: len(ascending)] != ascending[: len(self.sweep)]:
            for part in (self.sweep, self.coset_of, self.cosets, self.packed):
                part.clear()
        for mu in ascending[len(self.sweep) :]:
            cos = self.coset_of[mu] = coset(rs, mu)
            order, slots = self.cosets.setdefault(cos, ([], {}))
            self.sweep.append(mu)
            order.append(mu)
            slots[mu] = len(order)


@dataclass(frozen=True)
class VariableBasis:
    """The polynomial variables x_i of one kind over one root system, with
    their Laurent expansions and a monomial cache.

    Inside, everything is in integers over X_i = x_i / lead_i (``leads``),
    the orbit sums over distinct points, whose monomials all lead with 1;
    only ``over_x``, rewriting a result over the x_i, makes a ``Fraction``.
    An X-monomial is W-invariant, so ``_power_cache`` maps a degree vector
    to its dominant coefficients {exponent: coefficient}.  An entry is the
    entry one degree lower times one X_i, computed with product rules: the
    dominant part of (the distinct orbit points of lambda) * X_i, built
    once per (dominant lambda, i) in ``_rules`` by one fold per term of
    x_i.  ``_slots`` holds where ``reduce`` packs each dominant weight and
    the monomials it has packed there: an X-monomial led by lambda as one
    integer, sum of c << (slot(mu) * bits) over its terms c z^mu.  The dict
    caches are only ever added to, so concurrent readers at worst
    recompute; ``_slots`` grows in place, so one basis must not reduce in
    two threads at once.  The caches are not constructor arguments, so
    ``dataclasses.replace`` gives the new basis empty ones.
    """

    rs: RootSystem
    kind: Kind
    var_laurents: tuple[LaurentPoly, ...]
    _power_cache: dict[Degree, DominantCoeffs] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _rules: dict[tuple[Weight, int], tuple[tuple[Weight, int], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _slots: _Slots = field(default_factory=_Slots, init=False, repr=False, compare=False)

    @cached_property
    def leads(self) -> tuple[int, ...]:
        """Each x_i's coefficient at its fundamental weight, checked to be a
        positive int that divides every coefficient of x_i."""
        leads = tuple(v.coeff(unit_weight(self.rs, i)) for i, v in enumerate(self.var_laurents))
        for name, lead, v in zip(_VAR_NAMES, leads, self.var_laurents):
            if type(lead) is not int or lead <= 0 or any(c % lead for c in v._terms.values()):
                raise ArithmeticError(f"the lead {lead} of {name} does not divide its coefficients")
        return leads

    def over_x(self, poly: XYPoly) -> XYPoly:
        """``poly`` over the X_i rewritten over the x_i, c X^d = c / prod(lead_i^d_i) x^d.
        With every lead 1 it is ``poly`` itself."""
        if max(self.leads) == 1:
            return poly
        out = {}
        for d, c in poly._terms.items():
            s = prod(map(pow, self.leads, d))
            out[d] = c // s if c % s == 0 else Fraction(c, s)
        return XYPoly(poly.rank, out)

    def _product_rule(self, lam: Weight, i: int) -> tuple[tuple[Weight, int], ...]:
        """Dominant terms of m_lam * X_i, m_lam the sum over the distinct
        orbit points of lam.  X_i is invariant, so with c_b the coefficient
        of z^b in x_i, m_lam * X_i is the sum over b of
        c_b |W_(lam+b)| m_dom(lam+b) / (|W_lam| lead_i): one fold per term
        of x_i.  Each sum is checked to divide."""
        rule = self._rules.get((lam, i))
        if rule is None:
            rs = self.rs
            acc: dict[Weight, int] = {}
            for b, c in self.var_laurents[i]._terms.items():
                mu = fold(rs, tuple(map(add, lam, b)))[1]
                acc[mu] = acc.get(mu, 0) + c * stabilizer_order(rs, mu)
            scale = stabilizer_order(rs, lam) * self.leads[i]
            terms = []
            for mu, c in acc.items():
                q, r = divmod(c, scale)
                if r:
                    raise ArithmeticError(
                        f"the product rule of {lam} and {_VAR_NAMES[i]} does not divide at {mu}"
                    )
                if q:
                    terms.append((mu, q))
            rule = self._rules[(lam, i)] = tuple(terms)
        return rule

    def _dominant_monomial(self, degrees: Degree) -> DominantCoeffs:
        """Dominant coefficients of prod(X_i ^ degrees[i]), built
        incrementally through ``_power_cache``."""
        cached = self._power_cache.get(degrees)
        if cached is not None:
            return cached
        if not any(degrees):
            result: DominantCoeffs = {(0,) * self.rs.rank: 1}
        else:
            i = max(range(len(degrees)), key=lambda j: degrees[j])
            lower = tuple(d - 1 if j == i else d for j, d in enumerate(degrees))
            result = {}
            for lam, c in self._dominant_monomial(lower).items():
                for mu, r in self._product_rule(lam, i):
                    new = result.get(mu, 0) + c * r
                    if new:
                        result[mu] = new
                    else:
                        del result[mu]
        self._power_cache[degrees] = result
        return result

    def monomial_laurent(self, degrees: Degree) -> LaurentPoly:
        """Expansion of prod(x_i ^ degrees[i]): the cached X-monomial
        unfolded over its orbits and scaled by prod(lead_i ^ degrees[i])."""
        dominant = self._dominant_monomial(tuple(degrees))
        return unfold(self.rs, dominant).scale(prod(map(pow, self.leads, degrees)))


def build_basis(rs: RootSystem, kind: Kind) -> VariableBasis:
    """The variables of ``kind`` over ``rs``."""
    if not isinstance(kind, Kind):
        raise ValueError(f"kind must be a Kind, got {kind!r}")
    return VariableBasis(rs, kind, variable_laurents(rs, kind))


def _check_basis(rs: RootSystem, basis: VariableBasis) -> None:
    if basis.rs.algebra is not rs.algebra:
        raise ValueError(
            f"the basis was built for {basis.rs.algebra.value}, not for {rs.algebra.value}"
        )


# -- reduce ------------------------------------------------------------------


def _stalled(residue: list[Weight]) -> NonDominantLeaderError:
    return NonDominantLeaderError(
        f"elimination stalled on {len(residue)} residual term(s) with no"
        f" dominant slot, e.g. z^{max(residue)}; input was not in the"
        " invariant ring spanned by the variables"
    )


def _pack(coeffs: DominantCoeffs, slots: dict[Weight, int], bits: int) -> int:
    """sum(c << (slots[mu] * bits)), built in linear time through bytes,
    positive and negative coefficients apart; every |c| < 2^bits.  A weight
    with no slot raises NonDominantLeaderError."""
    if missing := [mu for mu in coeffs if mu not in slots]:
        raise _stalled(missing)
    width = bits // 8
    size = (max(map(slots.__getitem__, coeffs)) + 1) * width
    halves = bytearray(size), bytearray(size)
    for mu, c in coeffs.items():
        at = slots[mu] * width
        halves[c < 0][at : at + width] = abs(c).to_bytes(width, "little")
    return int.from_bytes(halves[0], "little") - int.from_bytes(halves[1], "little")


def _eliminate(
    basis: VariableBasis, cos: Weight, f: dict[Weight, int], bits: int
) -> dict[Weight, int] | None:
    """The leaders of ``f``, integer dominant coefficients in the coset
    ``cos``; None if a slot of ``bits`` could overflow.

    Weight k of the coset has slot k, bits k*B to k*B + B - 1 of one
    integer W = f - sum of c_d M_d.  The slots are read from the top
    down, each as the signed digit round(W / 2^kB) mod 2^B; a digit is
    exact when every slot of W is below 2^(B-1) in absolute value, and a
    nonzero one is a leader d, whose monomial M_d is subtracted in one
    big-int operation.  The slots of f and sum |c_d| max|M_d| below
    2^(B-2) bound every slot of W, so then W = 0 proves f = sum c_d M_d."""
    limit = 1 << (bits - 2)
    if max(map(abs, f.values())) >= limit:
        return None
    order, slots = basis._slots.cosets[cos]
    packed = basis._slots.packed.setdefault((cos, bits), {})
    work = _pack(f, slots, bits)
    half, mask = 1 << (bits - 1), (1 << bits) - 1

    def digit(k: int) -> int:
        rounded = ((work >> (k * bits - 1)) + 1) >> 1
        return ((rounded + half) & mask) - half

    out = {}
    spent = 0
    for k in range(max(map(slots.__getitem__, f)), 0, -1):
        if c := digit(k):
            lam = order[k - 1]
            entry = packed.get(lam)
            if entry is None:
                monomial = basis._dominant_monomial(lam)
                largest = max(map(abs, monomial.values()))
                if largest >= limit:
                    return None
                entry = packed[lam] = largest, _pack(monomial, slots, bits)
            spent += abs(c) * entry[0]
            if spent >= limit:
                return None
            work -= c * entry[1]
            out[lam] = c
    if work:
        raise _stalled([mu for k, mu in enumerate(order, 1) if digit(k)])
    return out


def reduce(basis: VariableBasis, f: LaurentPoly | DominantCoeffs) -> XYPoly:
    """Rewrite the invariant ``f``, a Laurent polynomial or the dict of its
    dominant coefficients, over the variables.

    Only dominant terms are worked on.  That is exact because a Laurent
    input is checked to be invariant, a dict is the dominant part of exactly
    one invariant once its keys are checked dominant, and every monomial
    subtracted is invariant.  The leaders come in ``dominant_sweep`` order
    up to the input's top height: the other terms of a monomial lie a sum
    of positive roots below its leader, hence lower in height, so each
    working coefficient is final when the sweep reaches it.  A monomial
    lies in its leader's root-lattice coset, so each coset of the input is
    eliminated apart, packed in slots over that coset's weights alone
    (``_eliminate``).  Every X-monomial leads with 1, so the elimination is
    in integers: a ``Fraction`` input is scaled by the lcm of its
    denominators and divided back at the end, and otherwise only
    ``basis.over_x``, rewriting the result over the x_i, makes a
    ``Fraction``.  Slots start at ``_SLOT_BITS`` bits, and a coset whose
    slots could overflow them is redone at twice the width.  A term with no
    slot or a residue left raises NonDominantLeaderError; a coefficient not
    an ``int`` or ``Fraction``, or a dict key not dominant, ValueError.
    """
    rs = basis.rs
    terms = f if isinstance(f, dict) else f._terms
    if terms is not f:
        check_symmetry(rs, terms, 1, NotInvariantError, "input")
        work = {exp: c for exp, c in terms.items() if min(exp) >= 0}
    elif bad := [e for e in f if len(e) != rs.rank or any(type(a) is not int or a < 0 for a in e)]:
        raise ValueError(f"dominant coefficients keyed by a non-dominant weight {bad[0]}")
    else:
        work = {exp: c for exp, c in f.items() if c}
    if not {*map(type, terms.values())} <= {int, Fraction}:
        exp, c = next((e, c) for e, c in terms.items() if type(c) not in (int, Fraction))
        raise ValueError(f"the coefficient {c!r} at weight {exp} is not an int or a Fraction")
    scale = lcm(*(c.denominator for c in work.values()))
    top = max((height(rs, exp) for exp in work), default=-1)  # no terms: no sweep
    ascending = dominant_sweep(rs, top)[::-1]
    basis._slots.extend(rs, ascending)
    coset_of, reached = basis._slots.coset_of, set(ascending)
    if outside := [exp for exp in work if exp not in reached]:
        raise _stalled(outside)
    parts: dict[Weight, dict[Weight, int]] = {}
    for exp, c in work.items():
        parts.setdefault(coset_of[exp], {})[exp] = (c * scale).numerator

    out: dict[Degree, int | Fraction] = {}
    for cos, part in parts.items():
        bits = _SLOT_BITS
        while (leaders := _eliminate(basis, cos, part, bits)) is None:
            bits *= 2
        out.update(leaders)
    if scale != 1:
        out = {exp: Fraction(c, scale) for exp, c in out.items()}
    return basis.over_x(XYPoly(rs.rank, out))

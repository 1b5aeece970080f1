"""Rewriting invariant Laurent polynomials as polynomials in the variables.

The work happens in the dominant chamber.  Every Weyl orbit meets the
closed dominant chamber exactly once, so a W-invariant Laurent polynomial,
such as a monomial in the variables, is fixed by its dominant coefficients.
``reduce`` takes an invariant Laurent polynomial, which it checks for Weyl
invariance, or just its dominant coefficients, then cancels the dominant
terms one leading weight at a time, highest first, in integers.

Every dominant weight has one place, its coset and rank in the basis's
``DominantIndex``, and everything here is a list by rank.  The monomials
are built with product rules.  X_i is W-invariant, so the product of the
orbit sum m_lam with X_i is a sum of orbit sums, one ``fold`` per term of
X_i (Humphreys, Lie Algebras, section 24, exercise 9; Bourbaki, Lie
Groups, ch. VI section 3); a rule is folded once per (weight, axis) and
kept as target ranks.  The elimination is packed: the weight of rank r
in one root-lattice coset has slot r + 1 of B bits in one Python int,
and subtracting a monomial is one big-int multiply-subtract.  Every call
proves that no slot overflowed, and redoes a coset at 2B bits when it
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, repeat
from math import lcm, prod
from operator import add, attrgetter
from struct import pack

from .laurent import LaurentPoly, SparsePoly
from .orbit import Kind, RacahTable, unfold, unit_weight, variable_laurents
from .rootsystem import (
    DominantIndex, RootSystem, Weight, check_symmetry, fold, stabilizer_order,
)


class NotInvariantError(ValueError):
    """An input to reduce() or a variable of the recurrence fill is not Weyl-invariant."""


class NonDominantLeaderError(ValueError):
    """Elimination stalled on a nonzero polynomial with no dominant term."""


# Bits per slot of a coset's first packed elimination in ``reduce``,
# doubled for an input whose slots could overflow it.
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
        return _sum_text(self._terms, *_lexicon([self], _monomial_text))


def _lexicon(polys, text) -> tuple[dict, dict]:
    """Each degree of ``polys``: its rank in descending canonical order, and its ``text``."""
    degrees = set().union(*map(attrgetter("_terms"), polys))
    order = sorted(degrees, key=XYPoly._order_key, reverse=True)
    return {d: r for r, d in enumerate(order)}, dict(zip(order, map(text, order)))


def _monomial_text(deg: Degree) -> str:
    """``deg``'s monomial without its coefficient, such as ``x^{2}y``."""
    return "".join(
        _VAR_NAMES[i] if e == 1 else f"{_VAR_NAMES[i]}^{{{e}}}" for i, e in enumerate(deg) if e
    )


_UNIT_TEXT = {"1": "", "-1": "-"}  # a unit coefficient shows only its sign


def _sum_text(terms: dict, rank: dict, body: dict) -> str:
    """The sum of the ``terms`` in ``rank`` order, each coefficient's ``str``
    before its monomial's ``body``; no Python function runs per int term."""
    keys = sorted(terms, key=rank.__getitem__)
    if not keys:
        return "0"
    coeffs = list(map(str, map(terms.__getitem__, keys)))
    units = coeffs[: len(keys) - (not any(keys[-1]))]  # all but a constant term
    coeffs[: len(units)] = map(_UNIT_TEXT.get, units, units)
    # a monomial has no "+" or "-", so "+-" only joins a negative term
    return "+".join(map(add, coeffs, map(body.__getitem__, keys))).replace("+-", "-")


# -- variable basis ----------------------------------------------------------

DominantCoeffs = dict[Weight, int | Fraction]

# An X-monomial's dominant coefficients by rank in its leader's coset.
Ranked = list[int]

_cache = partial(field, default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class VariableBasis:
    """The polynomial variables x_i of one kind over one root system, with
    their Laurent expansions and a monomial cache.

    Inside, everything is in integers over X_i = x_i / lead_i (``leads``),
    the orbit sums over distinct points, whose monomials all lead with 1;
    only ``over_x``, rewriting a result over the x_i, makes a ``Fraction``.
    ``index`` gives each dominant weight its coset and rank, and an
    X-monomial lies in its leader's coset, so ``_power_cache`` maps a
    degree vector to its dominant coefficients as a list by rank.
    ``_rules`` holds, per (coset, axis) and by rank, the product rules
    that build them, as (target rank, coefficient) pairs; and ``_packed``,
    per coset, the widest slots ``reduce`` has needed there and, by slot,
    the monomials it packed at that width.
    ``_polys`` maps an index tuple to the polynomial ``genfunc`` computed
    there, kept, like every monomial, as long as the basis.
    ``racah``, the table ``orbit.exact_divide`` reads, shares the index.
    Only a widened coset's ``_packed`` record is ever replaced; the caches
    are otherwise only added to, but the index, the rule lists, the packs
    and ``racah`` grow in place, so one basis must not reduce or divide in
    two threads at once.  No cache is a constructor argument, so
    ``dataclasses.replace`` gives the new basis empty ones.
    """

    rs: RootSystem
    kind: Kind
    var_laurents: tuple[LaurentPoly, ...]
    _power_cache: dict[Degree, Ranked] = _cache()
    _rules: dict[tuple[Weight, int], list] = _cache()
    _packed: dict[Weight, tuple[int, dict[int, tuple[int, int]]]] = _cache()
    _polys: dict[Weight, XYPoly] = _cache()

    @cached_property
    def index(self) -> DominantIndex:
        """Every dominant weight's coset and rank, grown as work needs it."""
        return DominantIndex(self.rs)

    @cached_property
    def racah(self) -> RacahTable:
        """The table ``orbit.exact_divide`` reads, grown as divisions need it."""
        return RacahTable(self.index)

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
        return XYPoly._wrap(poly.rank, out)  # c // s is nonzero, Fraction(c, s) not integral

    def _product_rule(self, lam: Weight, i: int, cos: Weight) -> tuple[tuple[int, int], ...]:
        """Dominant terms of m_lam * X_i, m_lam the sum over the distinct
        orbit points of lam, each as its rank in the coset ``cos`` and its
        coefficient.  X_i is invariant, so with c_b the coefficient of z^b
        in x_i, m_lam * X_i is the sum over b of
        c_b |W_(lam+b)| m_dom(lam+b) / (|W_lam| lead_i): one fold per term
        of x_i, one |W_mu| per target.  Each sum must divide, and a term not
        filed in ``cos`` stalls."""
        rs, where = self.rs, self.index.where
        acc: dict[Weight, int] = {}
        for b, c in self.var_laurents[i]._terms.items():
            mu = fold(rs, tuple(map(add, lam, b)))[1]
            acc[mu] = acc.get(mu, 0) + c
        scale = stabilizer_order(rs, lam) * self.leads[i]
        terms = []
        for mu, c in acc.items():
            q, r = divmod(c * stabilizer_order(rs, mu), scale)
            if r:
                raise ArithmeticError(
                    f"the product rule of {lam} and {_VAR_NAMES[i]} does not divide at {mu}"
                )
            if q:
                if (at := where.get(mu)) is None or at[0] != cos:
                    raise _stalled([mu])
                terms.append((at[1], q))
        return tuple(terms)

    def _dominant_monomial(self, degrees: Degree) -> Ranked:
        """Dominant coefficients of prod(X_i ^ degrees[i]) by rank, built
        incrementally through ``_power_cache``: each term q of the entry one
        degree lower scatters q times its product rule.  Every product-rule
        term is positive, so none cancels.  The leader is the weight
        ``degrees``, and a rule term that the index has not filed in its
        coset, or that lies above it, raises NonDominantLeaderError."""
        cached = self._power_cache.get(degrees)
        if cached is not None:
            return cached
        index = self.index
        index.place((degrees,))
        cos, top = index.where[degrees]
        if not any(degrees):
            result = [1]
        else:
            i = max(range(len(degrees)), key=degrees.__getitem__)
            lower = tuple(d - 1 if j == i else d for j, d in enumerate(degrees))
            prev = self._dominant_monomial(lower)
            source = index.where[lower][0]
            weights, rules = index.cosets[source], self._rules.setdefault((source, i), [])
            rules += [None] * (len(prev) - len(rules))
            result = [0] * (top + 1)
            try:
                for r, q in enumerate(prev):
                    if q:
                        if (rule := rules[r]) is None:
                            rule = rules[r] = self._product_rule(weights[r], i, cos)
                        for t, c in rule:
                            result[t] += c * q
            except IndexError:
                above = max(t for q, rule in zip(prev, rules) if q and rule for t, _ in rule)
                raise _stalled([index.cosets[cos][above]]) from None
        self._power_cache[degrees] = result
        return result

    def monomial_laurent(self, degrees: Degree) -> LaurentPoly:
        """Expansion of prod(x_i ^ degrees[i]): the cached X-monomial
        unfolded over its orbits and scaled by prod(lead_i ^ degrees[i])."""
        degrees = tuple(degrees)
        monomial = self._dominant_monomial(degrees)
        weights = self.index.cosets[self.index.where[degrees][0]]
        dominant = {mu: c for mu, c in zip(weights, monomial) if c}
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


def _pack_ranks(coeffs: Ranked, bits: int) -> int:
    """sum(c << ((r + 1) * bits)) over coeffs[r], every |c| < 2^(bits-1), in
    linear time: with each slot biased by 2^(bits-1) to a digit >= 0, one ``struct.pack``
    (64-bit slots; else one ``to_bytes`` per slot) and two ``from_bytes`` build it."""
    width = bits // 8
    digits = map(add, coeffs, repeat(1 << (bits - 1)))
    if bits == 64:
        raw = bytes(width) + pack(f"<{len(coeffs)}Q", *digits)
    else:
        raw = bytes(width) + b"".join(map(int.to_bytes, digits, repeat(width), repeat("little")))
    bias = bytes(width) + (bytes(width - 1) + b"\x80") * len(coeffs)
    return int.from_bytes(raw, "little") - int.from_bytes(bias, "little")


def _eliminate(
    basis: VariableBasis, cos: Weight, f: Ranked, bits: int, packed: dict[int, tuple[int, int]]
) -> dict[Weight, int] | None:
    """The leaders of ``f``, integer dominant coefficients by rank in the
    coset ``cos``; None if a slot of ``bits`` could overflow.  ``packed``
    holds, by slot, the coset's monomials packed at ``bits``, each with its
    largest coefficient, and gains those this call packs.

    Rank r has slot k = r + 1, bits k*B to k*B + B - 1 of one integer
    W = f - sum of c_d M_d.  The slots are read from the top down, each as
    the signed digit round(W / 2^kB) mod 2^B; a digit is exact when every
    slot of W is below 2^(B-1) in absolute value, and a nonzero one is a
    leader d, whose monomial M_d is subtracted in one big-int operation.
    The slots of f and sum |c_d| max|M_d| below 2^(B-2) bound every slot
    of W, so then W = 0 proves f = sum c_d M_d."""
    limit = 1 << (bits - 2)
    if max(map(abs, f)) >= limit:
        return None
    weights = basis.index.cosets[cos]
    work = _pack_ranks(f, bits)
    half, mask = 1 << (bits - 1), (1 << bits) - 1

    def digit(k: int) -> int:
        rounded = ((work >> (k * bits - 1)) + 1) >> 1
        return ((rounded + half) & mask) - half

    out = {}
    spent = 0
    for k in range(len(f), 0, -1):
        rounded = ((work >> (k * bits - 1)) + 1) >> 1  # digit(k), inline
        if c := ((rounded + half) & mask) - half:
            entry = packed.get(k)
            if entry is None:
                monomial = basis._dominant_monomial(weights[k - 1])
                largest = max(map(abs, monomial))
                if largest >= limit:
                    return None
                entry = packed[k] = largest, _pack_ranks(monomial, bits)
            spent += abs(c) * entry[0]
            if spent >= limit:
                return None
            work -= c * entry[1]
            out[weights[k - 1]] = c
    if work:
        raise _stalled([mu for k, mu in enumerate(weights, 1) if digit(k)])
    return out


def reduce(basis: VariableBasis, f: LaurentPoly | DominantCoeffs) -> XYPoly:
    """Rewrite the invariant ``f``, a Laurent polynomial or the dict of its
    dominant coefficients, over the variables.

    Only dominant terms are worked on.  That is exact because a Laurent
    input is checked to be invariant, a dict is the dominant part of exactly
    one invariant once its keys are checked dominant, and every monomial
    subtracted is invariant.  The leaders come down the ranks of
    ``basis.index``, which grows only if a key is not filed (``place``):
    the other terms of a monomial lie a sum of positive roots below its
    leader, lower in height and rank, so each working coefficient is final
    when its rank is read.  A monomial lies in its leader's root-lattice
    coset, so each coset of the input is eliminated apart, packed in slots
    over that coset's ranks alone (``_eliminate``).  Every X-monomial leads with 1,
    so the elimination is in integers: a ``Fraction`` input is scaled by
    the lcm of its denominators and divided back at the end, and otherwise
    only ``basis.over_x``, rewriting the result over the x_i, makes a
    ``Fraction``.  A coset's slots start at the widest it has needed on
    this basis, its record in ``_packed``, at first ``_SLOT_BITS`` bits;
    a coset whose slots could overflow them is redone at twice the width,
    in a new record, as no later call reads the narrower packs.  A term
    the index has not filed, or a residue left, raises
    NonDominantLeaderError; a coefficient not an ``int`` or ``Fraction``,
    or a dict key not dominant (checked over all keys at once, then the
    first such key named), ValueError.
    """
    rs = basis.rs
    terms = f if isinstance(f, dict) else f._terms
    if terms is not f:
        check_symmetry(rs, terms, 1, NotInvariantError, "input")
        work = {exp: c for exp, c in terms.items() if min(exp) >= 0}
    elif ({*map(len, f)} - {rs.rank} or {*map(type, chain(*f))} - {int}
          or min(chain(*f), default=0) < 0):
        bad = next(e for e in f if len(e) != rs.rank or any(type(a) is not int or a < 0 for a in e))
        raise ValueError(f"dominant coefficients keyed by a non-dominant weight {bad}")
    else:
        work = {exp: c for exp, c in f.items() if c}
    if not {*map(type, terms.values())} <= {int, Fraction}:
        exp, c = next((e, c) for e, c in terms.items() if type(c) not in (int, Fraction))
        raise ValueError(f"the coefficient {c!r} at weight {exp} is not an int or a Fraction")
    scale = lcm(*map(attrgetter("denominator"), work.values()))
    places = basis.index.place(work)
    if None in places:
        raise _stalled([exp for exp, at in zip(work, places) if at is None])
    parts: dict[Weight, Ranked] = {}
    for (cos, r), c in zip(places, work.values()):
        part = parts.setdefault(cos, [])
        part += [0] * (r + 1 - len(part))
        part[r] = (c * scale).numerator

    out: dict[Degree, int | Fraction] = {}
    for cos, part in parts.items():
        bits, packed = basis._packed.setdefault(cos, (_SLOT_BITS, {}))
        while (leaders := _eliminate(basis, cos, part, bits, packed)) is None:
            bits, packed = basis._packed[cos] = 2 * bits, {}
        out.update(leaders)
    if scale != 1:
        out = {exp: c // scale if c % scale == 0 else Fraction(c, scale) for exp, c in out.items()}
    return basis.over_x(XYPoly._wrap(rs.rank, out))  # filed weights, nonzero digits

"""Rewriting invariant Laurent polynomials as polynomials in the variables.

Both directions work in the dominant chamber.  Every Weyl orbit meets the
closed dominant chamber exactly once, so a W-invariant Laurent polynomial
is fixed by its coefficients on dominant exponents.  Monomials in the
variables are invariant; they are cached as {dominant exponent:
coefficient} and unfolded over orbits only when a full Laurent polynomial
is asked for.

``reduce`` checks the whole input for Weyl invariance, keeps its dominant
terms, and performs greedy elimination: repeatedly pick a dominance-maximal
exponent of the working polynomial and subtract the dominant part of the
matching monomial in the variables, which cancels that exponent exactly and
only introduces exponents strictly below it in the dominance order.  The
invariance check is what makes dropping the other terms exact: input and
monomials are invariant, so the working polynomial stays invariant and its
dominant part picks the same leaders and coefficients as the full one.
``expand`` is the inverse substitution; the pair round-trips exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .laurent import LaurentPoly, _norm_coeff
from .orbit import Kind, variable_laurents
from .rootsystem import RootSystem, Weight, _det, act, act_all, to_root_coords


class NotInvariantError(ValueError):
    """Input to reduce() is not Weyl-invariant."""


class NonDominantLeaderError(ValueError):
    """Elimination stalled on a nonzero polynomial with no dominant term."""


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def dominance_compare(rs: RootSystem, mu: Weight, nu: Weight) -> Comparison:
    """Dominance order: mu <= nu when nu - mu is a nonnegative combination
    of simple roots."""
    if mu == nu:
        return Comparison.EQUAL
    diff = tuple(b - a for a, b in zip(mu, nu))
    coords = to_root_coords(rs, diff)
    if all(c >= 0 for c in coords):
        return Comparison.LESS
    if all(c <= 0 for c in coords):
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


# -- polynomials in the variables -------------------------------------------

Degree = tuple[int, ...]

_VAR_NAMES = ("x", "y")


def _graded_lex_key(deg: Degree) -> tuple:
    return (sum(deg), deg)


class XYPoly:
    """Polynomial in the generalized-cosine variables, exact coefficients.

    Keys are nonnegative exponent vectors over (x, y) (just (x,) at rank 1);
    canonical term order is graded lexicographic, descending, with x heavier
    than y inside a degree block.
    """

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms: Mapping[Degree, int | Fraction] | None = None):
        cleaned: dict[Degree, int | Fraction] = {}
        if terms:
            for deg, coeff in terms.items():
                if len(deg) != rank:
                    raise ValueError("degree rank mismatch")
                if any(d < 0 for d in deg):
                    raise ValueError("negative degree")
                if coeff:
                    cleaned[tuple(deg)] = _norm_coeff(coeff)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("XYPoly is immutable")

    @classmethod
    def zero(cls, rank: int) -> "XYPoly":
        return cls(rank)

    @classmethod
    def constant(cls, rank: int, c: int | Fraction) -> "XYPoly":
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def variable(cls, rank: int, i: int) -> "XYPoly":
        deg = tuple(1 if j == i else 0 for j in range(rank))
        return cls(rank, {deg: 1})

    def terms(self) -> list[tuple[Degree, int | Fraction]]:
        """Terms in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda t: _graded_lex_key(t[0]), reverse=True)

    def coeff(self, deg: Degree) -> int | Fraction:
        return self._terms.get(tuple(deg), 0)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(d) for d in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XYPoly):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"XYPoly({self.as_text() or '0'})"

    def __add__(self, other: "XYPoly") -> "XYPoly":
        if not isinstance(other, XYPoly):
            return NotImplemented
        acc = dict(self._terms)
        for deg, coeff in other._terms.items():
            new = acc.get(deg, 0) + coeff
            if new:
                acc[deg] = new
            else:
                acc.pop(deg, None)
        return _xwrap(self.rank, acc)

    def __sub__(self, other: "XYPoly") -> "XYPoly":
        if not isinstance(other, XYPoly):
            return NotImplemented
        acc = dict(self._terms)
        for deg, coeff in other._terms.items():
            new = acc.get(deg, 0) - coeff
            if new:
                acc[deg] = new
            else:
                acc.pop(deg, None)
        return _xwrap(self.rank, acc)

    def __neg__(self) -> "XYPoly":
        return _xwrap(self.rank, {d: -c for d, c in self._terms.items()})

    def __mul__(self, other: "XYPoly") -> "XYPoly":
        if not isinstance(other, XYPoly):
            return NotImplemented
        acc: dict[Degree, int | Fraction] = {}
        bitems = list(other._terms.items())
        if self.rank == 2:
            for (a0, a1), ca in self._terms.items():
                for (b0, b1), cb in bitems:
                    key = (a0 + b0, a1 + b1)
                    new = acc.get(key, 0) + ca * cb
                    if new:
                        acc[key] = new
                    else:
                        del acc[key]
        else:
            for da, ca in self._terms.items():
                for db, cb in bitems:
                    key = tuple(x + y for x, y in zip(da, db))
                    new = acc.get(key, 0) + ca * cb
                    if new:
                        acc[key] = new
                    else:
                        del acc[key]
        return _xwrap(self.rank, acc)

    def scale(self, factor: int | Fraction) -> "XYPoly":
        if not factor:
            return XYPoly(self.rank)
        return _xwrap(self.rank, {d: _norm_coeff(c * factor) for d, c in self._terms.items()})

    def __pow__(self, n: int) -> "XYPoly":
        if n < 0:
            raise ValueError("negative power")
        result = XYPoly.constant(self.rank, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, values: Sequence) -> object:
        """Substitute values for the variables; exact when the inputs are
        exact (int/Fraction), complex otherwise."""
        if len(values) != self.rank:
            raise ValueError("value rank mismatch")
        total = 0
        for deg, coeff in self._terms.items():
            v = coeff
            for base, e in zip(values, deg):
                if e:
                    v = v * base**e
            total = total + v
        return total

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
        out = "".join(pieces)
        return out[1:] if out.startswith("+") else out

    def to_json_obj(self) -> list[dict]:
        return [
            {"degree": list(deg), "coeff": str(Fraction(coeff))}
            for deg, coeff in self.terms()
        ]

    @classmethod
    def from_json_obj(cls, rank: int, obj: Iterable[dict]) -> "XYPoly":
        terms: dict[Degree, int | Fraction] = {}
        for rec in obj:
            terms[tuple(rec["degree"])] = Fraction(rec["coeff"])
        return cls(rank, terms)


def _xwrap(rank: int, acc: dict) -> XYPoly:
    poly = XYPoly.__new__(XYPoly)
    object.__setattr__(poly, "rank", rank)
    object.__setattr__(poly, "_terms", acc)
    return poly


# -- variable basis ----------------------------------------------------------

DominantCoeffs = dict[Weight, int | Fraction]


def _orbit(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """Distinct orbit points of ``lam``, in group-element order."""
    return tuple(dict.fromkeys(act(rs, w, lam) for w in rs.elements))


@dataclass(frozen=True)
class VariableBasis:
    """The polynomial variables of one kind over one root system, with their
    Laurent expansions and a monomial cache.

    ``leading_coeffs[i]`` is the coefficient of the fundamental weight in
    var i's expansion: 1 for the second kind, the stabilizer order for the
    first.  Every monomial in the variables is W-invariant, so the cache
    keeps only its dominant coefficients: ``_power_cache`` maps a degree
    vector to {dominant exponent: coefficient}.  An entry is the entry one
    degree lower times one variable, computed with product rules: the
    dominant part of (the distinct orbit points of lambda) * var_i, built
    once per (dominant lambda, i) in ``_rules``.  Entries are only ever
    added, so concurrent readers at worst recompute.
    """

    rs: RootSystem
    kind: Kind
    var_laurents: tuple[LaurentPoly, ...]
    leading_weights: tuple[Weight, ...]
    leading_coeffs: tuple[int, ...]
    _power_cache: dict[Degree, DominantCoeffs] = field(
        default_factory=dict, repr=False, compare=False
    )
    _rules: dict[tuple[Weight, int], tuple[tuple[Weight, int], ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _product_rule(self, lam: Weight, i: int) -> tuple[tuple[Weight, int], ...]:
        """Dominant terms of (sum of z^mu over the orbit of lam) * var_i."""
        rule = self._rules.get((lam, i))
        if rule is None:
            acc: dict[Weight, int] = {}
            var_terms = self.var_laurents[i]._terms.items()
            for mu in _orbit(self.rs, lam):
                for nu, c in var_terms:
                    exp = tuple(a + b for a, b in zip(mu, nu))
                    if min(exp) >= 0:
                        acc[exp] = acc.get(exp, 0) + c
            rule = tuple((exp, c) for exp, c in acc.items() if c)
            self._rules[(lam, i)] = rule
        return rule

    def _dominant_monomial(self, degrees: Degree) -> DominantCoeffs:
        """Dominant coefficients of prod(var_i ^ degrees[i]), built
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

    def _unfold(self, dominant: DominantCoeffs) -> LaurentPoly:
        """The invariant Laurent polynomial with these dominant coefficients."""
        terms = {mu: c for lam, c in dominant.items() for mu in _orbit(self.rs, lam)}
        return LaurentPoly(self.rs.rank, terms)

    def monomial_laurent(self, degrees: Degree) -> LaurentPoly:
        """Expansion of prod(var_i ^ degrees[i]): the cached dominant
        coefficients unfolded over their orbits."""
        return self._unfold(self._dominant_monomial(tuple(degrees)))


def build_basis(rs: RootSystem, kind: Kind) -> VariableBasis:
    vars_ = variable_laurents(rs, kind)
    weights = tuple(
        tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)
    )
    leads = []
    for i, v in enumerate(vars_):
        c = v.coeff(weights[i])
        if not isinstance(c, int) or c <= 0:
            raise RuntimeError("variable expansion has unusable leading coefficient")
        leads.append(c)
    return VariableBasis(rs, kind, vars_, weights, tuple(leads))


# -- reduce / expand ---------------------------------------------------------


def _check_invariant(basis: VariableBasis, f: LaurentPoly) -> None:
    # Generator invariance implies full group invariance.  Reflections map
    # exponents bijectively, so f is fixed by one exactly when every term's
    # image carries the same coefficient.
    rs = basis.rs
    terms = f._terms
    exps = list(terms)
    for w in rs.generators:
        for exp, image in zip(exps, act_all(rs, w, exps)):
            c = terms[exp]
            if terms.get(image) != c:
                raise NotInvariantError(
                    f"input is not Weyl-invariant: z^{exp} has coefficient {c},"
                    f" its image z^{image} under simple reflection {w.word[0]}"
                    f" has {terms.get(image, 0)}"
                )


def _height_weights(rs: RootSystem) -> tuple[int, ...]:
    """Integer weights of the root-height functional scaled by det C: the
    height of mu is sum(mu_i * weights[i]) / det C."""
    det = _det(rs.cartan)
    return tuple(int(det * sum(row)) for row in rs.cartan_inverse)


def reduce(basis: VariableBasis, f: LaurentPoly) -> XYPoly:
    """Rewrite the invariant Laurent polynomial ``f`` over the variables.

    After the invariance check on the whole input, only dominant terms are
    kept: an invariant polynomial is fixed by its dominant coefficients, and
    every monomial subtracted is invariant, so the working polynomial stays
    invariant and its dominant part alone decides each leader and
    coefficient.  The check is what makes this exact; without it the
    non-dominant terms of a non-invariant input would be silently dropped.

    Leaders are selected dominance-maximal via the root-height functional
    (sum of root coordinates, kept integral by scaling with det C), which
    is strictly monotone along dominance; ties under it are broken
    lexicographically.  Each dominant exponent is cleared at most once, so
    the step count is bounded by the number of dominant weights appearing.
    """
    rs = basis.rs
    _check_invariant(basis, f)
    weights = _height_weights(rs)

    work = {exp: c for exp, c in f._terms.items() if min(exp) >= 0}
    heap: list[tuple] = []
    pushed: set[Weight] = set()

    def push(exp: Weight) -> None:
        pushed.add(exp)
        height = sum(w * x for w, x in zip(weights, exp))
        heapq.heappush(heap, (-height, tuple(-x for x in exp)))

    for exp in work:
        push(exp)

    out: dict[Degree, int | Fraction] = {}
    cleared: set[Weight] = set()
    while heap:
        _, nege = heapq.heappop(heap)
        exp = tuple(-x for x in nege)
        pushed.discard(exp)
        coeff = work.get(exp)
        if not coeff:
            continue
        if exp in cleared:
            raise RuntimeError("leader cleared twice; selection order broken")
        cleared.add(exp)
        lead = 1
        for base, e in zip(basis.leading_coeffs, exp):
            lead *= base**e
        if lead == 1:
            mono_coeff = coeff
        else:
            mono_coeff = _norm_coeff(Fraction(coeff) / lead)
        out[exp] = mono_coeff
        for mexp, mc in basis._dominant_monomial(exp).items():
            new = work.get(mexp, 0) - mono_coeff * mc
            if new:
                work[mexp] = new
                if mexp not in pushed and min(mexp) >= 0:
                    push(mexp)
            else:
                work.pop(mexp, None)
    if work:
        raise NonDominantLeaderError(
            f"elimination stalled on {len(work)} residual term(s) with no"
            f" dominant exponent, e.g. z^{max(work)}; input was not in the"
            " invariant ring spanned by the variables"
        )
    return XYPoly(rs.rank, out)


def expand(basis: VariableBasis, p: XYPoly) -> LaurentPoly:
    """Substitute the variable expansions back into ``p``: the dominant
    coefficients of its monomials are summed, then unfolded once over the
    orbits."""
    acc: DominantCoeffs = {}
    for deg, coeff in p._terms.items():
        for lam, c in basis._dominant_monomial(deg).items():
            new = acc.get(lam, 0) + coeff * c
            if new:
                acc[lam] = new
            else:
                del acc[lam]
    return basis._unfold(acc)

"""Rewriting invariant Laurent polynomials as polynomials in the variables.

The work happens in the dominant chamber.  Every Weyl orbit meets the
closed dominant chamber exactly once, so a W-invariant Laurent polynomial,
such as a monomial in the variables, is fixed by its dominant coefficients.
``reduce`` checks its input for Weyl invariance, then cancels its dominant
terms one leading weight at a time, highest first, in integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .laurent import LaurentPoly, SparsePoly, _norm_coeff
from .orbit import Kind, orbit_points, unit_weight, variable_laurents
from .rootsystem import RootSystem, Weight, act_all, dominant_sweep, height


class NotInvariantError(ValueError):
    """Input to reduce() is not Weyl-invariant."""


class NonDominantLeaderError(ValueError):
    """Elimination stalled on a nonzero polynomial with no dominant term."""


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
        out = "".join(pieces)
        return out[1:] if out.startswith("+") else out


# -- variable basis ----------------------------------------------------------

DominantCoeffs = dict[Weight, int | Fraction]


@dataclass(frozen=True)
class VariableBasis:
    """The polynomial variables of one kind over one root system, with their
    Laurent expansions and a monomial cache.

    Every monomial in the variables is W-invariant, so the cache keeps only
    its dominant coefficients: ``_power_cache`` maps a degree vector to
    {dominant exponent: coefficient}.  An entry is the entry one
    degree lower times one variable, computed with product rules: the
    dominant part of (the distinct orbit points of lambda) * var_i, built
    once per (dominant lambda, i) in ``_rules``.  Entries are only ever
    added, so concurrent readers at worst recompute.  ``_torus_samples``
    holds the sampled points of ``numeric.verify_ratio`` for the most
    recent (seed, count).  The caches are not constructor arguments, so
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
    _torus_samples: dict[tuple[int, int], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _product_rule(self, lam: Weight, i: int) -> tuple[tuple[Weight, int], ...]:
        """Dominant terms of (sum of z^mu over the orbit of lam) * var_i."""
        rule = self._rules.get((lam, i))
        if rule is None:
            acc: dict[Weight, int] = {}
            var_terms = self.var_laurents[i]._terms.items()
            for mu in orbit_points(self.rs, lam):
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
            lead = result[degrees]
            if lead != 1 and any(c % lead for c in result.values()):
                raise ArithmeticError(
                    f"leading coefficient {lead} does not divide monomial {degrees}"
                )
        self._power_cache[degrees] = result
        return result

    def _unfold(self, dominant: DominantCoeffs) -> LaurentPoly:
        """The invariant Laurent polynomial with these dominant coefficients."""
        rs = self.rs
        terms = {mu: c for lam, c in dominant.items() for mu in orbit_points(rs, lam)}
        return LaurentPoly(rs.rank, terms)

    def monomial_laurent(self, degrees: Degree) -> LaurentPoly:
        """Expansion of prod(var_i ^ degrees[i]): the cached dominant
        coefficients unfolded over their orbits."""
        return self._unfold(self._dominant_monomial(tuple(degrees)))


def build_basis(rs: RootSystem, kind: Kind) -> VariableBasis:
    """The variables of ``kind`` over ``rs``.  Each variable's coefficient at
    its fundamental weight must be a positive integer: 1 for the second
    kind, the stabilizer order for the first."""
    if not isinstance(kind, Kind):
        raise ValueError(f"kind must be a Kind, got {kind!r}")
    vars_ = variable_laurents(rs, kind)
    for i, v in enumerate(vars_):
        c = v.coeff(unit_weight(rs, i))
        if not isinstance(c, int) or c <= 0:
            raise RuntimeError("variable expansion has unusable leading coefficient")
    return VariableBasis(rs, kind, vars_)


def _check_basis(rs: RootSystem, basis: VariableBasis) -> None:
    if basis.rs.algebra is not rs.algebra:
        raise ValueError(
            f"the basis was built for {basis.rs.algebra.value}, not for {rs.algebra.value}"
        )


# -- reduce ------------------------------------------------------------------


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


def reduce(basis: VariableBasis, f: LaurentPoly) -> XYPoly:
    """Rewrite the invariant Laurent polynomial ``f`` over the variables.

    Only dominant terms are worked on.  That is exact because the input is
    checked to be invariant and every monomial subtracted is, so the
    dominant part alone decides each leader and coefficient.  The leaders
    come in ``dominant_sweep`` order up to the input's top height: the
    other terms of a monomial lie a sum of positive roots below its leader,
    hence lower in height, so each working coefficient is final when the
    sweep reaches it.  A monomial's leading coefficient divides all its
    coefficients, so an integer input is worked on in integers and only an
    output coefficient can be a ``Fraction``.  A residue left after the
    sweep raises NonDominantLeaderError.
    """
    rs = basis.rs
    _check_invariant(basis, f)
    work = {exp: c for exp, c in f._terms.items() if min(exp) >= 0}
    top = max((height(rs, exp) for exp in work), default=-1)  # no terms: no sweep

    out: dict[Degree, int | Fraction] = {}
    for exp in dominant_sweep(rs, top):
        coeff = work.get(exp)
        if not coeff:
            continue
        monomial = basis._dominant_monomial(exp)
        lead = monomial[exp]
        out[exp] = coeff if lead == 1 else _norm_coeff(Fraction(coeff, lead))
        for mexp, mc in monomial.items():
            new = work.get(mexp, 0) - coeff * (mc // lead)
            if new:
                work[mexp] = new
            else:
                work.pop(mexp, None)
    if work:
        raise NonDominantLeaderError(
            f"elimination stalled on {len(work)} residual term(s) with no"
            f" dominant exponent, e.g. z^{max(work)}; input was not in the"
            " invariant ring spanned by the variables"
        )
    return XYPoly(rs.rank, out)

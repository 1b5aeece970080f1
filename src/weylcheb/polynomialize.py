"""Rewriting invariant Laurent polynomials as polynomials in the variables.

Both directions work in the dominant chamber.  Every Weyl orbit meets the
closed dominant chamber exactly once, so a W-invariant Laurent polynomial
is fixed by its coefficients on dominant exponents.  Monomials in the
variables are invariant; they are cached as {dominant exponent:
coefficient} and unfolded over orbits only when a full Laurent polynomial
is asked for.

``reduce`` checks the whole input for Weyl invariance, keeps its dominant
terms, and eliminates them in one sweep over the dominant weights up to the
input's top height, highest first, an order fixed before the sweep starts:
at each weight it subtracts the dominant part of the matching monomial in
the variables, which cancels that exponent exactly and only introduces
exponents of strictly smaller height.  The invariance check is what makes
dropping the other terms exact: input and monomials are invariant, so the
working polynomial stays invariant and its dominant part picks the same
leaders and coefficients as the full one.
``expand`` is the inverse substitution; the pair round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence

from .laurent import LaurentPoly, SparsePoly, _norm_coeff
from .orbit import Kind, orbit_points, unit_weight, variable_laurents
from .rootsystem import RootSystem, Weight, act_all


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

    @classmethod
    def variable(cls, rank: int, i: int) -> "XYPoly":
        deg = tuple(1 if j == i else 0 for j in range(rank))
        return cls(rank, {deg: 1})

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(d) for d in self._terms)

    def __repr__(self) -> str:
        return f"XYPoly({self.as_text() or '0'})"

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


# -- variable basis ----------------------------------------------------------

DominantCoeffs = dict[Weight, int | Fraction]


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
    added, so concurrent readers at worst recompute.  ``_torus_samples``
    holds the sampled points of ``numeric.verify_ratio`` for the most
    recent (seed, count).  The caches are not constructor arguments, so
    ``dataclasses.replace`` gives the new basis empty ones.
    """

    rs: RootSystem
    kind: Kind
    var_laurents: tuple[LaurentPoly, ...]
    leading_coeffs: tuple[int, ...]
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
    vars_ = variable_laurents(rs, kind)
    weights = tuple(unit_weight(rs, i) for i in range(rs.rank))
    leads = []
    for i, v in enumerate(vars_):
        c = v.coeff(weights[i])
        if not isinstance(c, int) or c <= 0:
            raise RuntimeError("variable expansion has unusable leading coefficient")
        leads.append(c)
    return VariableBasis(rs, kind, vars_, tuple(leads))


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


def reduce(basis: VariableBasis, f: LaurentPoly) -> XYPoly:
    """Rewrite the invariant Laurent polynomial ``f`` over the variables.

    After the invariance check on the whole input, only dominant terms are
    kept: an invariant polynomial is fixed by its dominant coefficients, and
    every monomial subtracted is invariant, so the working polynomial stays
    invariant and its dominant part alone decides each leader and
    coefficient.  The check is what makes this exact; without it the
    non-dominant terms of a non-invariant input would be silently dropped.

    The sweep visits every dominant weight whose height is at most the
    input's top height, highest first and lexicographically descending
    within a height.  The height of mu is its pairing with 2 rho^v, the sum
    of the positive coroots: an integer that every positive root raises by
    at least 2.  Every non-leading term of a monomial lies a sum of
    positive roots below its leading weight, so it has strictly smaller
    height and each working coefficient is final when the sweep reaches
    it.  A residue left after the sweep raises
    NonDominantLeaderError.
    """
    rs = basis.rs
    _check_invariant(basis, f)
    weights = tuple(map(sum, zip(*rs.positive_coroots)))

    def height(mu: Weight) -> int:
        return sum(w * x for w, x in zip(weights, mu))

    work = {exp: c for exp, c in f._terms.items() if min(exp) >= 0}
    top = max(map(height, work), default=-1)  # no input terms: an empty sweep
    box = product(*(range(top // w + 1) for w in weights))
    sweep = sorted(((h, mu) for mu in box if (h := height(mu)) <= top), reverse=True)

    out: dict[Degree, int | Fraction] = {}
    for _, exp in sweep:
        coeff = work.get(exp)
        if not coeff:
            continue
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

"""Sparse polynomials with exact rational coefficients.

``SparsePoly`` is the one kernel: terms live in a dict keyed by integer
exponent vectors (tuples), so the representation is exact and order-free,
and a canonical order is imposed only when terms are enumerated or
serialized.  ``LaurentPoly`` is its Laurent view, ordered lexicographically
(first coordinate most significant); ``polynomialize.XYPoly`` is the view
over the variables.  Coefficients are Python ints wherever possible and
``fractions.Fraction`` otherwise; both are exact and mix freely.
``exact_divide`` sweeps once, in decreasing lexicographic order, the box in
which an exact quotient must lie.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Mapping

Exponent = tuple[int, ...]

# The most box positions exact_divide sweeps; a larger box is rejected up front.
_DIVIDE_STEP_CAP = 10_000_000


class NonDivisibleError(ArithmeticError):
    """Raised when an exact Laurent division has a nonzero remainder."""


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class SparsePoly:
    """Immutable sparse polynomial in ``rank`` variables: a dict from integer
    exponent tuples to exact coefficients, with the ring operations and the
    JSON form shared by every polynomial type.

    A subclass supplies the canonical term order (``_order_key``, used
    descending by ``terms``), the JSON name of an exponent (``_json_key``)
    and any further check on a key (``_check_key``).  Arithmetic accepts
    only operands of the same type and rank.
    """

    __slots__ = ("rank", "_terms")

    _json_key = "exponent"

    def __init__(self, rank: int, terms: Mapping[Exponent, "int | Fraction"] | None = None):
        cleaned: dict[Exponent, int | Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != rank:
                    raise ValueError(f"{self._json_key} rank mismatch")
                self._check_key(exp)
                if coeff:
                    cleaned[tuple(exp)] = _norm_coeff(coeff)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", cleaned)

    @classmethod
    def _wrap(cls, rank: int, acc: dict):
        """Adopt ``acc`` as the terms, unchecked: it must already be clean."""
        poly = cls.__new__(cls)
        object.__setattr__(poly, "rank", rank)
        object.__setattr__(poly, "_terms", acc)
        return poly

    @staticmethod
    def _order_key(exp: Exponent):
        return exp

    @staticmethod
    def _check_key(exp: Exponent) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, rank: int):
        return cls(rank)

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Exponent, "int | Fraction"]]:
        """Terms in descending canonical order."""
        key = self._order_key
        return sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)

    def coeff(self, exp: Exponent) -> "int | Fraction":
        return self._terms.get(tuple(exp), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    __hash__ = None  # mutable dict inside; identity hashing would mislead

    # -- ring operations ---------------------------------------------------

    def _same_kind(self, other) -> bool:
        """Whether ``other`` is an operand of this type; a rank mismatch
        between two such operands raises."""
        if type(other) is not type(self):
            return False
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return True

    def __add__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = acc.get(exp, 0) + coeff
            if new:
                acc[exp] = new
            else:
                acc.pop(exp, None)
        return self._wrap(self.rank, acc)

    def __sub__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = acc.get(exp, 0) - coeff
            if new:
                acc[exp] = new
            else:
                acc.pop(exp, None)
        return self._wrap(self.rank, acc)

    def __neg__(self):
        return self._wrap(self.rank, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[Exponent, int | Fraction] = {}
        bitems = list(b.items())
        if self.rank == 2:
            # hot path: avoid the generic tuple zip
            for (e0, e1), ca in a.items():
                for (f0, f1), cb in bitems:
                    key = (e0 + f0, e1 + f1)
                    new = acc.get(key, 0) + ca * cb
                    if new:
                        acc[key] = new
                    else:
                        del acc[key]
        else:
            for ea, ca in a.items():
                for eb, cb in bitems:
                    key = tuple(x + y for x, y in zip(ea, eb))
                    new = acc.get(key, 0) + ca * cb
                    if new:
                        acc[key] = new
                    else:
                        del acc[key]
        return self._wrap(self.rank, acc)

    def scale(self, factor: "int | Fraction"):
        if not factor:
            return self.zero(self.rank)
        return self._wrap(self.rank, {e: _norm_coeff(c * factor) for e, c in self._terms.items()})

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [
            {self._json_key: list(exp), "coeff": str(Fraction(coeff))}
            for exp, coeff in self.terms()
        ]


class LaurentPoly(SparsePoly):
    """Sparse Laurent polynomial: exponents may be negative, and terms are
    ordered lexicographically with the first coordinate most significant."""

    __slots__ = ()

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, rank: int, exp: Exponent) -> "LaurentPoly":
        return cls(rank, {tuple(exp): 1})

    def leading(self) -> tuple[Exponent, "int | Fraction"]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self._terms)
        return exp, self._terms[exp]

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*z^{e}" for e, c in self.terms()]
        return "LaurentPoly(" + " + ".join(bits) + ")"


def exact_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Quotient ``num / den`` when the division is exact.

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
    that failed.  Rank 2 takes a pair inner loop, as ``__mul__`` does.
    """
    if num.rank != den.rank:
        raise ValueError("rank mismatch")
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPoly.zero(num.rank)

    lead, lead_coeff = den.leading()
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
    rank2 = num.rank == 2
    if rank2:
        rest2 = [(d0, d1, c) for (d0, d1), c in rest]

    rem = dict(num._terms)
    quot: dict[Exponent, int | Fraction] = {}
    for point in product(*spans):
        coeff = rem.pop(point, 0)
        if not coeff:
            continue
        if lead_coeff == 1:
            qc = coeff
        elif lead_coeff == -1:
            qc = -coeff
        else:
            qc = _norm_coeff(Fraction(coeff) / Fraction(lead_coeff))
        quot[tuple(a - b for a, b in zip(point, lead))] = qc
        if rank2:
            p0, p1 = point
            for d0, d1, c in rest2:
                key = (p0 + d0, p1 + d1)
                new = rem.get(key, 0) - qc * c
                if new:
                    rem[key] = new
                else:
                    del rem[key]
        else:
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
    return LaurentPoly._wrap(num.rank, quot)

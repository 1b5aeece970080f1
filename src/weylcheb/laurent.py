"""Sparse polynomials with exact rational coefficients.

``SparsePoly`` is the one kernel: terms live in a dict keyed by integer
exponent vectors (tuples), so the representation is exact and order-free,
and a canonical order is imposed only when terms are enumerated or
serialized.  ``LaurentPoly`` is its Laurent view, ordered lexicographically
(first coordinate most significant); ``polynomialize.XYPoly`` is the view
over the variables.  Coefficients are Python ints wherever possible and
``fractions.Fraction`` otherwise; both are exact and mix freely.
Division is not here: the one exact division, ``orbit.exact_divide``,
divides by A_rho in the dominant chamber.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Exponent = tuple[int, ...]


class NonDivisibleError(ArithmeticError):
    """Raised when a division asked to be exact cannot be."""


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

    def __init__(self, rank: int, terms: Mapping[Exponent, "int | Fraction"]):
        cleaned: dict[Exponent, int | Fraction] = {}
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
        return cls(rank, {})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Exponent, "int | Fraction"]]:
        """Terms in descending canonical order."""
        keys = sorted(self._terms, key=self._order_key, reverse=True)
        return list(zip(keys, map(self._terms.__getitem__, keys)))

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

    def _merge(self, other, sign: int):
        """self + sign * other, or NotImplemented for a foreign operand."""
        if not self._same_kind(other):
            return NotImplemented
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = acc.get(exp, 0) + sign * coeff
            if new:
                acc[exp] = new
            else:
                acc.pop(exp, None)
        return self._wrap(self.rank, acc)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

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

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*z^{e}" for e, c in self.terms()]
        return "LaurentPoly(" + " + ".join(bits) + ")"


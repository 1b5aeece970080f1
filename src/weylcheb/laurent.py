"""Sparse Laurent polynomials with exact rational coefficients.

Terms live in a dict keyed by integer exponent vectors (tuples), so the
representation is exact and order-free; a fixed lexicographic order on
exponents (first coordinate most significant) is imposed whenever terms are
enumerated, compared as leading terms, or serialized.  Coefficients are
Python ints wherever possible and ``fractions.Fraction`` otherwise; both are
exact and mix freely.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from .rootsystem import WeylElement

Exponent = tuple[int, ...]
Rational = int | Fraction

_DIVIDE_STEP_CAP = 10_000_000


class NonDivisibleError(ArithmeticError):
    """Raised when an exact Laurent division has a nonzero remainder."""


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class LaurentPoly:
    """Immutable sparse Laurent polynomial in ``rank`` variables."""

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms: Mapping[Exponent, "int | Fraction"] | None = None):
        cleaned: dict[Exponent, int | Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != rank:
                    raise ValueError("exponent rank mismatch")
                if coeff:
                    cleaned[tuple(exp)] = _norm_coeff(coeff)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, rank: int, exp: Exponent, coeff: "int | Fraction" = 1) -> "LaurentPoly":
        return cls(rank, {tuple(exp): coeff})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Exponent, "int | Fraction"]]:
        """Terms sorted by descending lexicographic exponent order."""
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def __iter__(self) -> Iterator[tuple[Exponent, "int | Fraction"]]:
        return iter(self.terms())

    def coeff(self, exp: Exponent) -> "int | Fraction":
        return self._terms.get(tuple(exp), 0)

    def leading(self) -> tuple[Exponent, "int | Fraction"]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self._terms)
        return exp, self._terms[exp]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    __hash__ = None  # mutable dict inside; identity hashing would mislead

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*z^{e}" for e, c in self.terms()]
        return "LaurentPoly(" + " + ".join(bits) + ")"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = acc.get(exp, 0) + coeff
            if new:
                acc[exp] = new
            else:
                acc.pop(exp, None)
        return _wrap(self.rank, acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = acc.get(exp, 0) - coeff
            if new:
                acc[exp] = new
            else:
                acc.pop(exp, None)
        return _wrap(self.rank, acc)

    def __neg__(self) -> "LaurentPoly":
        return _wrap(self.rank, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
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
        return _wrap(self.rank, acc)

    def scale(self, factor: "int | Fraction") -> "LaurentPoly":
        if not factor:
            return LaurentPoly(self.rank)
        return _wrap(self.rank, {e: _norm_coeff(c * factor) for e, c in self._terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined termwise")
        result = LaurentPoly.one(self.rank)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- semantics ---------------------------------------------------------

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Value at a point with all coordinates nonzero (negative exponents
        need inverses)."""
        if len(point) != self.rank:
            raise ValueError("point rank mismatch")
        if any(z == 0 for z in point):
            raise ValueError("evaluation point has a zero coordinate")
        total = 0j
        for exp, coeff in self._terms.items():
            value = complex(coeff)
            for z, e in zip(point, exp):
                if e:
                    value *= z**e
            total += value
        return total

    def apply_weyl(self, rs, w: "WeylElement") -> "LaurentPoly":
        """Transport exponents through the group element ``w``.

        Exponent maps are bijective, so no collisions occur."""
        from .rootsystem import act

        return _wrap(self.rank, {act(rs, w, e): c for e, c in self._terms.items()})

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [
            {"exponent": list(exp), "coeff": str(Fraction(coeff))}
            for exp, coeff in self.terms()
        ]

    @classmethod
    def from_json_obj(cls, rank: int, obj: Iterable[dict]) -> "LaurentPoly":
        terms: dict[Exponent, int | Fraction] = {}
        for rec in obj:
            terms[tuple(rec["exponent"])] = Fraction(rec["coeff"])
        return cls(rank, terms)


def _wrap(rank: int, acc: dict) -> LaurentPoly:
    poly = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(poly, "rank", rank)
    object.__setattr__(poly, "_terms", acc)
    return poly


def exact_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Quotient ``num / den`` when the division is exact.

    Repeated leading-term elimination under the lexicographic order.  In a
    Laurent ring every monomial divides every other, so inexactness shows up
    as a quotient exponent falling lexicographically below the bound
    ``lexmin(num) - lexmin(den)`` (for an exact quotient every exponent sits
    at or above it, because extreme terms of a product cannot cancel), or as
    a runaway iteration; both raise NonDivisibleError, whose message names
    the check that failed.  Rank 2 takes a pair inner loop, as ``__mul__``
    does.
    """
    if num.rank != den.rank:
        raise ValueError("rank mismatch")
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPoly.zero(num.rank)

    den_lead_exp, den_lead_coeff = den.leading()
    den_rest = [(e, c) for e, c in den._terms.items() if e != den_lead_exp]
    rank2 = num.rank == 2
    if rank2:
        l0, l1 = den_lead_exp
        den_rest2 = [(e0, e1, c) for (e0, e1), c in den_rest]
    num_min = min(num._terms)
    den_min = min(den._terms)
    bound = tuple(a - b for a, b in zip(num_min, den_min))

    rem = dict(num._terms)
    quot: dict[Exponent, int | Fraction] = {}
    # lazy max-heap over remainder exponents (negated for heapq)
    heap = [tuple(-x for x in e) for e in rem]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    steps = 0
    while heap:
        neg = heappop(heap)
        if rank2:
            lead = (-neg[0], -neg[1])
        else:
            lead = tuple(-x for x in neg)
        coeff = rem.pop(lead, 0)
        if not coeff:
            continue
        steps += 1
        if rank2:
            qexp = (lead[0] - l0, lead[1] - l1)
        else:
            qexp = tuple(a - b for a, b in zip(lead, den_lead_exp))
        if steps > _DIVIDE_STEP_CAP:
            raise NonDivisibleError(
                f"division did not terminate: step cap {_DIVIDE_STEP_CAP} reached"
                f" at quotient exponent {qexp} (bound {bound})"
            )
        if qexp < bound:
            raise NonDivisibleError(
                f"no exact quotient exists: quotient exponent {qexp} falls"
                f" below the bound {bound}"
            )
        if den_lead_coeff == 1:
            qc = coeff
        elif den_lead_coeff == -1:
            qc = -coeff
        else:
            qc = _norm_coeff(Fraction(coeff) / Fraction(den_lead_coeff))
        quot[qexp] = qc
        if rank2:
            q0, q1 = qexp
            for e0, e1, c in den_rest2:
                key = (q0 + e0, q1 + e1)
                new = rem.get(key, 0) - qc * c
                if new:
                    if key not in rem:
                        heappush(heap, (-key[0], -key[1]))
                    rem[key] = new
                else:
                    del rem[key]
        else:
            for exp, c in den_rest:
                key = tuple(a + b for a, b in zip(qexp, exp))
                new = rem.get(key, 0) - qc * c
                if new:
                    if key not in rem:
                        heappush(heap, tuple(-x for x in key))
                    rem[key] = new
                else:
                    del rem[key]
    if rem:
        lead = max(rem)
        qexp = tuple(a - b for a, b in zip(lead, den_lead_exp))
        raise NonDivisibleError(
            f"nonzero remainder: {len(rem)} term(s) left, led by z^{lead}"
            f" (quotient exponent {qexp}, bound {bound})"
        )
    return _wrap(num.rank, quot)

"""Root-system data for the rank-1 and rank-2 simple Lie algebras.

Weights are tuples of integers in the fundamental-weight basis.  The Weyl
group is materialized as explicit integer matrices acting on those
coordinates; the full group is generated once per algebra by breadth-first
closure of the simple reflections and cached.

Conventions: the simple root ``alpha_i`` written in weight coordinates is
row ``i`` of the Cartan matrix, and the simple reflection acts by
``w_i(n)_j = n_j - n_i * C[i][j]``.

Every route indexes its polynomials by a dominant weight: one nonnegative
integer per fundamental weight.  ``check_index`` is the one check of that
contract, ``index_box`` the one table order and ``dominant_sweep`` the one
order of the exact sweeps.  ``fold`` is the one descent of a weight to the
dominant chamber, and ``check_symmetry`` the one Weyl (anti-)invariance
check of a Laurent polynomial's terms.  ``check_weight`` is the check for functions
whose domain also holds negative weights.  ``stabilizer_order`` reads a
dominant weight's stabilizer order from a table built once per algebra,
and ``coset`` gives a weight's class modulo the root lattice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import mul

Weight = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]

# Coordinates this far out would overflow no Python int, but they signal a
# runaway caller; everything acceptance-sized stays tiny.
_COORD_LIMIT = 2**31


class AlgebraId(Enum):
    A1 = "A1"
    A2 = "A2"
    C2 = "C2"
    G2 = "G2"


_CARTAN: dict[AlgebraId, IntMatrix] = {
    AlgebraId.A1: ((2,),),
    AlgebraId.A2: ((2, -1), (-1, 2)),
    AlgebraId.C2: ((2, -1), (-2, 2)),
    AlgebraId.G2: ((2, -1), (-3, 2)),
}

_WEYL_ORDER = {AlgebraId.A1: 2, AlgebraId.A2: 6, AlgebraId.C2: 8, AlgebraId.G2: 12}


@dataclass(frozen=True)
class WeylElement:
    """One Weyl-group element: matrix on weight coordinates, determinant,
    and a shortest generator word (1-based indices, breadth-first order)."""

    matrix: IntMatrix
    det: int
    word_length: int
    word: tuple[int, ...]


@dataclass(frozen=True)
class RootSystem:
    algebra: AlgebraId
    cartan: IntMatrix
    elements: tuple[WeylElement, ...]
    rho: Weight
    positive_coroots: IntMatrix
    # heights[i] is the height <lambda_i, 2 rho^v> of fundamental weight i.
    heights: Weight
    # stabilizers[m] is the stabilizer order of a dominant weight whose zero
    # coordinates are the set bits of m.
    stabilizers: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def generators(self) -> tuple[WeylElement, ...]:
        return tuple(w for w in self.elements if w.word_length == 1)


def _identity(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def _det(m: IntMatrix) -> int:
    if len(m) == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _reflection_matrix(cartan: IntMatrix, i: int) -> IntMatrix:
    # w_i fixes every coordinate except that column i picks up -C[i][j].
    d = len(cartan)
    return tuple(
        tuple((1 if j == k else 0) - (cartan[i][j] if k == i else 0) for k in range(d))
        for j in range(d)
    )


@lru_cache(maxsize=None)
def build_root_system(algebra: AlgebraId) -> RootSystem:
    """Construct (and cache) the full root-system record for ``algebra``."""
    cartan = _CARTAN[algebra]
    d = len(cartan)
    gens = [_reflection_matrix(cartan, i) for i in range(d)]

    ident = _identity(d)
    elements = [WeylElement(ident, 1, 0, ())]
    seen = {ident}
    queue: deque[tuple[IntMatrix, tuple[int, ...]]] = deque([(ident, ())])
    while queue:
        mat, word = queue.popleft()
        for gi, gen in enumerate(gens, start=1):
            prod = _matmul(mat, gen)
            if prod in seen:
                continue
            seen.add(prod)
            next_word = word + (gi,)
            elements.append(WeylElement(prod, _det(prod), len(next_word), next_word))
            queue.append((prod, next_word))

    if len(elements) != _WEYL_ORDER[algebra]:
        raise RuntimeError(
            f"Weyl closure for {algebra.value} produced {len(elements)} elements,"
            f" expected {_WEYL_ORDER[algebra]}"
        )

    # Row i of w's matrix pairs a weight with the coroot w^-1(alpha_i^v), so
    # the rows are all the coroots; a coroot is positive exactly when it
    # pairs positively with rho = (1, ..., 1).
    coroots = tuple(sorted({row for w in elements for row in w.matrix if sum(row) > 0}))
    # The stabilizer of a dominant weight is generated by the simple
    # reflections it lies on (Chevalley), so its order depends only on
    # which coordinates are zero: count the elements fixing 0 there, 1 elsewhere.
    walls = [tuple(0 if m >> j & 1 else 1 for j in range(d)) for m in range(2**d)]
    return RootSystem(
        algebra=algebra,
        cartan=cartan,
        elements=tuple(elements),
        rho=(1,) * d,
        positive_coroots=coroots,
        heights=tuple(map(sum, zip(*coroots))),
        stabilizers=tuple(
            sum(all(sum(map(mul, row, mu)) == m for row, m in zip(w.matrix, mu)) for w in elements)
            for mu in walls
        ),
    )


def act(rs: RootSystem, w: WeylElement, mu: Weight) -> Weight:
    """Image of the weight ``mu`` under the group element ``w``."""
    if len(mu) != rs.rank:
        raise ValueError("weight rank mismatch")
    if any(abs(c) >= _COORD_LIMIT for c in mu):
        raise ValueError("weight coordinate out of supported range")
    return tuple(sum(row[k] * mu[k] for k in range(rs.rank)) for row in w.matrix)


def act_all(rs: RootSystem, w: WeylElement, weights: list[Weight]) -> list[Weight]:
    """Images of many weights under ``w``: ``act`` with its checks made once
    over the batch."""
    d = rs.rank
    if set(map(len, weights)) - {d}:
        raise ValueError("weight rank mismatch")
    if weights and (
        max(map(max, weights)) >= _COORD_LIMIT or min(map(min, weights)) <= -_COORD_LIMIT
    ):
        raise ValueError("weight coordinate out of supported range")
    if d != 2:
        return [act(rs, w, mu) for mu in weights]
    (a, b), (c, e) = w.matrix
    return [(a * x + b * y, c * x + e * y) for x, y in weights]


def check_symmetry(rs: RootSystem, terms: dict, sign: int, error: type, what: str) -> None:
    """Raise ``error`` at the first term whose image under a simple reflection
    does not carry ``sign`` times its coefficient.  Generator symmetry implies
    group symmetry, and reflections map exponents bijectively."""
    exps = list(terms)
    for w in rs.generators:
        for exp, image in zip(exps, act_all(rs, w, exps)):
            c = terms[exp]
            if terms.get(image) != sign * c:
                raise error(
                    f"{what} is not Weyl-{'' if sign == 1 else 'anti-'}invariant: z^{exp}"
                    f" has coefficient {c}, its image z^{image} under simple reflection"
                    f" {w.word[0]} has {terms.get(image, 0)}"
                )


def fold(rs: RootSystem, mu: Weight) -> tuple[int, Weight]:
    """The one point of the orbit of ``mu`` in the closed dominant chamber,
    with the sign (-1)^steps of the walk that reaches it: reflect in simple
    root i, at the most negative coordinate i, while that coordinate is
    negative.  Each step adds a positive multiple of alpha_i, raising the
    height, and the walk is a reduced word, so it ends within |Phi+| steps.
    Off the walls the element reaching the chamber is unique and the sign
    is its determinant."""
    sign = 1
    while (m := min(mu)) < 0:
        mu = tuple(a - m * r for a, r in zip(mu, rs.cartan[mu.index(m)]))
        sign = -sign
    return sign, mu


def stabilizer_order(rs: RootSystem, mu: Weight) -> int:
    """The order of the stabilizer of the dominant weight ``mu`` in W."""
    return rs.stabilizers[sum(1 << j for j, c in enumerate(mu) if not c)]


def coset(rs: RootSystem, mu: Weight) -> Weight:
    """``mu`` modulo the root lattice, which the rows of the Cartan matrix
    span: mu . adj(C) modulo det C, zero exactly on the root lattice.  A
    monomial in the variables, or a character, lies in one coset."""
    c = rs.cartan
    adj = ((1,),) if rs.rank == 1 else ((c[1][1], -c[0][1]), (-c[1][0], c[0][0]))
    det = _det(c)
    return tuple(sum(map(mul, mu, col)) % det for col in zip(*adj))


def height(rs: RootSystem, mu: Weight) -> int:
    """The pairing with 2 rho^v: every positive root raises it by at least 2."""
    return sum(map(mul, rs.heights, mu))


def dominant_sweep(rs: RootSystem, top: int) -> list[Weight]:
    """The dominant weights of height at most ``top``, highest first and
    lexicographically descending within a height.  A weight minus a sum of
    positive roots has strictly smaller height, so it comes later."""
    box = product(*(range(top // h + 1) for h in rs.heights))
    sweep = sorted(((s, mu) for mu in box if (s := height(rs, mu)) <= top), reverse=True)
    return [mu for _, mu in sweep]


def check_index(rs: RootSystem, index: Weight) -> None:
    """Reject anything but a table index: one nonnegative integer per
    fundamental weight.  An integer is an ``int`` that is not a ``bool``."""
    if len(index) != rs.rank or not all(type(c) is int and c >= 0 for c in index):
        raise ValueError(
            f"a rank-{rs.rank} index takes {rs.rank} nonnegative integer entries, got {index}"
        )


def check_weight(rs: RootSystem, mu: Weight) -> None:
    """Reject anything but a weight: one integer per fundamental weight,
    negative entries allowed.  An integer is an ``int`` that is not a
    ``bool``."""
    if len(mu) != rs.rank or not all(type(c) is int for c in mu):
        raise ValueError(f"a rank-{rs.rank} weight takes {rs.rank} integer entries, got {mu}")


def index_box(rank: int, max_m: int, max_n: int | None) -> list[Weight]:
    """The table indices up to (max_m, max_n), in table order."""
    if (max_n is None) != (rank == 1):
        bounds = "max_m only" if rank == 1 else "max_m and max_n"
        raise ValueError(f"a rank-{rank} table takes {bounds}, got max_n={max_n}")
    for name, bound in (("max_m", max_m), ("max_n", max_n)):
        if bound is not None and not (type(bound) is int and bound >= 0):
            raise ValueError(f"{name} must be a nonnegative integer, got {bound!r}")
    if rank == 1:
        return [(m,) for m in range(max_m + 1)]
    return [(m, n) for m in range(max_m + 1) for n in range(max_n + 1)]

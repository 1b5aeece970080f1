"""Artifact rendering: the direct table writer against json.dumps."""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import example, given, strategies as st

from weylcheb import AlgebraId, Kind, XYPoly, output


def _reference_table_json(algebra, kind, max_m, max_n, table) -> str:
    """The table artifact as a dict tree rendered by ``json.dumps``."""
    body = {
        "schema": output.SCHEMA_VERSION,
        "algebra": algebra.value.lower(),
        "kind": kind.value,
        "max_m": max_m,
        "polynomials": [
            dict(zip("mn", idx), poly=table[idx].to_json_obj())
            for idx in sorted(table)
        ],
    }
    if max_n is not None:
        body["max_n"] = max_n
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


coeffs = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(max_denominator=64),
)


def _polys(rank: int):
    degree = st.tuples(*[st.integers(min_value=0, max_value=12)] * rank)
    # empty dictionaries and zero coefficients give empty polynomials
    return st.dictionaries(degree, coeffs, max_size=5).map(lambda d: XYPoly(rank, d))


@st.composite
def tables(draw):
    rank = draw(st.sampled_from((1, 2)))
    if rank == 1:
        algebra = AlgebraId.A1
    else:
        algebra = draw(st.sampled_from((AlgebraId.A2, AlgebraId.C2, AlgebraId.G2)))
    kind = draw(st.sampled_from(tuple(Kind)))
    max_m = draw(st.integers(min_value=0, max_value=3))
    max_n = draw(st.integers(min_value=0, max_value=3)) if rank == 2 else None
    box = [(m,) for m in range(max_m + 1)] if rank == 1 else [
        (m, n) for m in range(max_m + 1) for n in range(max_n + 1)
    ]
    polys = draw(st.lists(_polys(rank), min_size=len(box), max_size=len(box)))
    return algebra, kind, max_m, max_n, dict(zip(box, polys))


# always run: an empty polynomial, a fractional coefficient, an empty table
@example(case=(
    AlgebraId.G2,
    Kind.FIRST,
    0,
    1,
    {(0, 0): XYPoly.zero(2), (0, 1): XYPoly(2, {(0, 1): Fraction(-3, 8), (1, 0): -1})},
))
@example(case=(AlgebraId.A1, Kind.SECOND, 0, None, {}))
@given(case=tables())
def test_table_json_matches_json_dumps(case):
    assert output.table_json(*case) == _reference_table_json(*case)

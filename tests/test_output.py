"""Artifact rendering: the direct table writers against json.dumps and
``XYPoly.as_text``."""

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


def _reference_table_text(kind, table, latex) -> str:
    """The text artifact from each entry's own ``as_text``."""
    label = {Kind.FIRST: "C", Kind.SECOND: "U"}[kind]
    tail = " \\\\" if latex else ""
    lines = [
        f"{label}_{{{','.join(map(str, idx))}}} = {table[idx].as_text()}{tail}"
        for idx in sorted(table)
    ]
    return "\n".join(lines) + "\n"


coeffs = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(max_denominator=64),
)


def _polys(rank: int):
    # one small degree range, so that entries share degrees and each
    # renderer orders degrees across the whole table
    degree = st.tuples(*[st.integers(min_value=0, max_value=6)] * rank)
    # empty dictionaries and zero coefficients give empty polynomials
    return st.dictionaries(degree, coeffs, max_size=30).map(lambda d: XYPoly(rank, d))


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


# an empty polynomial and a fractional coefficient; an empty table
_MIXED = (
    AlgebraId.G2,
    Kind.FIRST,
    0,
    1,
    {(0, 0): XYPoly.zero(2), (0, 1): XYPoly(2, {(0, 1): Fraction(-3, 8), (1, 0): -1})},
)
_EMPTY = (AlgebraId.A1, Kind.SECOND, 0, None, {})
# the edges of an entry's pieces: one term, whose degree text loses its
# separator; a Fraction last; an empty entry between two others; one entry
_ONE_TERM = (
    AlgebraId.C2,
    Kind.SECOND,
    1,
    0,
    {(0, 0): XYPoly.constant(2, 1), (1, 0): XYPoly(2, {(1, 0): -7})},
)
_FRACTION_LAST = (
    AlgebraId.G2,
    Kind.FIRST,
    0,
    0,
    {(0, 0): XYPoly(2, {(2, 1): 5, (1, 0): -2, (0, 0): Fraction(1, 3)})},
)
_EMPTY_BETWEEN = (
    AlgebraId.A2,
    Kind.SECOND,
    1,
    1,
    {
        (0, 0): XYPoly(2, {(0, 1): 2, (0, 0): -1}),
        (0, 1): XYPoly.zero(2),
        (1, 0): XYPoly(2, {(1, 0): 3, (0, 0): 4}),
        (1, 1): XYPoly.zero(2),
    },
)
_ONE_ENTRY = (AlgebraId.A1, Kind.FIRST, 0, None, {(0,): XYPoly(1, {(2,): -1, (0,): 2})})


@example(case=_MIXED)
@example(case=_EMPTY)
@example(case=_ONE_TERM)
@example(case=_FRACTION_LAST)
@example(case=_EMPTY_BETWEEN)
@example(case=_ONE_ENTRY)
@given(case=tables())
def test_table_json_matches_json_dumps(case):
    assert output.table_json(*case) == _reference_table_json(*case)


@example(case=_MIXED, latex=False)
@example(case=_EMPTY, latex=True)
@given(case=tables(), latex=st.booleans())
def test_table_text_matches_each_entrys_as_text(case, latex):
    _, kind, _, _, table = case
    assert output.table_text(kind, table, latex) == _reference_table_text(kind, table, latex)


def test_table_examples_render_as_written():
    """The empty polynomial is "0" in text and [] in JSON; a unit
    coefficient shows its sign alone, a fraction its str."""
    assert output.table_text(Kind.FIRST, _MIXED[4], False) == "C_{0,0} = 0\nC_{0,1} = -x-3/8y\n"
    assert output.table_text(Kind.FIRST, _MIXED[4], True) == (
        "C_{0,0} = 0 \\\\\nC_{0,1} = -x-3/8y \\\\\n"
    )
    assert '"n": 0,\n      "poly": []\n' in output.table_json(*_MIXED)
    assert output.table_text(Kind.SECOND, {}, False) == "\n"

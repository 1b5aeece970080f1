"""Canonical artifact rendering shared by every command path.

Both table commands serialize through the same functions here, which is
what makes their outputs byte-identical when the polynomials agree.
JSON artifacts carry a top-level schema number and sorted keys, in the
layout of ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.

Table artifacts are written directly in that layout, because with
``indent`` set ``json.dumps`` runs CPython's pure-Python encoder.  A render
first builds the table's degree lexicon, each degree's rank and fixed text
(553 degrees for 49439 terms at G2 16x16), so it calls no Python function
per term.  The generating-function, verify and crosscheck artifacts are
small, so they still go through ``json.dumps``.
"""

from __future__ import annotations

import json

from .genfunc import RationalGF
from .numeric import VerificationReport
from .orbit import Kind
from .polynomialize import XYPoly, _lexicon, _monomial_text, _sum_text
from .rootsystem import AlgebraId

SCHEMA_VERSION = 1

_KIND_LABEL = {Kind.FIRST: "C", Kind.SECOND: "U"}


def _canonical_json(algebra: AlgebraId, kind: Kind, **fields) -> str:
    """The artifact {schema, algebra, kind, **fields} in canonical layout."""
    body = {
        "schema": SCHEMA_VERSION,
        "algebra": algebra.value.lower(),
        "kind": kind.value,
        **fields,
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _index_obj(index: tuple[int, ...]) -> dict:
    obj = {"m": index[0]}
    if len(index) > 1:
        obj["n"] = index[1]
    return obj


def _subscript(index: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in index)


# A table entry's term, at the nesting depth of the layout: _TERM_OPEN, the
# coefficient's str (str(Fraction(coeff)), as in ``to_json_obj``), its degree.
_TERM_OPEN = '        {\n          "coeff": "'
_NEXT_TERM = ",\n" + _TERM_OPEN


def _degree_json(deg: tuple[int, ...]) -> str:
    """``deg``'s text after a coefficient, with the separator that opens the next term."""
    digits = ",\n            ".join(map(str, deg))
    return f'",\n          "degree": [\n            {digits}\n          ]\n        }}{_NEXT_TERM}'


def _table_entry(index: tuple[int, ...], poly: XYPoly, rank: dict, text: dict) -> list[str]:
    """The entry's head, its coefficient and degree texts in turn, and its tail."""
    head = f'    {{\n      "m": {index[0]},\n'
    if len(index) > 1:
        head += f'      "n": {index[1]},\n'
    if not poly:
        return [f'{head}      "poly": []\n    }}']
    keys = sorted(poly._terms, key=rank.__getitem__)
    pieces = [None] * (2 * len(keys))
    pieces[::2] = map(str, map(poly._terms.__getitem__, keys))
    pieces[1::2] = map(text.__getitem__, keys)
    pieces[-1] = pieces[-1][: -len(_NEXT_TERM)]  # the last term opens none
    return [f'{head}      "poly": [\n{_TERM_OPEN}', *pieces, "\n      ]\n    }"]


def table_json(
    algebra: AlgebraId,
    kind: Kind,
    max_m: int,
    max_n: int | None,
    table: dict[tuple[int, ...], XYPoly],
) -> str:
    """The table artifact, byte for byte what ``_canonical_json`` gives for
    the fields max_m[, max_n] and polynomials, where each polynomial is
    {m[, n], poly: ``XYPoly.to_json_obj()``}."""
    head = (
        f'{{\n  "algebra": {json.dumps(algebra.value.lower())},\n'
        f'  "kind": {json.dumps(kind.value)},\n'
        f'  "max_m": {max_m},\n'
    )
    if max_n is not None:
        head += f'  "max_n": {max_n},\n'
    rank, text = _lexicon(table.values(), _degree_json)
    # one join over every piece, so the text is copied only once
    parts = [head, '  "polynomials": [']
    sep = "\n"
    for idx in sorted(table):
        parts.append(sep)
        parts += _table_entry(idx, table[idx], rank, text)
        sep = ",\n"
    parts.append("\n  ]" if table else "]")
    parts.append(f',\n  "schema": {SCHEMA_VERSION}\n}}\n')
    return "".join(parts)


def table_text(
    kind: Kind, table: dict[tuple[int, ...], XYPoly], latex: bool
) -> str:
    label = _KIND_LABEL[kind]
    tail = " \\\\" if latex else ""
    rank, body = _lexicon(table.values(), _monomial_text)
    lines = [
        f"{label}_{{{_subscript(idx)}}} = {_sum_text(table[idx]._terms, rank, body)}{tail}"
        for idx in sorted(table)
    ]
    return "\n".join(lines) + "\n"


def _t_poly_text(coeffs, parameter: str) -> str:
    """P_i term by term: (-1)^k e_k over distinct orbit points is never zero."""
    pieces = []
    for k, coeff in enumerate(coeffs):
        if k == 0:
            pieces.append(coeff.as_text())
        else:
            power = parameter if k == 1 else f"{parameter}^{{{k}}}"
            pieces.append(f"({coeff.as_text()}){power}")
    return " + ".join(pieces) if pieces else "0"


def gf_json(algebra: AlgebraId, kind: Kind, gf: RationalGF) -> str:
    return _canonical_json(
        algebra,
        kind,
        P1=[c.to_json_obj() for c in gf.denominators[0]],
        P2=[c.to_json_obj() for c in gf.denominators[1]],
        K=[
            {"i": i, "j": j, "poly": gf.numerator[(i, j)].to_json_obj()}
            for i, j in sorted(gf.numerator)
        ],
    )


def gf_text(gf: RationalGF, latex: bool) -> str:
    tail = " \\\\" if latex else ""
    lines = [
        f"P_{{1}} = {_t_poly_text(gf.denominators[0], 'p')}{tail}",
        f"P_{{2}} = {_t_poly_text(gf.denominators[1], 'q')}{tail}",
    ]
    for i, j in sorted(gf.numerator):
        lines.append(f"K_{{{i},{j}}} = {gf.numerator[(i, j)].as_text()}{tail}")
    return "\n".join(lines) + "\n"


def verify_json(
    algebra: AlgebraId,
    kind: Kind,
    seed: int,
    results: list[dict],
    passed: bool,
) -> str:
    return _canonical_json(algebra, kind, seed=seed, results=results, passed=passed)


def verify_result_obj(
    index: tuple[int, ...],
    report: VerificationReport,
    dims: tuple[int, int],
) -> dict:
    return {
        **_index_obj(index),
        "max_abs_error": report.max_abs_error,
        "skipped": report.skipped,
        "samples": report.samples,
        "ratio_ok": report.passed,
        "dimension": dims[1],
        "dimension_ok": dims[0] == dims[1],
    }


def verify_text(results: list[dict], passed: bool) -> str:
    lines = []
    for rec in results:
        idx = (rec["m"],) if "n" not in rec else (rec["m"], rec["n"])
        status = "ok" if rec["ratio_ok"] and rec["dimension_ok"] else "FAIL"
        lines.append(
            f"({_subscript(idx)}): max_err={rec['max_abs_error']:.3e} "
            f"skipped={rec['skipped']} dim={rec['dimension']} {status}"
        )
    lines.append("PASSED" if passed else "FAILED")
    return "\n".join(lines) + "\n"


def crosscheck_json(
    algebra: AlgebraId, kind: Kind, max_m: int, max_n: int | None, mismatch: dict | None
) -> str:
    fields = {"max_m": max_m, "match": mismatch is None}
    if max_n is not None:
        fields["max_n"] = max_n
    if mismatch is not None:
        fields["first_mismatch"] = mismatch
    return _canonical_json(algebra, kind, **fields)

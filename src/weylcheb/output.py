"""Canonical artifact rendering shared by every command path.

Both table commands serialize through the same functions here, which is
what makes their outputs byte-identical when the polynomials agree.
JSON artifacts carry a top-level schema number and sorted keys.
"""

from __future__ import annotations

import json

from .genfunc import RationalGF
from .numeric import VerificationReport
from .orbit import Kind
from .polynomialize import XYPoly
from .rootsystem import AlgebraId

SCHEMA_VERSION = 1

_KIND_LABEL = {Kind.FIRST: "C", Kind.SECOND: "U"}


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _index_obj(index: tuple[int, ...]) -> dict:
    obj = {"m": index[0]}
    if len(index) > 1:
        obj["n"] = index[1]
    return obj


def _subscript(index: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in index)


def table_json(
    algebra: AlgebraId,
    kind: Kind,
    max_m: int,
    max_n: int | None,
    table: dict[tuple[int, ...], XYPoly],
) -> str:
    body = {
        "schema": SCHEMA_VERSION,
        "algebra": algebra.value.lower(),
        "kind": kind.value,
        "max_m": max_m,
        "polynomials": [
            {**_index_obj(idx), "poly": table[idx].to_json_obj()}
            for idx in sorted(table)
        ],
    }
    if max_n is not None:
        body["max_n"] = max_n
    return _canonical_json(body)


def table_text(
    kind: Kind, table: dict[tuple[int, ...], XYPoly], latex: bool
) -> str:
    label = _KIND_LABEL[kind]
    tail = " \\\\" if latex else ""
    lines = [
        f"{label}_{{{_subscript(idx)}}} = {table[idx].as_text()}{tail}"
        for idx in sorted(table)
    ]
    return "\n".join(lines) + "\n"


def _t_poly_text(coeffs, parameter: str) -> str:
    pieces = []
    for k, coeff in enumerate(coeffs):
        if not coeff:
            continue
        if k == 0:
            pieces.append(coeff.as_text())
        else:
            power = parameter if k == 1 else f"{parameter}^{{{k}}}"
            pieces.append(f"({coeff.as_text()}){power}")
    return " + ".join(pieces) if pieces else "0"


def gf_json(algebra: AlgebraId, kind: Kind, gf: RationalGF) -> str:
    body = {
        "schema": SCHEMA_VERSION,
        "algebra": algebra.value.lower(),
        "kind": kind.value,
        "P1": [c.to_json_obj() for c in gf.denominators[0]],
        "P2": [c.to_json_obj() for c in gf.denominators[1]],
        "K": [
            {"i": i, "j": j, "poly": gf.numerator[(i, j)].to_json_obj()}
            for i, j in sorted(gf.numerator)
        ],
    }
    return _canonical_json(body)


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
    body = {
        "schema": SCHEMA_VERSION,
        "algebra": algebra.value.lower(),
        "kind": kind.value,
        "seed": seed,
        "results": results,
        "passed": passed,
    }
    return _canonical_json(body)


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
    body = {
        "schema": SCHEMA_VERSION,
        "algebra": algebra.value.lower(),
        "kind": kind.value,
        "max_m": max_m,
        "match": mismatch is None,
    }
    if max_n is not None:
        body["max_n"] = max_n
    if mismatch is not None:
        body["first_mismatch"] = mismatch
    return _canonical_json(body)

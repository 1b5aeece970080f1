"""Regenerate bench/digests.json, the committed answers the runner checks.

    python3 bench/make_digests.py

Before writing, it confirms the answers by a second route: the 0..GF_SIZE
box of the recurrence-table artifact must equal the gf-table artifact byte
for byte, and the G2 second-kind library answers must equal
recurrence_table.  Run it only when the expected answers change.
"""

from __future__ import annotations

import json
import sys

import common

weylcheb = common.import_weylcheb()

import workloads  # noqa: E402
from weylcheb import output  # noqa: E402

G2, SECOND = weylcheb.AlgebraId.G2, weylcheb.Kind.SECOND


def main() -> int:
    rc, gf_text = workloads.run_cli(workloads.GfTable(0, {}, False).argv())
    rc2, rec_text = workloads.run_cli(workloads.RecurrenceTable(0, {}, False).argv())
    if rc or rc2:
        sys.stderr.write("a table command failed\n")
        return 1
    size = workloads.GF_SIZE
    basis = common.build_pairs(weylcheb, [("G2", "second")])[("G2", "second")]
    rec = weylcheb.recurrence_table(basis.rs, basis, workloads.REC_SIZE, workloads.REC_SIZE)
    box = {idx: poly for idx, poly in rec.items() if max(idx) <= size}
    if output.table_json(G2, SECOND, size, size, box) != gf_text:
        sys.stderr.write("recurrence box differs from the gf-table artifact\n")
        return 1
    if output.table_json(G2, SECOND, workloads.REC_SIZE, workloads.REC_SIZE, rec) != rec_text:
        sys.stderr.write("recurrence-table artifact differs from recurrence_table\n")
        return 1

    bases = common.build_pairs(weylcheb, common.ALL_PAIRS)
    library = {}
    for algebra, kind in common.ALL_PAIRS:
        basis = bases[(algebra, kind)]
        for idx in workloads.library_box(algebra):
            if kind == "second":
                poly = weylcheb.second_kind_poly(basis.rs, basis, *idx)
            else:
                poly = weylcheb.first_kind_poly(basis.rs, basis, idx)
            if (algebra, kind) == ("G2", "second") and poly != rec[idx]:
                sys.stderr.write(f"G2 second {idx} differs from recurrence_table\n")
                return 1
            library[workloads.query_key(algebra, kind, idx)] = common.poly_digest(poly)
    for algebra in workloads.RANK2:
        basis = bases[(algebra, "second")]
        library[f"{algebra}/gf"] = workloads.gf_digest(weylcheb.closed_form_gf(basis.rs, basis))

    digests = {
        "gf-table": common.sha256_text(gf_text),
        "recurrence-table": common.sha256_text(rec_text),
        "library-mixed": library,
    }
    with open(common.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {common.DIGESTS.name}: {len(library)} library answers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

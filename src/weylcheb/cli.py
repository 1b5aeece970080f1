"""Command-line front end.

Commands: table (generating-function route), recurrence-table (recurrence
route, same artifact format), genfunc (closed-form rational generating
function), verify (numerical checks), crosscheck (both table routes,
entry by entry; on a mismatch the artifact names the first differing index
and both polynomials).  table, recurrence-table and crosscheck accept every
algebra and kind; verify takes a1, c2 and g2 with the second kind.  Exit
codes: 0 success, 1 verification or crosscheck failure, 2 usage errors and
a verify whose samples all lie on walls of the Weyl chamber.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext

from . import output
from .genfunc import closed_form_gf, first_kind_table, second_kind_table
from .numeric import (
    DEFAULT_SEED,
    AllPointsSingularError,
    dimension_check,
    sample_numerators,
    verify_ratio,
)
from .orbit import Kind
from .polynomialize import build_basis
from .recurrence import recurrence_table
from .rootsystem import AlgebraId, build_root_system, index_box

_MAX_INDEX = 64
# A verify run holds about 0.37 KB per used sample (about 37 MB at this
# bound), plus one block of numerator values, which numeric caps at about 42 MB.
_MAX_SAMPLES = 100_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylcheb",
        description="Chebyshev-like polynomials attached to rank-2 simple Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_table=False, with_verify=False):
        p.add_argument(
            "--algebra",
            choices=[a.value.lower() for a in AlgebraId],
            default=AlgebraId.G2.value.lower(),
        )
        p.add_argument(
            "--kind",
            choices=[k.value for k in Kind],
            default=Kind.SECOND.value,
        )
        p.add_argument(
            "--format", choices=["json", "latex", "plain"], default="json"
        )
        p.add_argument("--output", type=str, default=None, metavar="PATH")
        if with_table:
            p.add_argument("--max-m", type=int, default=4)
            p.add_argument("--max-n", type=int, default=4)
        if with_verify:
            p.add_argument("--samples", type=int, default=100)
            p.add_argument("--tol", type=float, default=1e-8)
            p.add_argument("--seed", type=int, default=None)

    common(sub.add_parser("table", help="polynomial table"), with_table=True)
    common(
        sub.add_parser("recurrence-table", help="table via the recurrence route"),
        with_table=True,
    )
    common(sub.add_parser("genfunc", help="closed-form generating function"))
    common(
        sub.add_parser("verify", help="numerical verification"),
        with_table=True,
        with_verify=True,
    )
    common(
        sub.add_parser("crosscheck", help="compare both table routes"),
        with_table=True,
    )
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    for name in ("max_m", "max_n"):
        value = getattr(args, name, None)
        if value is None:
            continue
        if value < 0 or value > _MAX_INDEX:
            parser.error(f"--{name.replace('_', '-')} must be in 0..{_MAX_INDEX}")
    samples = getattr(args, "samples", 1)
    if samples <= 0:
        parser.error("--samples must be positive")
    if samples > _MAX_SAMPLES:
        parser.error(f"--samples must be at most {_MAX_SAMPLES}")
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        parser.error("--tol must be finite and positive")
    if args.command == "genfunc" and (args.algebra == "a1" or args.kind != "second"):
        parser.error("genfunc supports rank-2 algebras with --kind second")
    if args.command == "verify" and args.algebra == "a2":
        parser.error(
            "verify does not support a2: its variables x and y are complex "
            "conjugates, and the sampler evaluates real variable values only"
        )
    if args.command == "verify" and args.kind != "second":
        parser.error("verify supports --kind second only")
    if args.output:
        parent = os.path.dirname(args.output) or "."
        writable = os.path.isdir(parent) and os.access(parent, os.W_OK)
        if os.path.isdir(args.output) or not writable:
            parser.error(f"--output must be a file in a writable directory, got {args.output}")


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("WEYLCHEB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            sys.stderr.write(f"weylcheb: bad WEYLCHEB_SEED: {env!r}\n")
            raise SystemExit(2) from None
    return DEFAULT_SEED


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` a megabyte at a time: a text stream encodes what it is
    given in one piece, so one write would hold a second copy of it."""
    target = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with target as out:
        for at in range(0, len(text), 1 << 20):
            out.write(text[at : at + (1 << 20)])


def _table_indices(rank: int, args) -> tuple[int, int | None]:
    return args.max_m, (args.max_n if rank == 2 else None)


def _first_mismatch(via_gf: dict, via_rec: dict) -> dict | None:
    """The first index, in table order, where the two routes differ, or None.
    Equal polynomials render to equal text, and unequal ones do not."""
    idx = min((i for i in via_gf if via_gf[i] != via_rec[i]), default=None)
    if idx is None:
        return None
    texts = {"gf": via_gf[idx].as_text(), "recurrence": via_rec[idx].as_text()}
    return {**output._index_obj(idx), **texts}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    algebra = AlgebraId(args.algebra.upper())
    kind = Kind(args.kind)
    rs = build_root_system(algebra)
    basis = build_basis(rs, kind)

    gf_table = second_kind_table if kind is Kind.SECOND else first_kind_table
    if args.command in ("table", "recurrence-table"):
        max_m, max_n = _table_indices(rs.rank, args)
        route = gf_table if args.command == "table" else recurrence_table
        table = route(rs, basis, max_m, max_n)
        if args.format == "json":
            text = output.table_json(algebra, kind, max_m, max_n, table)
        else:
            text = output.table_text(kind, table, latex=args.format == "latex")
        del table, basis  # only the text is needed now; the basis caches the GF polynomials
        _emit(args, text)
        return 0

    if args.command == "genfunc":
        gf = closed_form_gf(rs, basis)
        if args.format == "json":
            text = output.gf_json(algebra, kind, gf)
        else:
            text = output.gf_text(gf, latex=args.format == "latex")
        _emit(args, text)
        return 0

    if args.command == "verify":
        seed = _resolve_seed(args)
        indices = list(index_box(rs.rank, *_table_indices(rs.rank, args)))
        try:
            run = sample_numerators(rs, basis, indices, num_samples=args.samples, seed=seed)
        except AllPointsSingularError as exc:
            sys.stderr.write(f"weylcheb: seed {seed} with {args.samples} samples: {exc}\n")
            return 2
        results = []
        passed = True
        for index, sampled in zip(indices, run):
            report = verify_ratio(
                rs,
                basis,
                *index,
                num_samples=args.samples,
                tol=args.tol,
                seed=seed,
                sampled=sampled,
            )
            dims = dimension_check(rs, basis, *index)
            results.append(output.verify_result_obj(index, report, dims))
            if not (report.passed and dims[0] == dims[1]):
                passed = False
        if args.format == "json":
            text = output.verify_json(algebra, kind, seed, results, passed)
        else:
            text = output.verify_text(results, passed)
        _emit(args, text)
        return 0 if passed else 1

    # crosscheck: the subparsers are required, so no other command is left
    max_m, max_n = _table_indices(rs.rank, args)
    via_gf = gf_table(rs, basis, max_m, max_n)
    via_rec = recurrence_table(rs, basis, max_m, max_n)
    mismatch = _first_mismatch(via_gf, via_rec)
    if args.format == "json":
        text = output.crosscheck_json(algebra, kind, max_m, max_n, mismatch)
    else:
        size = "x".join(str(v) for v in (max_m, max_n) if v is not None)
        text = f"crosscheck {size}: {'match' if mismatch is None else 'MISMATCH'}\n"
    _emit(args, text)
    return 0 if mismatch is None else 1


if __name__ == "__main__":
    raise SystemExit(main())

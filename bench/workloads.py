"""The four workloads.

Each is a closed loop with a single caller in one thread.  A workload
builds its inputs from the seed, runs one pass at a time, times every
operation it sends to the package, and checks every answer against its
oracle; an operation that raises, exits nonzero or mismatches counts as
failed.  The oracle work runs outside the timed intervals.

Sizes are chosen so that one pass takes about a second on a 2-core host,
which lets a run take the median of many passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import time

from common import ALL_PAIRS, build_pairs, poly_digest, sha256_text

import weylcheb
from weylcheb import cli, genfunc, output, recurrence

GF_SIZE = 6
REC_SIZE = 16
VERIFY_SIZE = 4
VERIFY_SAMPLES = 300
# Index boxes of the library session: every index is queried twice.
LIB_RANK1_MAX = 12
LIB_RANK2_MAX = 4
LIB_SERIES_MAX = 3
RANK2 = ("A2", "C2", "G2")


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


class Clock:
    """Times the operations of one pass and tallies their failures."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.ops = 0
        self.failed = 0
        self.query_ms: list[float] = []
        self.problems: list[str] = []

    def call(self, fn, *args):
        """Run one timed operation; returns (ok, result, seconds)."""
        self.ops += 1
        w0 = time.perf_counter()
        c0 = cpu_seconds()
        try:
            result = fn(*args)
            ok = True
        except Exception as exc:  # one failed operation must not end the run
            result = None
            ok = False
            self.fail(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
        elapsed = time.perf_counter() - w0
        self.cpu += cpu_seconds() - c0
        self.wall += elapsed
        return ok, result, elapsed

    def check(self, problem: str | None) -> None:
        if problem is not None:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``weylcheb.cli.main`` in-process, its stdout captured."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


def _g2_second():
    return build_pairs(weylcheb, [("G2", "second")])[("G2", "second")]


def recurrence_artifact(size: int) -> str:
    basis = _g2_second()
    table = weylcheb.recurrence_table(basis.rs, basis, size, size)
    return output.table_json(
        weylcheb.AlgebraId.G2, weylcheb.Kind.SECOND, size, size, table
    )


class CliWorkload:
    """One command-line call per pass, with a fresh VariableBasis each
    time, as every invocation of the command pays.  The call is the
    workload's query."""

    name = ""

    def __init__(self, seed: int, digests: dict, cross_check: bool) -> None:
        self.seed = seed
        self.digests = digests

    def argv(self) -> list[str]:
        raise NotImplementedError

    def problem(self, text: str) -> str | None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def run_pass(self, clock: Clock) -> None:
        ok, result, elapsed = clock.call(run_cli, self.argv())
        if not ok:
            return
        clock.query_ms.append(elapsed * 1000.0)
        rc, text = result
        clock.check(f"exit code {rc}" if rc != 0 else self.problem(text))


class GfTable(CliWorkload):
    """The GF route: coefficient_trace, exact_divide, reduce."""

    name = "gf-table"

    def __init__(self, seed, digests, cross_check):
        super().__init__(seed, digests, cross_check)
        self.reference = recurrence_artifact(GF_SIZE) if cross_check else None

    def argv(self):
        size = str(GF_SIZE)
        return ["table", "--algebra", "g2", "--kind", "second",
                "--max-m", size, "--max-n", size, "--format", "json"]

    def problem(self, text):
        if sha256_text(text) != self.digests["gf-table"]:
            return "table artifact does not match its digest"
        if self.reference is not None and text != self.reference:
            return "table artifact differs from the recurrence_table artifact"
        return None


class RecurrenceTable(CliWorkload):
    """The recurrence route and rendering; reduce runs only for the two
    step multipliers."""

    name = "recurrence-table"

    def argv(self):
        size = str(REC_SIZE)
        return ["recurrence-table", "--max-m", size, "--max-n", size,
                "--format", "json"]

    def problem(self, text):
        if sha256_text(text) != self.digests["recurrence-table"]:
            return "recurrence-table artifact does not match its digest"
        return None


class VerifySampling(CliWorkload):
    """Fixed-point torus sampling; the points come from the seed."""

    name = "verify-sampling"

    def argv(self):
        size = str(VERIFY_SIZE)
        return ["verify", "--max-m", size, "--max-n", size,
                "--samples", str(VERIFY_SAMPLES), "--seed", str(self.seed)]

    def problem(self, text):
        try:
            report = json.loads(text)
        except ValueError:
            return "verify output is not JSON"
        results = report.get("results", [])
        expected = {(m, n) for m in range(VERIFY_SIZE + 1) for n in range(VERIFY_SIZE + 1)}
        if {(r["m"], r["n"]) for r in results} != expected or len(results) != len(expected):
            return "verify did not report every index once"
        if report.get("seed") != self.seed:
            return "verify ran with another seed"
        for r in results:
            if not (r["ratio_ok"] and r["dimension_ok"]) or r["samples"] != VERIFY_SAMPLES:
                return f"verify failed at ({r['m']}, {r['n']})"
        if report.get("passed") is not True:
            return "verify did not pass"
        return None


def library_box(algebra: str):
    if algebra == "A1":
        return [(m,) for m in range(LIB_RANK1_MAX + 1)]
    return [(m, n) for m in range(LIB_RANK2_MAX + 1) for n in range(LIB_RANK2_MAX + 1)]


def library_stream(seed: int) -> list[tuple]:
    """The session's operations, in seeded order.

    Every (algebra, kind, index) of the boxes appears exactly twice, so
    half the queries repeat an earlier one and the work of a pass does not
    depend on the seed, only its order does.  Each rank-2 algebra also
    gets two session steps at seeded places: the closed form with its
    series check, then the companion matrices with the minimal-polynomial
    check on that closed form.
    """
    rng = random.Random(seed)
    items = [
        ("poly", algebra, kind, idx)
        for algebra, kind in ALL_PAIRS
        for idx in library_box(algebra)
    ] * 2
    items += [("session", algebra) for algebra in RANK2] * 2
    rng.shuffle(items)
    seen: set[str] = set()
    stream = []
    for item in items:
        if item[0] == "session":
            step = "companions" if item[1] in seen else "gf"
            seen.add(item[1])
            item = (step, item[1])
        stream.append(item)
    return stream


def query_key(algebra: str, kind: str, idx: tuple[int, ...]) -> str:
    return f"{algebra}/{kind}/{','.join(map(str, idx))}"


def gf_digest(gf) -> str:
    body = {
        "P": [[c.to_json_obj() for c in den] for den in gf.denominators],
        "K": [[i, j, gf.numerator[(i, j)].to_json_obj()] for i, j in sorted(gf.numerator)],
    }
    return sha256_text(json.dumps(body, sort_keys=True))


def annihilates_companion(denominator) -> bool:
    """Whether a denominator annihilates its companion matrix.

    The companion's minimal polynomial is the reversed denominator, so the
    denominator annihilates it exactly when it equals plus or minus its
    own reversal (true for C2 and G2, false for A2).
    """
    rev = denominator[::-1]
    return all(a == b for a, b in zip(denominator, rev)) or all(
        a == -b for a, b in zip(denominator, rev)
    )


class LibraryMixed:
    """One library session per pass: bases for all eight (algebra, kind)
    pairs are built untimed, then the seeded stream runs with the
    monomial caches shared across its calls."""

    name = "library-mixed"

    def __init__(self, seed: int, digests: dict, cross_check: bool) -> None:
        self.stream = library_stream(seed)
        self.digests = digests["library-mixed"]
        self.g2_reference = None
        if cross_check:
            basis = _g2_second()
            self.g2_reference = weylcheb.recurrence_table(
                basis.rs, basis, LIB_RANK2_MAX, LIB_RANK2_MAX
            )
        self.bases: dict = {}

    def prepare(self) -> None:
        self.bases = build_pairs(weylcheb, ALL_PAIRS)

    def run_pass(self, clock: Clock) -> None:
        closed_forms: dict = {}
        for item in self.stream:
            if item[0] == "poly":
                self._query(clock, *item[1:])
            elif item[0] == "gf":
                closed_forms[item[1]] = self._closed_form(clock, item[1])
            else:
                self._companions(clock, item[1], closed_forms.get(item[1]))

    def _query(self, clock: Clock, algebra: str, kind: str, idx: tuple) -> None:
        basis = self.bases[(algebra, kind)]
        if kind == "second":
            ok, poly, elapsed = clock.call(genfunc.second_kind_poly, basis.rs, basis, *idx)
        else:
            ok, poly, elapsed = clock.call(genfunc.first_kind_poly, basis.rs, basis, idx)
        if not ok:
            return
        clock.query_ms.append(elapsed * 1000.0)
        key = query_key(algebra, kind, idx)
        if poly_digest(poly) != self.digests[key]:
            clock.fail(f"{key} does not match its digest")
        elif (
            self.g2_reference is not None
            and (algebra, kind) == ("G2", "second")
            and poly != self.g2_reference[idx]
        ):
            clock.fail(f"{key} differs from recurrence_table")

    def _closed_form(self, clock: Clock, algebra: str):
        basis = self.bases[(algebra, "second")]
        ok, gf, _ = clock.call(genfunc.closed_form_gf, basis.rs, basis)
        if not ok:
            return None
        if gf_digest(gf) != self.digests[f"{algebra}/gf"]:
            clock.fail(f"{algebra} closed form does not match its digest")
        ok, agrees, _ = clock.call(
            genfunc.gf_series_check, gf, basis, LIB_SERIES_MAX, LIB_SERIES_MAX
        )
        if ok and agrees is not True:
            clock.fail(f"{algebra} gf_series_check returned {agrees!r}")
        return gf

    def _companions(self, clock: Clock, algebra: str, gf) -> None:
        basis = self.bases[(algebra, "second")]
        ok, companions, _ = clock.call(recurrence.build_companions, basis.rs, basis)
        if not ok:
            return
        if gf is None:
            clock.fail(f"{algebra} companions have no closed form to check")
            return
        ok, annihilated, _ = clock.call(
            recurrence.minimal_poly_check, basis.rs, gf, companions
        )
        expected = all(annihilates_companion(den) for den in gf.denominators)
        if ok and annihilated is not expected:
            clock.fail(
                f"{algebra} minimal_poly_check returned {annihilated!r},"
                f" expected {expected!r}"
            )


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (GfTable, RecurrenceTable, VerifySampling, LibraryMixed)
}


def make(name: str, seed: int, digests: dict, cross_check: bool = True):
    """The named workload; ``cross_check`` adds the oracles that need a
    second route computed up front (off in the peak-RSS probe)."""
    return WORKLOAD_CLASSES[name](seed, digests, cross_check)

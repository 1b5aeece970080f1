"""Span recorder for the traced run.

The package is not edited: ``install`` swaps the cross-module names each
layer calls through for wrappers that record one span per call (name,
start, end, parent, pass id) and the counts ``pass_metrics`` reports.
Spans stay in memory; ``uninstall`` puts the original names back.  Self
times come from the spans: a span's duration minus the durations of its
direct children, which in a single-threaded run are disjoint and nested
inside it.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from weylcheb import cli, genfunc, numeric, output, polynomialize, recurrence
from weylcheb.polynomialize import VariableBasis

# per-layer time metric -> span name whose self time it sums; a name ending
# in "." sums every span under that prefix.
SELF_TIME_METRICS = {
    "polynomialize.reduce_s": "polynomialize.reduce",
    "polynomialize.monomial_laurent_s": "polynomialize.monomial_laurent",
    "laurent.exact_divide_s": "laurent.exact_divide",
    "genfunc.coefficient_trace_s": "genfunc.coefficient_trace",
    "genfunc.closed_form_gf_s": "genfunc.closed_form_gf",
    "genfunc.gf_series_check_s": "genfunc.gf_series_check",
    "orbit.orbit_sum_s": "orbit.orbit_sum",
    "recurrence.recurrence_table_s": "recurrence.recurrence_table",
    "recurrence.normalize_index_s": "recurrence.normalize_index",
    "recurrence.minimal_poly_check_s": "recurrence.minimal_poly_check",
    "numeric.verify_ratio_s": "numeric.verify_ratio",
    "numeric.dimension_check_s": "numeric.dimension_check",
    "output.render_s": "output.",
}

# The timed metrics of a pass; every other metric of ``pass_metrics``
# depends only on the inputs and must repeat exactly.
TIME_METRICS = (*SELF_TIME_METRICS, "cli.main_s")


class Tracer:
    """In-memory spans of one pass: [id, parent, name, start_ns, end_ns, pass]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.pass_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self, pass_id: int = 0) -> None:
        self.spans = []
        self.counts = Counter()
        self.pass_id = pass_id
        self._stack = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter_ns(), 0, self.pass_id])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def self_times(self) -> Counter:
        """Seconds of self time per span name."""
        covered = [0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for sid, _, name, start, end, _ in self.spans:
            totals[name] += (end - start - covered[sid]) / 1e9
        return totals

    def inclusive_time(self, name: str) -> float:
        return sum(e - s for _, _, n, s, e, _ in self.spans if n == name) / 1e9

    # -- wrapping -------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _patch_monomial_laurent(self) -> None:
        original = VariableBasis.monomial_laurent
        tracer = self

        def monomial_laurent(basis, degrees):
            tracer.counts["polynomialize.monomial_requests"] += 1
            if tuple(degrees) in basis._power_cache:
                tracer.counts["polynomialize.monomial_hits"] += 1
                return original(basis, degrees)
            sid = tracer.open("polynomialize.monomial_laurent")
            try:
                return original(basis, degrees)
            finally:
                tracer.close(sid)

        VariableBasis.monomial_laurent = monomial_laurent
        self._restore.append((VariableBasis, "monomial_laurent", original))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        patch = self._patch
        for owner in (genfunc, recurrence):
            patch(owner, "reduce", "polynomialize.reduce", _count_reduce)
        patch(genfunc, "exact_divide", "laurent.exact_divide", _count_divide)
        patch(genfunc, "coefficient_trace", "genfunc.coefficient_trace")
        patch(genfunc, "orbit_sum", "orbit.orbit_sum")
        patch(polynomialize, "variable_laurents", "orbit.variable_laurents")
        patch(recurrence, "normalize_index", "recurrence.normalize_index", _count_normalize)
        patch(numeric, "second_kind_poly", "genfunc.second_kind_poly")
        self._patch_monomial_laurent()
        # Names the benchmark's library session calls through.
        for owner, attr in (
            (genfunc, "closed_form_gf"),
            (genfunc, "gf_series_check"),
            (recurrence, "build_companions"),
            (recurrence, "minimal_poly_check"),
        ):
            patch(owner, attr, f"{owner.__name__.split('.')[-1]}.{attr}")
        # Layer entry points as the command line binds them.
        patch(cli, "main", "cli.main")
        for attr, layer in (
            ("build_root_system", "rootsystem"),
            ("build_basis", "polynomialize"),
            ("second_kind_table", "genfunc"),
            ("first_kind_table", "genfunc"),
            ("closed_form_gf", "genfunc"),
            ("recurrence_table", "recurrence"),
            ("verify_ratio", "numeric"),
            ("dimension_check", "numeric"),
        ):
            patch(cli, attr, f"{layer}.{attr}", _AFTER.get(attr))
        for attr in (
            "table_json",
            "table_text",
            "gf_json",
            "gf_text",
            "verify_json",
            "verify_result_obj",
            "verify_text",
            "crosscheck_json",
        ):
            patch(output, attr, f"output.{attr}", _count_bytes)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- metrics --------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset."""
        selfs = self.self_times()
        out = {}
        for metric, span in SELF_TIME_METRICS.items():
            if span.endswith("."):
                out[metric] = sum(v for k, v in selfs.items() if k.startswith(span))
            else:
                out[metric] = selfs.get(span, 0.0)
        out["cli.main_s"] = self.inclusive_time("cli.main")
        c = self.counts
        requests = c["polynomialize.monomial_requests"]
        samples = c["numeric.samples"]
        out.update(
            {
                "polynomialize.reduce_calls": c["polynomialize.reduce_calls"],
                "polynomialize.reduce_input_terms": c["polynomialize.reduce_input_terms"],
                "polynomialize.reduce_leaders": c["polynomialize.reduce_leaders"],
                "polynomialize.monomial_requests": requests,
                "polynomialize.monomial_hit_ratio": (
                    c["polynomialize.monomial_hits"] / requests if requests else 0.0
                ),
                "laurent.exact_divide_calls": c["laurent.exact_divide_calls"],
                "laurent.quotient_terms": c["laurent.quotient_terms"],
                "recurrence.normalize_index_calls": c["recurrence.normalize_index_calls"],
                "recurrence.entries": c["recurrence.entries"],
                "recurrence.terms": c["recurrence.terms"],
                "numeric.samples": samples,
                "numeric.used_ratio": (
                    1 - c["numeric.skipped"] / samples if samples else 0.0
                ),
                "numeric.max_abs_error": c["numeric.max_abs_error"],
                "output.bytes": c["output.bytes"],
            }
        )
        return out

    def export(self) -> list[dict]:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "pass")
        return [dict(zip(keys, span)) for span in self.spans]


def _count_reduce(counts, args, result) -> None:
    counts["polynomialize.reduce_calls"] += 1
    counts["polynomialize.reduce_input_terms"] += len(args[1])
    counts["polynomialize.reduce_leaders"] += len(result)


def _count_divide(counts, args, result) -> None:
    counts["laurent.exact_divide_calls"] += 1
    counts["laurent.quotient_terms"] += len(result)


def _count_normalize(counts, args, result) -> None:
    counts["recurrence.normalize_index_calls"] += 1


def _count_table(counts, args, result) -> None:
    counts["recurrence.entries"] += len(result)
    counts["recurrence.terms"] += sum(len(poly) for poly in result.values())


def _count_verify(counts, args, report) -> None:
    counts["numeric.samples"] += report.samples
    counts["numeric.skipped"] += report.skipped
    counts["numeric.max_abs_error"] = max(
        counts["numeric.max_abs_error"], report.max_abs_error
    )


def _count_bytes(counts, args, result) -> None:
    # Artifacts are ASCII (json.dumps escapes everything else), so the
    # character count is the byte count.
    if isinstance(result, str):
        counts["output.bytes"] += len(result)


_AFTER = {"recurrence_table": _count_table, "verify_ratio": _count_verify}

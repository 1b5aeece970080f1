"""End-to-end checks of the command-line interface via subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import weylcheb
from weylcheb import DEFAULT_SEED, XYPoly

from g2_reference import K_TABLE, P1_COEFFS, P2_COEFFS, SECOND_KIND

# The child imports the same package as this process, also when pytest's
# ``pythonpath`` setting (not the environment) put it on sys.path.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(weylcheb.__file__))


def run_cli(*argv: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env.pop("WEYLCHEB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "weylcheb.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_table_latex_contains_known_line():
    proc = run_cli("table", "--max-m", "2", "--max-n", "2", "--format", "latex")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "U_{2,0} = x^{2}-x-y-1 \\\\" in lines
    assert len(lines) == 9


def test_table_json_matches_frozen_values():
    proc = run_cli("table", "--max-m", "4", "--max-n", "4", "--format", "json")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["schema"] == 1
    assert body["algebra"] == "g2"
    assert body["kind"] == "second"
    assert body["max_m"] == 4 and body["max_n"] == 4
    assert len(body["polynomials"]) == 25
    for entry in body["polynomials"]:
        idx = (entry["m"], entry["n"])
        if idx in SECOND_KIND:
            poly = XYPoly.from_json_obj(2, entry["poly"])
            assert poly == XYPoly(2, SECOND_KIND[idx])


def test_latex_and_json_agree():
    js = run_cli("table", "--max-m", "3", "--max-n", "3", "--format", "json")
    tex = run_cli("table", "--max-m", "3", "--max-n", "3", "--format", "latex")
    lines = tex.stdout.splitlines()
    for entry in json.loads(js.stdout)["polynomials"]:
        text = XYPoly.from_json_obj(2, entry["poly"]).as_text()
        expected = f"U_{{{entry['m']},{entry['n']}}} = {text} \\\\"
        assert expected in lines


def test_genfunc_json_matches_frozen_values():
    proc = run_cli("genfunc", "--format", "json")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["schema"] == 1
    assert body["K"][0] == {"i": 0, "j": 0, "poly": [{"degree": [0, 0], "coeff": "1"}]}
    assert len(body["P1"]) == 7 and len(body["P2"]) == 7
    for got, want in zip(body["P1"], P1_COEFFS):
        assert XYPoly.from_json_obj(2, got) == XYPoly(2, want)
    for got, want in zip(body["P2"], P2_COEFFS):
        assert XYPoly.from_json_obj(2, got) == XYPoly(2, want)
    table = {(rec["i"], rec["j"]): XYPoly.from_json_obj(2, rec["poly"]) for rec in body["K"]}
    assert table == {ij: XYPoly(2, terms) for ij, terms in K_TABLE.items()}


def test_genfunc_latex_lists_denominators_first():
    proc = run_cli("genfunc", "--format", "latex")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("P_{1} = ")
    assert lines[1].startswith("P_{2} = ")
    assert len(lines) == 2 + len(K_TABLE)


def test_verify_plain_passes():
    proc = run_cli(
        "verify", "--max-m", "1", "--max-n", "1", "--samples", "40", "--format", "plain"
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[-1] == "PASSED"
    assert len(lines) == 5


def test_verify_json_structure_and_default_seed():
    proc = run_cli("verify", "--max-m", "1", "--max-n", "0", "--samples", "25")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["passed"] is True
    assert body["seed"] == DEFAULT_SEED
    assert [(r["m"], r["n"]) for r in body["results"]] == [(0, 0), (1, 0)]
    for rec in body["results"]:
        assert rec["ratio_ok"] is True
        assert rec["dimension_ok"] is True
        assert rec["samples"] + rec["skipped"] == 25
        assert rec["max_abs_error"] < 1e-8
    assert body["results"][1]["dimension"] == 7


def test_verify_unreachable_tolerance_fails():
    proc = run_cli(
        "verify",
        "--max-m", "1",
        "--max-n", "0",
        "--samples", "25",
        "--tol", "1e-30",
        "--format", "plain",
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == "FAILED"


def test_seed_env_variable_matches_flag():
    via_env = run_cli(
        "verify", "--max-m", "0", "--max-n", "1", "--samples", "20",
        env_extra={"WEYLCHEB_SEED": "5"},
    )
    via_flag = run_cli("verify", "--max-m", "0", "--max-n", "1", "--samples", "20", "--seed", "5")
    assert via_env.returncode == via_flag.returncode == 0
    assert via_env.stdout == via_flag.stdout
    assert json.loads(via_env.stdout)["seed"] == 5


def test_seed_flag_overrides_env_variable():
    overridden = run_cli(
        "verify", "--max-m", "0", "--max-n", "0", "--samples", "20", "--seed", "9",
        env_extra={"WEYLCHEB_SEED": "5"},
    )
    direct = run_cli("verify", "--max-m", "0", "--max-n", "0", "--samples", "20", "--seed", "9")
    assert overridden.stdout == direct.stdout
    assert json.loads(overridden.stdout)["seed"] == 9


def test_bad_seed_env_variable_is_a_usage_error():
    proc = run_cli(
        "verify", "--max-m", "0", "--max-n", "0",
        env_extra={"WEYLCHEB_SEED": "not-a-number"},
    )
    assert proc.returncode == 2
    assert "WEYLCHEB_SEED" in proc.stderr


def test_both_table_routes_are_byte_identical():
    args = ("--max-m", "6", "--max-n", "6", "--format", "json")
    direct = run_cli("table", *args)
    recur = run_cli("recurrence-table", *args)
    rerun = run_cli("table", *args)
    assert direct.returncode == recur.returncode == 0
    assert direct.stdout == recur.stdout
    assert direct.stdout == rerun.stdout


def test_crosscheck_reports_match():
    proc = run_cli("crosscheck", "--max-m", "12", "--max-n", "12")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["match"] is True
    assert body["max_m"] == 12 and body["max_n"] == 12


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--max-m", "100"),
        ("table", "--max-n", "-1"),
        ("recurrence-table", "--algebra", "a2"),
        ("recurrence-table", "--kind", "first"),
        ("crosscheck", "--algebra", "c2"),
        ("genfunc", "--algebra", "a1"),
        ("genfunc", "--kind", "first"),
        ("verify", "--kind", "first"),
        ("verify", "--samples", "0"),
        ("verify", "--tol", "0"),
        ("table", "--algebra", "e8"),
        ("no-such-command",),
    ],
)
def test_usage_errors_exit_with_code_two(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "table.json"
    proc = run_cli(
        "table", "--max-m", "1", "--max-n", "1", "--output", str(target)
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    body = json.loads(target.read_text(encoding="utf-8"))
    assert len(body["polynomials"]) == 4


def test_rank_one_table_uses_single_index():
    proc = run_cli("table", "--algebra", "a1", "--max-m", "5")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["algebra"] == "a1"
    assert "max_n" not in body
    assert len(body["polynomials"]) == 6
    assert all("n" not in entry for entry in body["polynomials"])


def test_first_kind_table_label_and_constant():
    proc = run_cli(
        "table", "--kind", "first", "--max-m", "1", "--max-n", "1", "--format", "plain"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "C_{0,0} = 12"

"""End-to-end checks of the command-line interface, in subprocesses through
``python -m weylcheb.cli`` and in this process through ``cli.main``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import weylcheb
from weylcheb import (
    DEFAULT_SEED,
    AlgebraId,
    Kind,
    XYPoly,
    build_basis,
    build_root_system,
    cli,
    genfunc,
    numeric,
    second_kind_poly,
)

from g2_reference import K_TABLE, P1_COEFFS, P2_COEFFS, SECOND_KIND
from reference import from_json_obj

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


def main_in_process(capsys, *argv: str) -> tuple[int, str, str]:
    """``cli.main`` run in this process: its exit code, stdout and stderr."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


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
            poly = from_json_obj(XYPoly, 2, entry["poly"])
            assert poly == XYPoly(2, SECOND_KIND[idx])


def test_latex_and_json_agree():
    js = run_cli("table", "--max-m", "3", "--max-n", "3", "--format", "json")
    tex = run_cli("table", "--max-m", "3", "--max-n", "3", "--format", "latex")
    lines = tex.stdout.splitlines()
    for entry in json.loads(js.stdout)["polynomials"]:
        text = from_json_obj(XYPoly, 2, entry["poly"]).as_text()
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
        assert from_json_obj(XYPoly, 2, got) == XYPoly(2, want)
    for got, want in zip(body["P2"], P2_COEFFS):
        assert from_json_obj(XYPoly, 2, got) == XYPoly(2, want)
    table = {(rec["i"], rec["j"]): from_json_obj(XYPoly, 2, rec["poly"]) for rec in body["K"]}
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
        assert rec["samples"] == 25
        assert 0 <= rec["skipped"] <= rec["samples"]
        assert rec["max_abs_error"] < 1e-8
    assert body["results"][1]["dimension"] == 7


def test_verify_unreachable_tolerance_fails(monkeypatch, capsys):
    argv = ("verify", "--max-m", "1", "--max-n", "0", "--samples", "25", "--tol", "1e-30")
    proc = run_cli(*argv, "--format", "plain")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == "FAILED"
    monkeypatch.delenv("WEYLCHEB_SEED", raising=False)
    assert main_in_process(capsys, *argv, "--format", "plain") == (1, proc.stdout, "")


def test_verify_with_every_sample_singular_is_a_usage_error(capsys):
    # this seed's one A1 sample lies on a wall
    argv = ("verify", "--algebra", "a1", "--samples", "1", "--seed", "585832")
    proc = run_cli(*argv, "--max-m", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    for part in ("seed 585832", "1 samples", "within 1e-06 of a wall"):
        assert part in proc.stderr
    assert main_in_process(capsys, *argv, "--max-m", "0") == (2, "", proc.stderr)


@pytest.mark.parametrize("cap", [1, 29, 30, 100, 271, 10**6])
def test_verify_holds_at_most_the_cap_and_reports_the_same(cap, monkeypatch, capsys):
    argv = ["verify", "--max-m", "2", "--max-n", "2", "--samples", "30", "--seed", "7"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    blocks, verified = [], []
    numerator_values, verify_ratio = numeric._numerator_values, cli.verify_ratio

    def recording_block(rs, used, block):
        blocks.append(len(block) * len(used))
        return numerator_values(rs, used, block)

    def recording_verify(*args, **kwargs):
        verified.append(args[2:])
        return verify_ratio(*args, **kwargs)

    monkeypatch.setattr(numeric, "_MAX_HELD_VALUES", cap)
    monkeypatch.setattr(numeric, "_numerator_values", recording_block)
    monkeypatch.setattr(cli, "verify_ratio", recording_verify)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    assert len(verified) == 9
    # 30 values per index: a block holds as many whole indices as fit in
    # the cap, and one index when none fits
    step = min(9, max(1, cap // 30))
    assert blocks == [30 * min(step, 9 - start) for start in range(0, 9, step)]
    assert max(blocks) <= max(cap, 30)


def test_verify_draws_the_samples_once_per_run(monkeypatch, capsys):
    draws, draw = [], numeric._draw_samples

    def counting_draw(basis, seed, num_samples):
        draws.append((seed, num_samples))
        return draw(basis, seed, num_samples)

    monkeypatch.setattr(numeric, "_draw_samples", counting_draw)
    for samples in ("30", "20"):
        argv = ["verify", "--max-m", "2", "--max-n", "2", "--samples", samples, "--seed", "7"]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert draws == [(7, 30), (7, 20)]


def test_largest_sample_count_shares_chains_over_blocks_of_ten():
    assert numeric._MAX_HELD_VALUES // cli._MAX_SAMPLES >= 10


_DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize(
    "artifact, argv",
    [
        (
            "verify_g2_2x2_samples50_seed7.json",
            ("--algebra", "g2", "--max-m", "2", "--max-n", "2", "--samples", "50", "--seed", "7"),
        ),
        # this seed's first sample is singular for A1, so every index skips one
        (
            "verify_a1_4_samples100_seed585832.json",
            ("--algebra", "a1", "--max-m", "4", "--samples", "100", "--seed", "585832"),
        ),
    ],
)
def test_verify_artifact_is_pinned(artifact, argv, capsys):
    with open(os.path.join(_DATA, artifact), encoding="utf-8") as handle:
        want = handle.read()
    assert cli.main(["verify", *argv]) == 0
    assert capsys.readouterr().out == want


_G2_FIRST_4X4 = ("--algebra", "g2", "--kind", "first", "--max-m", "4", "--max-n", "4")


@pytest.mark.parametrize(
    "artifact, argv",
    [
        ("recurrence_table_a1_6.json", ("recurrence-table", "--algebra", "a1", "--max-m", "6")),
        # G2 first-kind coefficients include fractions such as -3/8
        ("table_g2_first_4x4.json", ("table", *_G2_FIRST_4X4)),
        ("table_g2_first_4x4.json", ("recurrence-table", *_G2_FIRST_4X4)),
    ],
)
def test_table_artifact_is_pinned(artifact, argv, capsys):
    with open(os.path.join(_DATA, artifact), encoding="utf-8") as handle:
        want = handle.read()
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == want


def test_seed_env_variable_matches_flag(monkeypatch, capsys):
    argv = ("verify", "--max-m", "0", "--max-n", "1", "--samples", "20")
    via_env = run_cli(*argv, env_extra={"WEYLCHEB_SEED": "5"})
    via_flag = run_cli(*argv, "--seed", "5")
    assert via_env.returncode == via_flag.returncode == 0
    assert via_env.stdout == via_flag.stdout
    assert json.loads(via_env.stdout)["seed"] == 5
    monkeypatch.setenv("WEYLCHEB_SEED", "5")
    assert main_in_process(capsys, *argv) == (0, via_flag.stdout, "")


def test_seed_flag_overrides_env_variable():
    overridden = run_cli(
        "verify", "--max-m", "0", "--max-n", "0", "--samples", "20", "--seed", "9",
        env_extra={"WEYLCHEB_SEED": "5"},
    )
    direct = run_cli("verify", "--max-m", "0", "--max-n", "0", "--samples", "20", "--seed", "9")
    assert overridden.stdout == direct.stdout
    assert json.loads(overridden.stdout)["seed"] == 9


def test_bad_seed_env_variable_is_a_usage_error(monkeypatch, capsys):
    argv = ("verify", "--max-m", "0", "--max-n", "0")
    proc = run_cli(*argv, env_extra={"WEYLCHEB_SEED": "not-a-number"})
    assert proc.returncode == 2
    assert "WEYLCHEB_SEED" in proc.stderr
    monkeypatch.setenv("WEYLCHEB_SEED", "not-a-number")
    assert main_in_process(capsys, *argv) == (2, "", proc.stderr)


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
    assert "first_mismatch" not in body


@pytest.mark.parametrize(
    "algebra, kind",
    [("a2", "second"), ("g2", "first"), ("c2", "second"), ("a1", "first")],
)
def test_crosscheck_covers_every_algebra_and_kind(algebra, kind):
    size = ("--max-m", "4", "--max-n", "4")
    proc = run_cli("crosscheck", "--algebra", algebra, "--kind", kind, *size)
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["match"] is True
    assert (body["algebra"], body["kind"]) == (algebra, kind)
    assert ("max_n" in body) == (algebra != "a1")


def test_crosscheck_names_the_first_mismatch(monkeypatch, capsys):
    honest = cli.recurrence_table

    def corrupted(rs, basis, max_m, max_n):
        table = honest(rs, basis, max_m, max_n)
        for idx in ((3, 0), (2, 1)):
            table[idx] = table[idx] + XYPoly.constant(2, 1)
        return table

    monkeypatch.setattr(cli, "recurrence_table", corrupted)
    argv = ["crosscheck", "--algebra", "a2", "--max-m", "3", "--max-n", "3"]
    assert cli.main(argv) == 1
    body = json.loads(capsys.readouterr().out)
    assert body["match"] is False
    rs = build_root_system(AlgebraId.A2)
    want = second_kind_poly(rs, build_basis(rs, Kind.SECOND), 2, 1)
    got = want + XYPoly.constant(2, 1)
    assert body["first_mismatch"] == {
        "m": 2,
        "n": 1,
        "gf": want.as_text(),
        "recurrence": got.as_text(),
    }

    assert cli.main([*argv, "--format", "plain"]) == 1
    assert capsys.readouterr().out == "crosscheck 3x3: MISMATCH\n"


def test_crosscheck_compares_the_polynomials_without_rendering_them(monkeypatch, capsys):
    def no_render(*args):
        raise AssertionError("rendered a table to compare the routes")

    monkeypatch.setattr(cli.output, "table_json", no_render)
    assert cli.main(["crosscheck", "--max-m", "2", "--max-n", "2", "--format", "plain"]) == 0
    assert capsys.readouterr().out == "crosscheck 2x2: match\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--max-m", "100"),
        ("table", "--max-n", "-1"),
        ("recurrence-table", "--max-m", "65"),
        ("recurrence-table", "--kind", "third"),
        ("crosscheck", "--max-n", "-1"),
        ("genfunc", "--algebra", "a1"),
        ("genfunc", "--kind", "first"),
        ("verify", "--kind", "first"),
        ("verify", "--samples", "0"),
        ("verify", "--tol", "0"),
        ("table", "--algebra", "e8"),
        ("no-such-command",),
        ("verify", "--samples", "100001"),
        ("verify", "--algebra", "a2"),
        ("verify", "--tol", "nan"),
        ("verify", "--tol", "inf"),
        ("table", "--max-m", "1", "--max-n", "1", "--output", "/nonexistent/dir/x.json"),
        ("table", "--max-m", "1", "--max-n", "1", "--output", "."),
    ],
)
def test_usage_errors_exit_with_code_two(argv, capsys):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr
    assert main_in_process(capsys, *argv) == (2, "", proc.stderr)


def test_sample_limit_is_named(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--samples", str(cli._MAX_SAMPLES + 1)])
    assert exc.value.code == 2
    assert f"at most {cli._MAX_SAMPLES}" in capsys.readouterr().err


def test_verify_rejects_a2_naming_its_complex_variables(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--algebra", "a2"])
    assert exc.value.code == 2
    assert "complex conjugates" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("genfunc", "--algebra", "a1"),
        ("genfunc", "--kind", "first"),
        ("verify", "--algebra", "a2"),
        ("verify", "--kind", "first"),
        ("table", "--max-m", "1", "--max-n", "1", "--output", "/nonexistent/dir/x.json"),
        ("table", "--max-m", "1", "--max-n", "1", "--output", "."),
    ],
)
def test_usage_errors_come_before_any_work(argv, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("built a root system or basis for a usage error")

    monkeypatch.setattr(cli, "build_root_system", no_work)
    monkeypatch.setattr(cli, "build_basis", no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_computes_each_polynomial_once(monkeypatch, capsys):
    # verify_ratio and dimension_check read the polynomial from the basis,
    # so each index's numerator is traced once, at the rho-shifted index
    calls = []
    original = genfunc.coefficient_trace

    def counting(rs, *index):
        calls.append(index)
        return original(rs, *index)

    monkeypatch.setattr(genfunc, "coefficient_trace", counting)
    assert cli.main(["verify", "--max-m", "1", "--max-n", "2", "--samples", "20"]) == 0
    assert calls == [(m + 1, n + 1) for m in range(2) for n in range(3)]
    assert json.loads(capsys.readouterr().out)["passed"] is True


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

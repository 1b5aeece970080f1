"""Acceptance sweep for the advertised guarantees of the package.

Each test covers one guarantee, rebuilds whatever it needs inside its own
timer, and prints a single pass/fail line so the whole list is visible in
one screen of output even under pytest capture.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from weylcheb import (
    AlgebraId,
    Kind,
    LaurentPoly,
    XYPoly,
    apply_poly_to_matrix,
    build_basis,
    build_companions,
    build_root_system,
    closed_form_gf,
    dimension_check,
    orbit_sum,
    recurrence_table,
    reduce,
    second_kind_poly,
    second_kind_table,
    signed_orbit_sum,
    verify_ratio,
)

from g2_reference import (
    K_TABLE,
    NEGATIVE_DET_WORDS,
    P1_COEFFS,
    P2_COEFFS,
    SECOND_KIND,
    SINGULAR_ELEMENT,
    X_LAURENT,
    Y_LAURENT,
)
from reference import apply_weyl, exact_divide, expand


def _report(capsys, number: int, label: str, ok: bool, elapsed: float) -> None:
    with capsys.disabled():
        state = "PASS" if ok else "FAIL"
        print(f"criterion {number:2d} ({label}): {state} [{elapsed:.2f}s]")


def _fresh_g2():
    rs = build_root_system(AlgebraId.G2)
    return rs, build_basis(rs, Kind.SECOND)


def test_criterion_01_printed_polynomial_table(capsys):
    start = time.perf_counter()
    rs, basis = _fresh_g2()
    mismatches = [
        idx
        for idx, terms in SECOND_KIND.items()
        if second_kind_poly(rs, basis, *idx) != XYPoly(2, terms)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and len(SECOND_KIND) == 15 and elapsed < 5.0
    _report(capsys, 1, "printed polynomial table", ok, elapsed)
    assert ok, f"mismatches={mismatches} elapsed={elapsed:.2f}s"


def test_criterion_02_closed_form_generating_function(capsys):
    start = time.perf_counter()
    rs, basis = _fresh_g2()
    gf = closed_form_gf(rs, basis)
    ok_den = all(
        list(gf.denominators[axis]) == [XYPoly(2, c) for c in frozen]
        for axis, frozen in enumerate((P1_COEFFS, P2_COEFFS))
    )
    expected = {ij: XYPoly(2, terms) for ij, terms in K_TABLE.items()}
    ok_num = dict(gf.numerator) == expected and len(gf.numerator) == 19
    ok_zero = all(
        (i, j) in gf.numerator or expected.get((i, j)) is None
        for i in range(6)
        for j in range(6)
    )
    elapsed = time.perf_counter() - start
    ok = ok_den and ok_num and ok_zero and elapsed < 30.0
    _report(capsys, 2, "closed-form generating function", ok, elapsed)
    assert ok, f"den={ok_den} num={ok_num} elapsed={elapsed:.2f}s"


def test_criterion_03_variable_expansions(capsys):
    start = time.perf_counter()
    _, basis = _fresh_g2()
    x, y = basis.var_laurents
    ok_x = (
        x == LaurentPoly(2, X_LAURENT)
        and len(x.terms()) == 7
        and x.coeff((0, 0)) == 1
        and sum(c for _, c in x.terms()) == 7
    )
    ok_y = (
        y == LaurentPoly(2, Y_LAURENT)
        and y.coeff((0, 0)) == 2
        and sum(c for _, c in y.terms()) == 14
    )
    elapsed = time.perf_counter() - start
    ok = ok_x and ok_y
    _report(capsys, 3, "variable expansions", ok, elapsed)
    assert ok


def test_criterion_04_singular_element(capsys):
    start = time.perf_counter()
    rs = build_root_system(AlgebraId.G2)
    value = signed_orbit_sum(rs, (1, 1))
    ok = value == LaurentPoly(2, SINGULAR_ELEMENT) and len(value.terms()) == 12
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "singular element", ok, elapsed)
    assert ok


def test_criterion_05_weyl_group_structure(capsys):
    start = time.perf_counter()
    orders = {
        AlgebraId.A1: 2,
        AlgebraId.A2: 6,
        AlgebraId.C2: 8,
        AlgebraId.G2: 12,
    }
    ok = all(
        len(build_root_system(a).elements) == size for a, size in orders.items()
    )
    g2 = build_root_system(AlgebraId.G2)
    negative = {w.word for w in g2.elements if w.det == -1}
    ok = ok and negative == NEGATIVE_DET_WORDS
    elapsed = time.perf_counter() - start
    _report(capsys, 5, "weyl group structure", ok, elapsed)
    assert ok


def test_criterion_06_cross_path_agreement(capsys):
    start = time.perf_counter()
    rs, basis = _fresh_g2()
    direct = second_kind_table(rs, basis, 12, 12)
    stepped = recurrence_table(rs, basis, 12, 12)
    elapsed = time.perf_counter() - start
    ok = direct == stepped and len(direct) == 169 and elapsed < 60.0
    _report(capsys, 6, "cross-path agreement", ok, elapsed)
    assert ok, f"equal={direct == stepped} elapsed={elapsed:.2f}s"


def test_criterion_07_sampled_ratio_identity(capsys):
    start = time.perf_counter()
    rs, basis = _fresh_g2()
    worst = 0.0
    ok = True
    for m in range(11):
        for n in range(11 - m):
            report = verify_ratio(rs, basis, m, n, num_samples=100, tol=1e-8)
            worst = max(worst, report.max_abs_error)
            ok = ok and report.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(capsys, 7, "sampled ratio identity", ok, elapsed)
    assert ok, f"worst={worst:.3e} elapsed={elapsed:.2f}s"


def test_criterion_08_dimension_specialization(capsys):
    start = time.perf_counter()
    rs, basis = _fresh_g2()
    ok = True
    for m in range(9):
        for n in range(9):
            left, right = dimension_check(rs, basis, m, n)
            ok = ok and left == right
    spots = {(0, 0): 1, (1, 0): 7, (0, 1): 14, (1, 1): 64}
    for idx, dim in spots.items():
        left, right = dimension_check(rs, basis, *idx)
        ok = ok and left == right == dim
    elapsed = time.perf_counter() - start
    _report(capsys, 8, "dimension specialization", ok, elapsed)
    assert ok


def test_criterion_09_minimal_polynomials(capsys):
    start = time.perf_counter()
    rs, basis = _fresh_g2()
    gf = closed_form_gf(rs, basis)
    mats = build_companions(rs, basis)
    annihilated = all(
        not any(entry for row in apply_poly_to_matrix(coeffs, mat) for entry in row)
        for coeffs, mat in zip(gf.denominators, mats)
    )
    truncated = apply_poly_to_matrix(gf.denominators[0][:6], mats[0])
    ok = annihilated and any(entry for row in truncated for entry in row)
    elapsed = time.perf_counter() - start
    _report(capsys, 9, "minimal polynomials", ok, elapsed)
    assert ok


def test_criterion_10_rank_one_degeneration(capsys):
    start = time.perf_counter()
    rs = build_root_system(AlgebraId.A1)
    basis = build_basis(rs, Kind.SECOND)
    table = second_kind_table(rs, basis, 21, None)
    x = XYPoly(1, {(1,): 1})
    ok = all(
        table[(n + 1,)] == x * table[(n,)] - table[(n - 1,)]
        for n in range(1, 21)
    )
    ok = ok and table[(1,)] == x
    elapsed = time.perf_counter() - start
    _report(capsys, 10, "rank-one degeneration", ok, elapsed)
    assert ok


def _random_laurent(rng: random.Random) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exp = (rng.randint(-3, 3), rng.randint(-3, 3))
        if rng.random() < 0.2:
            terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        else:
            terms[exp] = rng.randint(-9, 9)
    return LaurentPoly(2, terms)


def test_criterion_11_property_bundle(capsys):
    start = time.perf_counter()
    rng = random.Random(20260814)
    rs, basis = _fresh_g2()
    ok = True

    for _ in range(60):
        a, b, c = (_random_laurent(rng) for _ in range(3))
        one = LaurentPoly(2, {(0, 0): 1})
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * b == b * a
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and one * a == a and a + LaurentPoly(2) == a

    for _ in range(60):
        a, b = _random_laurent(rng), _random_laurent(rng)
        if not b.terms():
            continue
        ok = ok and exact_divide(a * b, b) == a

    for _ in range(25):
        n = (rng.randint(0, 6), rng.randint(0, 6))
        symmetric = orbit_sum(rs, n)
        signed = signed_orbit_sum(rs, (n[0] + 1, n[1] + 1))
        for w in rs.elements:
            ok = ok and apply_weyl(symmetric, rs, w) == symmetric
            ok = ok and apply_weyl(signed, rs, w) == signed.scale(w.det)

    for k in ((0, 0), (0, 3), (4, 0), (0, 6), (2, 0)):
        ok = ok and signed_orbit_sum(rs, k) == LaurentPoly(2)

    for _ in range(25):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-6, 6)
            for _ in range(rng.randint(1, 4))
        }
        p = XYPoly(2, terms)
        ok = ok and reduce(basis, expand(basis, p)) == p

    gf = closed_form_gf(rs, basis)
    for coeffs in gf.denominators:
        ok = ok and all(coeffs[k] == coeffs[6 - k] for k in range(7))
    ok = ok and all(
        gf.numerator[(i, j)] == gf.numerator[(4 - i, 4 - j)]
        for i, j in gf.numerator
    )

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(capsys, 11, "property bundle", ok, elapsed)
    assert ok, f"elapsed={elapsed:.2f}s"

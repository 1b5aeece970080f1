"""One basis, asked through every entry point in any order, answers as a
fresh basis does.

A ``VariableBasis`` grows six structures in place: ``index``, ``racah``,
``_power_cache``, ``_rules``, ``_packed`` and ``_polys``.  Beside them sit
the module caches ``genfunc._trace_rows`` and ``orbit.axis_denominator``
(and ``build_root_system``, which the session fixtures share and which is
not cleared here).  The machine drives one basis per (algebra, kind)
through a random sequence of entry points, with ``reduce``'s first slots
cut to 8 bits so that its cosets widen at small sizes.  Every answer must
equal the same question put to a fresh basis at the default width, and a
polynomial, reduction or monomial must still equal it after every later
step; a refused input must leave the basis as it was.
"""

from __future__ import annotations

import dataclasses
from operator import add

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

import weylcheb.genfunc as genfunc
import weylcheb.orbit as orbit
import weylcheb.polynomialize as polynomialize
from weylcheb import (
    AlgebraId,
    Kind,
    LaurentPoly,
    NonDivisibleError,
    NonDominantLeaderError,
    NotInvariantError,
    build_basis,
    build_root_system,
    closed_form_gf,
    coefficient_trace,
    dimension_check,
    first_kind_poly,
    gf_series_check,
    orbit_sum,
    recurrence_table,
    reduce,
    second_kind_poly,
    verify_ratio,
)
from reference import expand

_DEFAULT_BITS = polynomialize._SLOT_BITS
_PAIRS = [(algebra, kind) for algebra in AlgebraId for kind in Kind]
# (algebra, kind, question) -> the answer of a fresh basis at the default width
_ANSWERS: dict = {}
# (basis, coset, bits) of every elimination that fit its slots, since the last build
_FITTED: list = []

# Rank-2 draws; a rank-1 machine reads the first coordinate.
_indices = st.tuples(st.integers(0, 8), st.integers(0, 8))
_degrees = st.tuples(st.integers(0, 4), st.integers(0, 4))
_boxes = st.tuples(st.integers(0, 5), st.integers(0, 5))
_weights = st.tuples(st.integers(0, 6), st.integers(0, 6))


def _poly_of(basis, index):
    if basis.kind is Kind.SECOND:
        return second_kind_poly(basis.rs, basis, *index)
    return first_kind_poly(basis.rs, basis, index)


def _fresh_answer(algebra, kind, question, ask):
    """``ask`` put to a fresh basis at the default slot width, once per question."""
    key = (algebra, kind, question)
    if key not in _ANSWERS:
        narrow, polynomialize._SLOT_BITS = polynomialize._SLOT_BITS, _DEFAULT_BITS
        try:
            _ANSWERS[key] = ask(build_basis(build_root_system(algebra), kind))
        finally:
            polynomialize._SLOT_BITS = narrow
    return _ANSWERS[key]


def _spy_eliminate(real):
    def spy(basis, cos, f, bits, packed):
        leaders = real(basis, cos, f, bits, packed)
        if leaders is not None:
            _FITTED.append((basis, cos, bits))
        return leaders

    return spy


def _grown(basis):
    """How far each structure of ``basis`` has grown; a made ``cached_property``
    sits in the instance's ``__dict__``."""
    index, racah = vars(basis).get("index"), vars(basis).get("racah")
    return (
        index and (index.top, len(index.where)),
        racah and {cos: len(rows) for cos, rows in racah.rows.items()},
        len(basis._power_cache),
        {key: len(rules) for key, rules in basis._rules.items()},
        {cos: (bits, len(packs)) for cos, (bits, packs) in basis._packed.items()},
        dict(basis._polys),
    )


class BasisMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.asked: dict = {}  # question -> how to ask it, for the invariant

    @initialize(pair=st.sampled_from(_PAIRS))
    def build(self, pair):
        self.algebra, self.kind = pair
        _FITTED.clear()
        self.rs = build_root_system(self.algebra)
        self.basis = build_basis(self.rs, self.kind)

    def check(self, question, ask):
        """Ask the machine's basis, and hold the answer against a fresh one's."""
        got = ask(self.basis)
        assert got == _fresh_answer(self.algebra, self.kind, question, ask), question
        self.asked[question] = ask
        return got

    @invariant()
    def every_answer_holds(self):
        """Each polynomial, reduction and monomial asked so far, asked again.
        The tables, closed forms and reports are built from these, and are
        checked when asked."""
        for question, ask in self.asked.items():
            if question[0] in ("poly", "reduce", "monomial"):
                assert ask(self.basis) == _ANSWERS[self.algebra, self.kind, question], question

    @invariant()
    def each_coset_keeps_its_widest_slots(self):
        """A coset's one packed record is at the widest slots that any of its
        eliminations on this basis needed."""
        widest: dict = {}
        for basis, cos, bits in _FITTED:
            if basis is self.basis:
                widest[cos] = max(bits, widest.get(cos, bits))
        assert {cos: bits for cos, (bits, _) in self.basis._packed.items()} == widest

    @rule(index=_indices)
    def poly(self, index):
        index = index[: self.rs.rank]
        self.check(("poly", index), lambda b: _poly_of(b, index))

    @rule(index=_indices)
    def poly_after_a_failure(self, index):
        """A computation that fails stores nothing, so the index asked again
        answers as a fresh basis does."""
        index, real = index[: self.rs.rank], genfunc.reduce

        def failing(*args):
            raise NonDominantLeaderError("refused")

        genfunc.reduce = failing
        try:
            _poly_of(self.basis, index)
        except NonDominantLeaderError:
            pass
        finally:
            genfunc.reduce = real
        self.check(("poly", index), lambda b: _poly_of(b, index))

    @rule(terms=st.lists(st.tuples(_weights, st.integers(-3, 3)), max_size=4), as_dict=st.booleans())
    def reduce_orbit_sums(self, terms, as_dict):
        """An integer combination of orbit sums, as a Laurent polynomial or as
        its dominant coefficients, reduces as on a fresh basis and expands
        back to itself."""
        rank = self.rs.rank
        f = LaurentPoly.zero(rank)
        for mu, c in terms:
            f = f + orbit_sum(self.rs, mu[:rank]).scale(c)
        dominant = {exp: c for exp, c in f._terms.items() if min(exp) >= 0}
        arg = dominant if as_dict else f
        got = self.check(("reduce", tuple(sorted(dominant.items()))), lambda b: reduce(b, arg))
        assert expand(self.basis, got) == f

    @rule(which=st.sampled_from(["not invariant", "non-dominant key", "float coefficient"]))
    def reduce_a_bad_input(self, which):
        """A refused input raises before the basis grows."""
        one = (1,) + (0,) * (self.rs.rank - 1)
        f, error = {
            "not invariant": (LaurentPoly.monomial(self.rs.rank, one), NotInvariantError),
            "non-dominant key": ({tuple(-c for c in one): 1}, ValueError),
            "float coefficient": ({one: 0.5}, ValueError),
        }[which]
        before = _grown(self.basis)
        with pytest.raises(error):
            reduce(self.basis, f)
        assert _grown(self.basis) == before

    @rule(index=_indices)
    def divide_a_bad_numerator(self, index):
        """A numerator that is not anti-invariant is refused before the
        Racah table or the index grows."""
        rs, index = self.rs, index[: self.rs.rank]
        extra = LaurentPoly.monomial(rs.rank, tuple(c + 2 for c in index))
        numerator = coefficient_trace(rs, *map(add, index, rs.rho)) + extra
        table = self.basis.racah
        before = _grown(self.basis)
        with pytest.raises(NonDivisibleError):
            genfunc.exact_divide(table, numerator)
        assert _grown(self.basis) == before

    @rule(degrees=_degrees)
    def monomial(self, degrees):
        degrees = degrees[: self.rs.rank]
        self.check(("monomial", degrees), lambda b: b.monomial_laurent(degrees))

    @precondition(lambda self: self.rs.rank == 2 and self.kind is Kind.SECOND)
    @rule()
    def closed_form(self):
        gf = self.check(("closed form",), lambda b: closed_form_gf(b.rs, b))
        assert gf_series_check(gf, self.basis, 3, 3)

    @rule(size=_boxes)
    def recurrence(self, size):
        size = size[: self.rs.rank]
        self.check(("recurrence", size), lambda b: recurrence_table(b.rs, b, *size))

    @precondition(lambda self: self.kind is Kind.SECOND and self.algebra is not AlgebraId.A2)
    @rule(index=_indices, seed=st.integers(0, 3))
    def verify(self, index, seed):
        """Torus sampling, where the variables are real (not on A2)."""
        index = index[: self.rs.rank]
        ask = lambda b: verify_ratio(b.rs, b, *index, num_samples=5, seed=seed)  # noqa: E731
        self.check(("verify", index, seed), ask)

    @precondition(lambda self: self.kind is Kind.SECOND)
    @rule(index=_indices)
    def dimension(self, index):
        index = index[: self.rs.rank]
        left, right = self.check(("dimension", index), lambda b: dimension_check(b.rs, b, *index))
        assert left == right

    @rule()
    def replace(self):
        """A replaced basis starts with empty caches and answers alike."""
        self.basis = dataclasses.replace(self.basis)

    @rule()
    def clear_module_caches(self):
        genfunc._trace_rows.cache_clear()
        orbit.axis_denominator.cache_clear()


def test_a_basis_answers_as_a_fresh_one_in_any_order(monkeypatch):
    monkeypatch.setattr(polynomialize, "_SLOT_BITS", 8)
    monkeypatch.setattr(polynomialize, "_eliminate", _spy_eliminate(polynomialize._eliminate))
    run_state_machine_as_test(
        BasisMachine,
        settings=settings(
            max_examples=100, stateful_step_count=20, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )

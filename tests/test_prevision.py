"""Conditional lower previsions: natural extension, coherence, envelopes."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from desirables import cones, prevision, simplex
from desirables.cones import DesirableCone
from desirables.prevision import (
    Assessment,
    AssessmentEntry,
    AxiomSample,
    BeyondSupportError,
    ConditionalLowerPrevision,
    LinearPrevision,
    SureLossError,
    check_axioms,
    envelope_assessment,
    lower_prevision,
    upper_prevision,
)
from desirables.simplex import LinearProgram, scaled_row
from desirables.spaces import Space, SpaceMismatchError, indicator
from desirables.suites import (
    random_envelope_model,
    random_gamble,
    random_nonempty_event,
    random_space,
    random_strict_pmf,
)

from oracles import coherence_probing_every_entry, envelope_bounds_by_vertices, sympy_lower_prevision

AB = Space("X", ("a", "b"))
ABC = Space("Y", ("x1", "x2", "x3"))


class TestConeQueries:
    def test_vacuous_lower_is_min(self):
        f = ABC.gamble([3, -1, 2])
        assert lower_prevision(DesirableCone.vacuous(ABC), f) == -1

    def test_vacuous_conditioning_discards_outcomes(self):
        f = ABC.gamble([3, -1, 2])
        assert lower_prevision(DesirableCone.vacuous(ABC), f, ABC.event(["x1", "x3"])) == 2

    def test_vacuous_upper_is_max(self):
        f = ABC.gamble([3, -1, 2])
        assert upper_prevision(DesirableCone.vacuous(ABC), f) == 3

    def test_linear_cone_returns_expectation(self):
        prev = LinearPrevision.from_masses(AB, ["1/3", "2/3"])
        value = lower_prevision(prev.as_lower_prevision().cone, AB.gamble([1, 0]))
        assert value == Fraction(1, 3)

    def test_sure_loss_reported_distinctly(self):
        cone = DesirableCone.from_generators(AB, [AB.gamble([-1, -1])])
        with pytest.raises(SureLossError):
            lower_prevision(cone, AB.gamble([0, 0]))

    def test_beyond_support_reported_distinctly(self):
        cone = DesirableCone.from_generators(AB, [AB.gamble([0, -1])])
        with pytest.raises(BeyondSupportError):
            lower_prevision(cone, AB.gamble([0, 1]), AB.event(["b"]))

    def test_beyond_support_lists_the_event_in_outcome_order(self):
        space = Space("Z", ("x2", "x10", "y"))
        cone = DesirableCone.from_generators(space, [space.gamble([-1, -1, 0])])
        with pytest.raises(BeyondSupportError, match=r"event \['x2', 'x10'\] has upper probability zero"):
            lower_prevision(cone, space.gamble([0, 1, 0]), space.event(["x10", "x2"]))


class TestQueryFormulations:
    """``lower_prevision`` has one LP for every cone shape: the gamble
    side with mu shifted by min_B f, which starts on its slack basis.  Cones
    with fewer and with more generators than outcomes must give the sympy
    values and the same errors on it and on the vertex path, and an LP
    query must run no phase 1."""

    # (space size range, generator count as a function of the size)
    SHAPES = {
        "fewer-generators": ((4, 5), lambda n: n - 2),
        "more-generators": ((2, 3), lambda n: n + 1),
    }

    def random_queries(self, shape, seed):
        rng = random.Random(8400 + seed)
        (lo, hi), count = self.SHAPES[shape]
        space = random_space(rng, "Q", lo, hi)
        model, _ = random_envelope_model(rng, space, n_entries=count(space.size))
        for _ in range(3):
            yield model.cone, random_gamble(rng, space), random_nonempty_event(rng, space)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("seed", range(8))
    def test_lower_matches_sympy(self, shape, seed):
        for cone, f, event in self.random_queries(shape, seed):
            expected = sympy_lower_prevision(cone.space, cone.generators, f, event)
            assert lower_prevision(cone, f, event) == expected

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("seed", range(8))
    def test_lower_on_the_lp_matches_sympy(self, shape, seed, monkeypatch):
        """The same queries with ``VERTEX_CAP`` at 0, so each solves its LP."""
        monkeypatch.setattr(cones, "VERTEX_CAP", 0)
        self.test_lower_matches_sympy(shape, seed)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_query_runs_no_phase_one(self, shape, monkeypatch):
        """Each simplex phase is one ``_iterate`` call, so a query that
        starts at a feasible vertex makes exactly one.  With ``VERTEX_CAP``
        at 0 every query solves its LP."""
        monkeypatch.setattr(cones, "VERTEX_CAP", 0)
        calls = []
        original = LinearProgram._iterate

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(LinearProgram, "_iterate", staticmethod(spy))
        for seed in range(4):
            for cone, f, event in self.random_queries(shape, seed):
                calls.clear()
                lower_prevision(cone, f, event)
                assert len(calls) == 1

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_gated_in_query_solves_no_lp(self, shape, monkeypatch):
        """At the default cap these cones are within the vertex gate, so a
        query is answered from the credal vertices, with no solve."""
        calls = []
        original = LinearProgram.solve

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(LinearProgram, "solve", spy)
        for seed in range(4):
            for cone, f, event in self.random_queries(shape, seed):
                assert cone.vertex_bound <= cones.VERTEX_CAP
                lower_prevision(cone, f, event)
        assert calls == []

    SURE_LOSS = {
        "fewer-generators": [ABC.gamble([-1, -1, -1])],
        "more-generators": [AB.gamble([-1, 1]), AB.gamble([1, -2])],
    }

    @pytest.mark.parametrize("shape", sorted(SURE_LOSS))
    def test_sure_loss(self, shape):
        gens = self.SURE_LOSS[shape]
        cone = DesirableCone.from_generators(gens[0].space, gens)
        with pytest.raises(SureLossError):
            lower_prevision(cone, gens[0].space.constant(0))

    # Each cone forces mass zero on the last outcome.
    BEYOND_SUPPORT = {
        "fewer-generators": [ABC.gamble([0, 0, -1])],
        "more-generators": [AB.gamble([0, -1]), AB.gamble([1, -1])],
    }

    @pytest.mark.parametrize("shape", sorted(BEYOND_SUPPORT))
    def test_beyond_support(self, shape):
        gens = self.BEYOND_SUPPORT[shape]
        space = gens[0].space
        cone = DesirableCone.from_generators(space, gens)
        with pytest.raises(BeyondSupportError):
            lower_prevision(cone, space.constant(1), space.event([space.outcomes[-1]]))


class TestIntegerRows:
    """Queries read each cone's outcome rows as cached integer rows, scaled
    by the lcm of the generator denominators; a right-hand side with a
    denominator the scale does not divide must raise that row's scale."""

    @staticmethod
    def thirds_cone(rng, space):
        """Generators with entries in thirds, each shifted so that the
        uniform pmf gives it a positive expectation: every query is finite."""
        gens = []
        for _ in range(rng.randint(1, space.size + 1)):
            thirds = [rng.randint(-6, 6) for _ in space.outcomes]
            shift = max(1, -sum(thirds) // space.size + 1)
            gens.append(space.gamble([Fraction(t + shift, 3) for t in thirds]))
        return DesirableCone(space, tuple(gens))

    @pytest.mark.parametrize("conditional", [False, True], ids=["unconditional", "conditional"])
    @pytest.mark.parametrize("seed", range(6))
    def test_sevenths_queries_match_sympy(self, seed, conditional):
        rng = random.Random(9100 + seed)
        space = random_space(rng, "T", 3, 5)
        cone = self.thirds_cone(rng, space)
        assert any(scale % 3 == 0 for scale, _ in cone.scaled_rows)
        for _ in range(3):
            f = space.gamble([Fraction(rng.randint(-20, 20), 7) for _ in space.outcomes])
            event = random_nonempty_event(rng, space) if conditional else space.full_event()
            expected = sympy_lower_prevision(space, cone.generators, f, event)
            assert expected is not None
            assert lower_prevision(cone, f, event) == expected
            upper = -sympy_lower_prevision(space, cone.generators, -f, event)
            assert upper_prevision(cone, f, event) == upper

    @pytest.mark.parametrize("conditional", [False, True], ids=["unconditional", "conditional"])
    @pytest.mark.parametrize("seed", range(6))
    def test_sevenths_queries_on_the_lp_match_sympy(self, seed, conditional, monkeypatch):
        """The same queries with ``VERTEX_CAP`` at 0, so each solves its LP
        and some right-hand side raises its row's scale."""
        monkeypatch.setattr(cones, "VERTEX_CAP", 0)
        self.test_sevenths_queries_match_sympy(seed, conditional)

    @pytest.mark.parametrize("conditional", [False, True], ids=["unconditional", "conditional"])
    @pytest.mark.parametrize("seed", range(6))
    def test_query_rows_match_the_rational_right_hand_sides(self, seed, conditional):
        """``_gamble_side_lp`` takes f as one integer row and hands each
        right-hand side over f's scale; its rows must be those built from
        the ``Fraction`` f(x) - floor, with and without the floor."""
        rng = random.Random(9300 + seed)
        space = random_space(rng, "T", 3, 5)
        cone = self.thirds_cone(rng, space)
        n = len(cone.generators)
        raised = False
        for _ in range(3):
            f = space.gamble([Fraction(rng.randint(-20, 20), 7) for _ in space.outcomes])
            event = random_nonempty_event(rng, space) if conditional else space.full_event()
            f_row = (f.den, f.nums)
            assert f_row == scaled_row(f.values)
            low = f.min_over(event)
            assert (low * f_row[0]).denominator == 1
            for floor, on, off, shift in ((None, (1, -1), (0, 0), 0), (int(low * f_row[0]), (1,), (0,), low)):
                built = cones._gamble_side_lp(cone, f_row, event, floor)
                expected = LinearProgram(n + len(on), [0] * n + [1, -1][: len(on)])
                for x, row, v in zip(space.outcomes, cone.scaled_rows, f.values):
                    if x in event.members:
                        rhs = v - shift
                        raised = raised or row[0] % rhs.denominator != 0
                        expected.add_scaled(row, "<=", rhs.as_integer_ratio(), last=on)
                    else:
                        expected.add_scaled(row, "<=", (0, 1), last=off)
                assert built.objective == expected.objective
                assert built.rows == expected.rows
        assert raised  # some sevenths rhs raised its row's scale

    def test_oracle_checks_a_claimed_infeasibility(self):
        """sympy 1.14 raises ``InfeasibleLPError`` on this feasible cone;
        the oracle must then answer by vertex enumeration, not with None."""
        space = Space("T", ("t0", "t1", "t2"))
        rows = (["-1/9", "2/9", "8/9"], ["-4/3", "7/3", 0], [1, 1, -1])
        cone = DesirableCone(space, tuple(space.gamble(v) for v in rows))
        f = space.gamble(["-3/7", "15/7", "17/7"])
        assert lower_prevision(cone, f) == Fraction(39, 77)
        assert sympy_lower_prevision(space, cone.generators, f, space.full_event()) == Fraction(39, 77)

    def test_rows_built_once_per_cone(self, monkeypatch):
        builds, scalings = [], []
        build = cones._outcome_rows

        def counted(space, generators):
            builds.append((space, tuple(generators)))
            return build(space, generators)

        monkeypatch.setattr(cones, "_outcome_rows", counted)
        monkeypatch.setattr(simplex, "scaled_row", lambda values: scalings.append(values) or scaled_row(values))
        pmfs = [LinearPrevision.from_masses(ABC, m) for m in (["1/2", "1/4", "1/4"], ["1/5", "2/5", "2/5"])]
        pairs = [(ABC.gamble([1, 0, 2]), None), (ABC.gamble(["1/3", "-2/3", 0]), ABC.event(["x1", "x2"]))]
        model = ConditionalLowerPrevision(envelope_assessment(ABC, pmfs, pairs))
        f = ABC.gamble(["3/7", -1, "2/7"])
        for event in (None, ABC.event(["x1", "x3"])):
            model.lower(f, event)
            model.upper(f, event)
        assert model.is_coherent()
        assert model.cone.is_coherent()
        assert model.cone.contains(f + 2)
        # The cone's outcome rows, the generator values per outcome, are
        # assembled once from the generators' integer rows, and no query
        # scales its gamble: ``cones._lower_value`` reads its den and nums.
        assert builds == [(ABC, model.cone.generators)]
        assert scalings == []
        rows = model.cone.scaled_rows
        assert rows == tuple(map(scaled_row, zip(*(g.values for g in model.cone.generators))))
        assert isinstance(rows, tuple) and len(rows) == ABC.size
        for scale, ints in rows:
            assert isinstance(scale, int) and scale > 0
            assert isinstance(ints, tuple) and all(isinstance(a, int) for a in ints)


class TestNaturalExtension:
    def test_assessed_entries_are_reproduced(self):
        model, _ = random_envelope_model(random.Random(5), ABC)
        for entry in model.assessment.entries:
            assert model.lower(entry.gamble, entry.event) == entry.lower

    def test_constant_gamble_is_squeezed(self):
        model = ConditionalLowerPrevision.from_entries(
            AB, [(AB.gamble([1, 0]), None, "1/4")]
        )
        assert model.lower(AB.constant(Fraction(5, 7))) == Fraction(5, 7)
        assert model.upper(AB.constant(Fraction(5, 7))) == Fraction(5, 7)

    def test_credal_upper_via_conjugate(self):
        model = ConditionalLowerPrevision.from_entries(
            AB, [(AB.gamble([1, 0]), None, "1/4"), (AB.gamble([0, 1]), None, "1/4")]
        )
        # Dominating pmfs have p(a) in [1/4, 3/4]; the maximum is 3/4.
        assert model.upper(AB.gamble([1, 0])) == Fraction(3, 4)

    def test_linear_upper_equals_lower(self):
        prev = LinearPrevision.from_masses(ABC, ["1/6", "1/3", "1/2"]).as_lower_prevision()
        rng = random.Random(0)
        for _ in range(5):
            f = random_gamble(rng, ABC)
            event = random_nonempty_event(rng, ABC)
            assert prev.lower(f, event) == prev.upper(f, event)

    def test_nonnegativity_for_cone_members(self):
        # If f * indicator(B) is in the cone, the conditional lower
        # prevision of f on B cannot be negative.
        model = ConditionalLowerPrevision.from_entries(
            ABC, [(ABC.gamble([2, -1, 0]), ABC.event(["x1", "x2"]), 0)]
        )
        f = ABC.gamble([2, -1, 0])
        event = ABC.event(["x1", "x2"])
        assert model.cone.contains(f * indicator(event))
        assert model.lower(f, event) >= 0


class TestWilliamsCoherence:
    def test_vacuous_entry_coherent(self):
        f = ABC.gamble([3, -1, 2])
        model = ConditionalLowerPrevision.from_entries(ABC, [(f, None, -1)])
        assert model.coherence.coherent

    def test_above_maximum_is_violation(self):
        f = ABC.gamble([3, -1, 2])
        model = ConditionalLowerPrevision.from_entries(ABC, [(f, None, 4)])
        verdict = model.coherence
        assert not verdict.coherent
        assert verdict.violation.kind == "sure-loss"
        assert verdict.violation.sup_value == -1
        assert verdict.violation.lambdas == ((0, 1, Fraction(1)),)

    def test_sure_loss_two_thirds(self):
        model = ConditionalLowerPrevision.from_entries(
            AB, [(AB.gamble([1, 0]), None, "2/3"), (AB.gamble([0, 1]), None, "2/3")]
        )
        verdict = model.coherence
        assert not verdict.coherent
        assert verdict.violation.kind == "sure-loss"
        # The combination sum_i lambda_i [f_i - 2/3] is constant; with unit
        # coefficients its value is 1 - 4/3 = -1/3, and the certificate is a
        # positive rescaling of that combination.
        lambdas = {index: coeff for index, sign, coeff in verdict.violation.lambdas}
        assert set(lambdas) == {0, 1} and lambdas[0] == lambdas[1]
        assert verdict.violation.sup_value == lambdas[0] * Fraction(-1, 3)

    def test_gap_violation_reports_assessed_and_extension(self):
        model = ConditionalLowerPrevision.from_entries(
            ABC,
            [
                (ABC.gamble([1, 1, 0]), None, "3/4"),
                (ABC.gamble([0, 1, 1]), None, "3/4"),
                (ABC.gamble([0, 1, 0]), None, "1/4"),
            ],
        )
        verdict = model.coherence
        assert not verdict.coherent
        assert verdict.violation.kind == "gap"
        assert verdict.violation.entry_index == 2
        assert verdict.violation.assessed == Fraction(1, 4)
        assert verdict.violation.extension == Fraction(1, 2)
        assert verdict.violation.sup_value < 0

    def test_linear_assessments_are_coherent(self):
        for seed in range(5):
            rng = random.Random(seed)
            space = random_space(rng, "L")
            assert random_strict_pmf(rng, space).as_lower_prevision().coherence.coherent

    def test_restriction_preserves_coherence(self):
        rng = random.Random(11)
        model, _ = random_envelope_model(rng, ABC, n_entries=3)
        for keep in ([0], [1, 2], [0, 2]):
            sub = ConditionalLowerPrevision(model.assessment.restricted(keep))
            assert sub.coherence.coherent

    def test_natural_extension_is_dominated_by_coherent_extensions(self):
        rng = random.Random(13)
        space = random_space(rng, "D")
        pmfs = [random_strict_pmf(rng, space) for _ in range(3)]
        pairs = [(random_gamble(rng, space), None) for _ in range(2)]
        weak = ConditionalLowerPrevision(envelope_assessment(space, pmfs, pairs))
        # A sub-envelope assessment extends the weak one coherently and
        # dominates it on every query.
        strong = ConditionalLowerPrevision(envelope_assessment(space, pmfs[:1], pairs))
        for _ in range(8):
            f = random_gamble(rng, space)
            event = random_nonempty_event(rng, space)
            assert weak.lower(f, event) <= strong.lower(f, event)

    def test_duplicate_entries_with_conflicting_values_rejected(self):
        f = AB.gamble([1, 0])
        with pytest.raises(ValueError):
            Assessment(
                AB,
                (
                    AssessmentEntry(f, AB.full_event(), Fraction(1, 4)),
                    AssessmentEntry(f, AB.full_event(), Fraction(1, 3)),
                ),
            )


COHERENCE_GOLDEN = json.loads((Path(__file__).parent / "data" / "coherence_golden.json").read_text())


class TestCoherenceGolden:
    """Verdicts recorded on seeded random assessments (2-7 outcomes, 1-8
    entries, some conditional, some linear; values from envelopes of
    random pmfs, some sharing a zero block, with some values moved, or off
    a grid between the conditional minimum and maximum) before coherence
    probes were decided by value first: 91 coherent, 50 gap, 152 sure-loss
    and 7 beyond-support verdicts.  Which certificate comes back depends on
    the LP and its pivot path, so exact equality of the ``repr`` pins
    both."""

    @pytest.mark.parametrize(
        "case", COHERENCE_GOLDEN, ids=[f"a{k:03d}" for k in range(len(COHERENCE_GOLDEN))]
    )
    def test_recorded_verdict(self, case):
        space = Space("W", tuple(f"w{i}" for i in range(case["outcomes"])))
        entries = tuple(
            AssessmentEntry(
                gamble=space.gamble([Fraction(v) for v in e["gamble"]]),
                event=space.event(space.outcomes[i] for i in e["event"]),
                lower=Fraction(e["lower"]),
                linear=e["linear"],
            )
            for e in case["entries"]
        )
        verdict = ConditionalLowerPrevision(Assessment(space, entries)).coherence
        assert repr(verdict) == case["verdict"]


@st.composite
def probed_assessments(draw):
    """An assessment on 2-5 outcomes with 1-7 entries, valued at the lower
    envelope of 1-3 pmfs that may share a block of zero masses, so that
    some conditioning events lie beyond support.  Some values are then
    moved up or down, to give gap and sure-loss verdicts, and some entries
    are linear, valued at the first pmf."""
    n = draw(st.integers(2, 5))
    space = Space("H", tuple(f"h{i}" for i in range(n)))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    pmfs = []
    for weights in draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=3)):
        weights = [0 if i in zero else w for i, w in enumerate(weights)]
        if not any(weights):
            weights[min(set(range(n)) - zero)] = 1
        pmfs.append([Fraction(w, sum(weights)) for w in weights])
    entries, seen = [], set()
    for _ in range(draw(st.integers(1, 7))):
        values = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        members = range(n) if draw(st.booleans()) else sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        if (tuple(values), tuple(members)) in seen:
            continue
        seen.add((tuple(values), tuple(members)))
        conditional = [
            sum(p[i] * values[i] for i in members) / mass for p in pmfs if (mass := sum(p[i] for i in members))
        ]
        linear = draw(st.integers(0, 4)) == 0
        if not conditional:
            value = Fraction(draw(st.integers(min(values[i] for i in members), max(values[i] for i in members))))
        else:
            value = conditional[0] if linear else min(conditional)
        value += draw(st.sampled_from([0, 0, 0, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 7)]))
        event = space.event(space.outcomes[i] for i in members)
        entries.append(AssessmentEntry(space.gamble(values), event, value, linear))
    return Assessment(space, tuple(entries))


class TestProbeSkipping:
    """A passing coherence probe's prices, once checked to be dominating,
    settle every later probe they make tight with positive mass on its
    event; those probes are skipped.  Verdicts and certificates must be the
    ones from probing every entry, and a price vector that fails the check
    must skip nothing."""

    @settings(max_examples=250, deadline=None)
    @given(probed_assessments())
    def test_same_verdict_as_probing_every_entry(self, assessment):
        model = ConditionalLowerPrevision(assessment)
        assert repr(model.coherence) == repr(coherence_probing_every_entry(model))

    # Per verdict kind: the space size and the entries as (gamble, event
    # indices or None for the full event, lower, linear).
    CASES = {
        "coherent": (3, [([1, 0, 0], None, "1/3", 0), ([0, 1, 0], None, "1/3", 0), ([1, 1, 0], None, "2/3", 0)]),
        "gap": (3, [([1, 1, 0], None, "3/4", 0), ([0, 1, 1], None, "3/4", 0), ([0, 1, 0], None, "1/4", 0)]),
        "sure-loss": (2, [([1, 0], None, "2/3", 0), ([0, 1], None, "2/3", 0)]),
        "beyond-support": (3, [([1, 1, 0], None, 1, 0), ([1, 0, 0], None, "1/2", 0), ([0, 0, 1], [2], 1, 0)]),
        "linear": (3, [([1, 0, 0], None, "1/4", 1), ([0, 1, 0], None, "1/4", 1), ([1, 1, 0], None, "1/2", 0)]),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_each_verdict_kind(self, kind):
        n, rows = self.CASES[kind]
        space = Space("K", tuple(f"k{i}" for i in range(n)))
        model = ConditionalLowerPrevision.from_entries(
            space,
            [
                (space.gamble(g), None if ev is None else space.event(space.outcomes[i] for i in ev), v, lin)
                for g, ev, v, lin in rows
            ],
        )
        verdict = model.coherence
        assert repr(verdict) == repr(coherence_probing_every_entry(model))
        assert (verdict.violation.kind if verdict.violation else "coherent") == (
            "coherent" if kind == "linear" else kind
        )

    @staticmethod
    def count_probes(monkeypatch, prices=None):
        """Replace the prices of every probe by ``prices`` (when given) and
        count the probe LPs."""
        calls = []
        real = prevision._lower_value

        def probe(cone, f, event):
            value, real_prices = real(cone, f, event)
            calls.append((f, event))
            return value, real_prices if prices is None else prices

        monkeypatch.setattr(prevision, "_lower_value", probe)
        return calls

    ABC = Space("T", ("a", "b", "c"))

    def two_entries(self, second_event=None):
        """lower(I_a) = lower(I_b) = 1/3 (generators [2/3, -1/3, -1/3] and
        [-1/3, 2/3, -1/3]), or the second entry lower(I_c | {b, c}) = 1/2,
        with generator [0, -1/2, 1/2]: both coherent."""
        abc = self.ABC
        if second_event is None:
            second = (abc.gamble([0, 1, 0]), None, "1/3")
        else:
            second = (abc.gamble([0, 0, 1]), abc.event(second_event), "1/2")
        return ConditionalLowerPrevision.from_entries(abc, [(abc.gamble([1, 0, 0]), None, "1/3"), second])

    def test_checked_dominating_prices_skip(self, monkeypatch):
        # r = (1, 1, 1) dominates and is tight on the second generator.
        calls = self.count_probes(monkeypatch, prices=(1, 1, 1))
        assert self.two_entries().coherence.coherent
        assert len(calls) == 1

    def test_negative_prices_skip_nothing(self, monkeypatch):
        # r = (3, 1, -1): E_r = 2 and 0, but r(c) < 0.
        calls = self.count_probes(monkeypatch, prices=(3, 1, -1))
        assert self.two_entries().coherence.coherent
        assert len(calls) == 2

    def test_non_dominating_prices_skip_nothing(self, monkeypatch):
        # r = (0, 1, 2): tight on the second generator, E_r = -1 on the first.
        calls = self.count_probes(monkeypatch, prices=(0, 1, 2))
        assert self.two_entries().coherence.coherent
        assert len(calls) == 2

    def test_tightness_on_a_zero_mass_event_skips_nothing(self, monkeypatch):
        # r = (1, 0, 0) dominates and is tight on [0, -1/2, 1/2] only
        # because it gives {b, c} no mass.
        calls = self.count_probes(monkeypatch, prices=(1, 0, 0))
        assert self.two_entries(second_event=["b", "c"]).coherence.coherent
        assert len(calls) == 2

    def test_linear_entries_probe_each_direction_once(self, monkeypatch):
        # Prices that fail the check skip nothing, so every passing entry
        # runs its probe, and only its own direction is probed.
        calls = self.count_probes(monkeypatch, prices=(3, 1, -1))
        pmf = LinearPrevision.from_masses(self.ABC, ["1/2", "1/3", "1/6"])
        model = pmf.as_lower_prevision()
        assert model.coherence.coherent
        assert calls == [(e.gamble, e.event) for e in model.assessment.entries]

    def test_twelve_entry_envelope_solves_fewer_probes(self, monkeypatch):
        rng = random.Random(1210)
        space = random_space(rng, "S", 6, 6)
        pmfs = [random_strict_pmf(rng, space) for _ in range(3)]
        pairs = []
        while len(pairs) < 12:
            pair = (random_gamble(rng, space), random_nonempty_event(rng, space) if len(pairs) % 3 == 2 else None)
            if all(pair[0] != f for f, _ in pairs):
                pairs.append(pair)
        model = ConditionalLowerPrevision(envelope_assessment(space, pmfs, pairs))
        calls = self.count_probes(monkeypatch)
        assert model.coherence.coherent
        assert len(calls) < 12


class TestPolishSearchSize:
    """Certificate polishing tries every non-empty subset of the failing
    probe's support, largest first, so a support of k generators on which
    no subset certifies costs 2^k - 1 LPs.  The chain below on outcomes
    a, b, c1 ... c(k-1) has such a support: lower(I_c1 - I_b) >= 0, ...,
    lower(I_c(k-1) - I_c(k-2)) >= 0 and lower(-I_c(k-1)) >= 0 give every
    dominating pmf no mass on b, so the last entry, lower(I_a | {b}) >= 0,
    is beyond support, and its ray needs all k of the others."""

    @staticmethod
    def chain(k):
        chain = [f"c{i}" for i in range(1, k)]
        space = Space("P", ("a", "b", *chain))

        def row(plus=None, minus=None):
            return space.gamble([(x == plus) - (x == minus) for x in space.outcomes])

        entries = [(row(plus=hi, minus=lo), None, 0) for lo, hi in zip(["b", *chain], chain)]
        entries.append((row(minus=chain[-1]), None, 0))
        entries.append((row(plus="a"), space.event(["b"]), 0))
        return ConditionalLowerPrevision.from_entries(space, entries)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_polishing_solves_every_subset(self, k, monkeypatch):
        solves = []
        polishing = []
        solve, polish = LinearProgram.solve, ConditionalLowerPrevision._polish_certificate

        def counted_solve(lp, *args, **kwargs):
            if polishing:
                solves.append(lp)
            return solve(lp, *args, **kwargs)

        def counted_polish(model, *args, **kwargs):
            polishing.append(True)
            try:
                return polish(model, *args, **kwargs)
            finally:
                polishing.pop()

        monkeypatch.setattr(LinearProgram, "solve", counted_solve)
        monkeypatch.setattr(ConditionalLowerPrevision, "_polish_certificate", counted_polish)
        violation = self.chain(k).coherence.violation
        assert violation.kind == "beyond-support"
        assert violation.entry_index == k
        assert [index for index, _, _ in violation.lambdas] == list(range(k))
        assert len(solves) == 2**k - 1


class TestEnvelopeAgainstVertexOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_bounds_match_vertex_enumeration(self, seed):
        rng = random.Random(700 + seed)
        space = random_space(rng, "E", 2, 4)
        model, _ = random_envelope_model(rng, space, n_entries=rng.randint(1, 3))
        f = random_gamble(rng, space)
        event = random_nonempty_event(rng, space)
        oracle = envelope_bounds_by_vertices(space, model.cone.generators, f, event)
        assert oracle is not None
        low, high = oracle
        assert model.lower(f, event) == low
        assert model.upper(f, event) == high
        argmin, argmax = model.dominating_previsions(f, event)
        assert argmin.conditional(f, event) == low
        assert argmax.conditional(f, event) == high

    @pytest.mark.parametrize("seed", range(10))
    def test_lower_matches_sympy_route(self, seed):
        rng = random.Random(800 + seed)
        space = random_space(rng, "E", 2, 4)
        model, _ = random_envelope_model(rng, space)
        f = random_gamble(rng, space)
        event = random_nonempty_event(rng, space)
        assert model.lower(f, event) == sympy_lower_prevision(
            space, model.cone.generators, f, event
        )

    def test_intermediate_value_attained(self):
        model = ConditionalLowerPrevision.from_entries(
            AB, [(AB.gamble([1, 0]), None, "1/4"), (AB.gamble([0, 1]), None, "1/4")]
        )
        f = AB.gamble([1, 0])
        argmin, argmax = model.dominating_previsions(f)
        assert argmin.masses == (Fraction(1, 4), Fraction(3, 4))
        assert argmax.masses == (Fraction(3, 4), Fraction(1, 4))
        half = LinearPrevision(
            AB,
            tuple((p + q) / 2 for p, q in zip(argmin.masses, argmax.masses)),
        )
        assert model.dominates(half)
        assert half.expectation(f) == Fraction(1, 2)


FAILED_CHECKS_SCRIPT = """
from fractions import Fraction
from desirables import prevision
from desirables.prevision import ConditionalLowerPrevision
from desirables.spaces import Space

print("debug", __debug__)
space = Space("X", ("x1", "x2", "x3"))
model = ConditionalLowerPrevision.from_entries(space, [])
for prices in ((1, -1, 1), (1, 0, 0)):
    prevision._lower_value = lambda cone, f, event, prices=prices: (Fraction(min(f.nums), f.den), prices)
    try:
        model.dominating_previsions(space.gamble([3, 1, 2]))
    except RuntimeError as exc:
        print("RuntimeError:", exc)
"""


class TestDominatingPmfsFromTheDual:
    """``dominating_previsions`` normalises the prices of the queries of f
    and -f: each is a dominating pmf that attains the query value."""

    @staticmethod
    def assert_attaining(model, f, event):
        argmin, argmax = model.dominating_previsions(f, event)
        for pmf in (argmin, argmax):
            assert model.dominates(pmf)
            assert sum(pmf.masses) == 1
        assert argmin.conditional(f, event) == model.lower(f, event)
        assert argmax.conditional(f, event) == model.upper(f, event)
        return argmin, argmax

    @pytest.mark.parametrize("seed", range(40))
    def test_pmfs_dominate_and_attain_both_bounds(self, seed):
        rng = random.Random(7400 + seed)
        space = random_space(rng, "E", 2, 5)
        model, _ = random_envelope_model(rng, space)
        f = random_gamble(rng, space)
        event = random_nonempty_event(rng, space) if rng.random() < 0.5 else None
        self.assert_attaining(model, f, event if event is not None else space.full_event())

    @pytest.mark.parametrize("seed", range(10))
    def test_f_constant_on_the_event(self, seed):
        # nu = 0 in both solves: lower = upper = min_B f, and the dual's mass
        # row on B need not be tight.
        rng = random.Random(7500 + seed)
        space = random_space(rng, "E", 3, 5)
        model, _ = random_envelope_model(rng, space)
        event = random_nonempty_event(rng, space)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        f = space.gamble([c if x in event.members else Fraction(rng.randint(-5, 5)) for x in space.outcomes])
        self.assert_attaining(model, f, event)
        assert model.lower(f, event) == model.upper(f, event) == c

    def test_vacuous_model_attains_the_minimum_over_the_event(self):
        model = ConditionalLowerPrevision.from_entries(ABC, [])
        f = ABC.gamble([3, -1, 2])
        event = ABC.event(["x1", "x3"])
        self.assert_attaining(model, f, event)
        assert model.lower(f, event) == 2 and model.upper(f, event) == 3

    def test_pmf_with_mass_outside_the_event(self):
        # Every dominating pmf gives x3 at least 1/2, so both witnesses for a
        # query on {x1, x2} put mass off the event.
        model = ConditionalLowerPrevision.from_entries(ABC, [(indicator(ABC.event(["x3"])), None, "1/2")])
        f = ABC.gamble([1, 3, 0])
        event = ABC.event(["x1", "x2"])
        argmin, argmax = self.assert_attaining(model, f, event)
        assert (model.lower(f, event), model.upper(f, event)) == (1, 3)
        assert argmin.mass("x3") >= Fraction(1, 2) and argmax.mass("x3") >= Fraction(1, 2)

    def test_sure_loss_diverges(self):
        model = ConditionalLowerPrevision.from_entries(
            AB, [(AB.gamble([1, 0]), None, "2/3"), (AB.gamble([0, 1]), None, "2/3")]
        )
        with pytest.raises(SureLossError):
            model.dominating_previsions(AB.gamble([1, 2]))

    def test_failed_checks_raise_under_optimisation(self):
        """Both checks are explicit raises, so ``python -O``, which strips
        ``assert``, keeps them.  The query is made to return prices that
        fail each check in turn: a negative price, then the point mass on
        x1, which dominates the vacuous model but does not attain the
        value 1 of f = (3, 1, 2)."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-O", "-c", FAILED_CHECKS_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split("\n")[:3] == [
            "debug False",
            "RuntimeError: the query's prices (1, -1, 1) are not a dominating pmf up to scale",
            "RuntimeError: the priced pmf does not attain the query value 1",
        ]

    def test_conditioning_beyond_support_diverges(self):
        model = ConditionalLowerPrevision.from_entries(
            ABC, [(indicator(ABC.event(["x3"])), None, 0, True)]
        )
        event = ABC.event(["x3"])
        with pytest.raises(BeyondSupportError):
            model.dominating_previsions(ABC.gamble([1, 2, 3]), event)
        with pytest.raises(BeyondSupportError):
            model.lower(ABC.gamble([1, 2, 3]), event)

    @pytest.mark.parametrize("other", [Space("W", ("a", "b")), Space("Z", ("c", "d"))])
    def test_event_on_another_space_is_refused_as_by_lower(self, other):
        model = ConditionalLowerPrevision.from_entries(AB, [(AB.gamble([1, 0]), None, "1/4")])
        f = AB.gamble([1, 2])
        event = other.event([other.outcomes[0]])
        with pytest.raises(SpaceMismatchError):
            model.lower(f, event)
        with pytest.raises(SpaceMismatchError):
            model.dominating_previsions(f, event)

    def test_two_dantzig_solves(self, monkeypatch):
        monkeypatch.setattr(cones, "VERTEX_CAP", 0)
        rules = []
        original = LinearProgram.solve

        def spy(lp, pricing=simplex.BLAND):
            rules.append(pricing)
            return original(lp, pricing)

        monkeypatch.setattr(LinearProgram, "solve", spy)
        rng = random.Random(7600)
        space = random_space(rng, "E", 3, 5)
        model, _ = random_envelope_model(rng, space)
        model.dominating_previsions(random_gamble(rng, space))
        assert rules == [simplex.DANTZIG, simplex.DANTZIG]

    def test_no_solve_within_the_vertex_gate(self, monkeypatch):
        """The same model at the default cap: both pmfs are credal vertices."""
        rng = random.Random(7600)
        space = random_space(rng, "E", 3, 5)
        model, _ = random_envelope_model(rng, space)
        f = random_gamble(rng, space)
        assert model.cone.vertex_bound <= cones.VERTEX_CAP
        solves = []
        original = LinearProgram.solve

        def spy(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(LinearProgram, "solve", spy)
        argmin, argmax = model.dominating_previsions(f)
        assert solves == []
        vertices = {tuple(Fraction(v, sum(vertex)) for v in vertex) for vertex in model.cone.credal_vertices}
        assert {argmin.masses, argmax.masses} <= vertices


class TestAxioms:
    @pytest.mark.parametrize("seed", range(10))
    def test_axiom_suite_passes_on_envelope_models(self, seed):
        rng = random.Random(900 + seed)
        space = random_space(rng, "A")
        model, _ = random_envelope_model(rng, space)
        samples = [
            AxiomSample(
                f=random_gamble(rng, space),
                g=random_gamble(rng, space),
                event_a=random_nonempty_event(rng, space),
                event_b=random_nonempty_event(rng, space),
                scale=Fraction(rng.randint(0, 3), rng.randint(1, 2)),
                shift=Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            )
            for _ in range(2)
        ]
        report = check_axioms(model, samples)
        assert report.all_passed, report.failures()

    def test_lp2_zero_scale(self):
        model, _ = random_envelope_model(random.Random(3), ABC)
        f = ABC.gamble([2, -1, 1])
        assert model.lower(f * 0) == 0

    def test_superadditivity_can_be_strict(self):
        model = ConditionalLowerPrevision.from_entries(
            AB, [(AB.gamble([1, 0]), None, "1/4"), (AB.gamble([0, 1]), None, "1/4")]
        )
        f, g = AB.gamble([1, 0]), AB.gamble([0, 1])
        assert model.lower(f + g) == 1
        assert model.lower(f) + model.lower(g) == Fraction(1, 2)


class TestLinearPrevisions:
    def test_unit_constant(self):
        prev = LinearPrevision.from_masses(ABC, ["1/2", "1/3", "1/6"])
        assert prev.expectation(ABC.constant(1)) == 1

    def test_bayes_rule(self):
        prev = LinearPrevision.from_masses(ABC, ["1/2", "1/3", "1/6"])
        rng = random.Random(4)
        for _ in range(10):
            f = random_gamble(rng, ABC)
            a = random_nonempty_event(rng, ABC)
            b = random_nonempty_event(rng, ABC)
            ab = a.intersect(b)
            if ab.is_empty or prev.probability(a) == 0:
                continue
            lhs = prev.conditional(f * indicator(b), a)
            rhs = prev.conditional(f, ab) * prev.conditional(indicator(b), a)
            assert lhs == rhs

    def test_boundedness_monotonicity_constant_shift(self):
        prev = LinearPrevision.from_masses(ABC, ["1/2", "1/3", "1/6"])
        rng = random.Random(21)
        for _ in range(10):
            f = random_gamble(rng, ABC)
            b = random_nonempty_event(rng, ABC)
            value = prev.conditional(f, b)
            assert f.min_over(b) <= value <= f.max_over(b)
            shift = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            assert prev.conditional(f + shift, b) == value + shift
            below = f - Fraction(rng.randint(0, 2))
            assert prev.conditional(below, b) <= value

    def test_linearity_and_homogeneity(self):
        prev = LinearPrevision.from_masses(AB, ["2/5", "3/5"])
        rng = random.Random(8)
        for _ in range(10):
            f, g = random_gamble(rng, AB), random_gamble(rng, AB)
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert prev.expectation(f + g) == prev.expectation(f) + prev.expectation(g)
            assert prev.expectation(f * lam) == lam * prev.expectation(f)

    def test_conditioning_beyond_mass_refused(self):
        prev = LinearPrevision.from_masses(AB, ["1", "0"])
        with pytest.raises(BeyondSupportError):
            prev.conditional(AB.gamble([1, 0]), AB.event(["b"]))

    def test_gamble_on_another_space_refused_before_the_mass_is_read(self):
        prev = LinearPrevision.from_masses(AB, ["1", "0"])
        other = Space("Z", ("a", "b", "c")).gamble([1, 2, 3])
        for members in (["a"], ["b"]):
            with pytest.raises(SpaceMismatchError):
                prev.conditional(other, AB.event(members))

    def test_event_on_another_space_refused_first(self):
        # Z has X's labels: the space check must come before the event is
        # read as full or as empty.
        other = Space("Z", AB.outcomes)
        prev, f = LinearPrevision.uniform(AB), AB.gamble([1, 2])
        with pytest.raises(SpaceMismatchError):
            prev(f, other.full_event())
        with pytest.raises(SpaceMismatchError):
            prev.conditional(f, other.event([]))

    def test_masses_validated(self):
        with pytest.raises(ValueError):
            LinearPrevision.from_masses(AB, ["1/2", "1/3"])
        with pytest.raises(ValueError):
            LinearPrevision.from_masses(AB, ["3/2", "-1/2"])

    def test_mapping_with_unknown_outcomes_rejected(self):
        with pytest.raises(ValueError, match=r"unknown outcomes \['typo'\]"):
            LinearPrevision.from_masses(AB, {"a": 1, "typo": 0})
        # A missing outcome still has mass zero.
        assert LinearPrevision.from_masses(AB, {"a": 1}).masses == (1, 0)

"""Cross-validation of the coherence classifier and LP duality.

The coherence verdict is the subtlest decision in the engine: an
assessment is accepted exactly when every entry's query is finite and
reproduces the assessed value.  Here the same verdict is predicted by an
independent route (brute-force vertex enumeration of the dominating
credal set, no simplex involved) on adversarial random assessments,
covering sure-loss, gap, and beyond-support cases.  A second group
checks strong duality of the query LP explicitly: the primal
supremum-of-acceptable-prices program and the dual
envelope-over-dominating-mass program must agree to the rational.  A
third compares independent natural extensions at sizes the sympy oracle
cannot reach with SciPy's HiGHS, in floating point, and a fourth checks
cone coherence and its strictly positive pmf witness against HiGHS.
"""

import random
from fractions import Fraction

import pytest

from desirables import independence
from desirables.cones import DesirableCone
from desirables.independence import EventFamily, IndependentNaturalExtension
from desirables.prevision import (
    Assessment,
    AssessmentEntry,
    BeyondSupportError,
    ConditionalLowerPrevision,
    SureLossError,
    lower_prevision,
)
from desirables.simplex import EQUAL, GREATER_EQUAL, LinearProgram, LPStatus, scaled_row
from desirables.spaces import Gamble, Space, indicator
from desirables.suites import (
    random_envelope_model,
    random_gamble,
    random_nonempty_event,
    random_space,
)

from oracles import envelope_bounds_by_vertices


def _random_assessment(rng, space):
    """Arbitrary assessments: mostly incoherent, values off a small grid."""
    entries = []
    seen = set()
    for _ in range(rng.randint(1, 3)):
        f = random_gamble(rng, space, span=3, max_den=2)
        event = (
            random_nonempty_event(rng, space) if rng.random() < 0.5 else space.full_event()
        )
        key = (f.values, event.members)
        if key in seen:
            continue
        seen.add(key)
        value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        entries.append(
            AssessmentEntry(
                gamble=f, event=event, lower=value, linear=rng.random() < 0.3
            )
        )
    return Assessment(space, tuple(entries))


def _predict_verdict(model: ConditionalLowerPrevision):
    """Independent route: an assessment is coherent iff for every entry
    (and its conjugate, when linear) the credal-side minimum exists and
    equals the assessed value.  Minima come from exhaustive vertex
    enumeration of the dominating set."""
    for entry in model.assessment.entries:
        probes = [(entry.gamble, entry.lower)]
        if entry.linear:
            probes.append((-entry.gamble, -entry.lower))
        for gamble, assessed in probes:
            bounds = envelope_bounds_by_vertices(
                model.space, model.cone.generators, gamble, entry.event
            )
            if bounds is None:
                return False
            value = bounds[0]
            assert value >= assessed  # the entry's own generator forces this
            if value > assessed:
                return False
    return True


class TestCoherenceClassifierAgainstSympy:
    @pytest.mark.parametrize("seed", range(40))
    def test_adversarial_assessments(self, seed):
        rng = random.Random(5000 + seed)
        space = random_space(rng, "C", 2, 4)
        model = ConditionalLowerPrevision(_random_assessment(rng, space))
        assert model.coherence.coherent == _predict_verdict(model)

    @pytest.mark.parametrize("seed", range(20))
    def test_envelope_assessments_predicted_coherent(self, seed):
        rng = random.Random(6000 + seed)
        space = random_space(rng, "C", 2, 4)
        model, _ = random_envelope_model(rng, space)
        assert model.coherence.coherent
        assert _predict_verdict(model)

    @pytest.mark.parametrize("seed", range(15))
    def test_violation_certificates_are_sound(self, seed):
        # Whenever a strictly negative supremum is reported, recomputing the
        # finite combination from the certificate must reproduce it.
        rng = random.Random(7000 + seed)
        space = random_space(rng, "C", 2, 4)
        model = ConditionalLowerPrevision(_random_assessment(rng, space))
        verdict = model.coherence
        if verdict.coherent or verdict.violation.sup_value is None:
            return
        violation = verdict.violation
        combo = space.zero()
        region = set()
        for index, sign, coeff in violation.lambdas:
            entry = model.assessment.entries[index]
            combo = combo + entry.boundary_gamble() * (sign * coeff)
            region |= entry.event.members
        if violation.kind == "gap":
            entry = model.assessment.entries[violation.entry_index]
            combo = combo - entry.boundary_gamble()
            region |= entry.event.members
        sup = max(combo(x) for x in region)
        assert sup == violation.sup_value < 0


def dual_lp(cone, f, event):
    """The dual of the query LP: minimize r.(f * I_B) over r >= 0 with unit
    mass on the event and non-negative expectation per generator, written
    as its own transposed LP for the same simplex.  The objective is -f's
    integer row on B, so the optimum is -f.den times the rational minimum."""
    space = cone.space
    weights = [-v if x in event.members else 0 for v, x in zip(f.nums, space.outcomes)]
    lp = LinearProgram(space.size, weights)
    lp.add_scaled(scaled_row([int(x in event.members) for x in space.outcomes]), EQUAL, (1, 1))
    for g in cone.generators:
        lp.add_scaled(scaled_row(g.values), GREATER_EQUAL, (0, 1))
    return lp


class TestQueryDuality:
    @pytest.mark.parametrize("seed", range(25))
    def test_primal_equals_dual_on_random_models(self, seed):
        rng = random.Random(8000 + seed)
        space = random_space(rng, "D", 2, 4)
        model, _ = random_envelope_model(rng, space)
        f = random_gamble(rng, space)
        event = random_nonempty_event(rng, space)
        primal = lower_prevision(model.cone, f, event)
        result = dual_lp(model.cone, f, event).solve()
        assert result.status is LPStatus.OPTIMAL
        assert -result.value == primal * f.den

    def test_dual_point_is_a_scaled_dominating_pmf(self):
        rng = random.Random(8100)
        space = Space("D", ("a", "b", "c"))
        model, _ = random_envelope_model(rng, space)
        f = random_gamble(rng, space)
        event = space.event(["a", "c"])
        argmin, _argmax = model.dominating_previsions(f, event)
        assert model.dominates(argmin)
        assert argmin.probability(event) > 0
        assert argmin.conditional(f, event) == model.lower(f, event)

    # (space size range, generator count as a function of the size)
    SHAPES = {
        "fewer-generators": ((4, 6), lambda n: n - 2),
        "more-generators": ((2, 4), lambda n: n + 1),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_pmf_side_agrees_with_queries(self, shape):
        """Queries solve the gamble side only.  Its dual, solved as its own
        LP (``dual_lp``), must give the same value and be infeasible
        exactly when the query diverges, and ``dominating_previsions`` must
        yield a minimising dominating pmf whose conditional
        expectation is the query value.  The cones have fewer and more
        generators than outcomes, and arbitrary entry values, so that some
        queries diverge."""
        (lo, hi), count = self.SHAPES[shape]
        seen = {"finite": 0, SureLossError: 0, BeyondSupportError: 0}
        for seed in range(40):
            rng = random.Random(8300 + seed)
            space = random_space(rng, "P", lo, hi)
            entries = [
                (
                    random_gamble(rng, space, span=3, max_den=2),
                    random_nonempty_event(rng, space) if rng.random() < 0.5 else None,
                    Fraction(rng.randint(-3, 1), rng.randint(1, 3)),
                )
                for _ in range(count(space.size))
            ]
            model = ConditionalLowerPrevision.from_entries(space, entries)
            for _ in range(3):
                f = random_gamble(rng, space)
                event = random_nonempty_event(rng, space)
                dual = dual_lp(model.cone, f, event).solve()
                if dual.status is LPStatus.INFEASIBLE:
                    error = SureLossError if not model.cone.dominating_pmf_exists() else BeyondSupportError
                    seen[error] += 1
                    with pytest.raises(error):
                        lower_prevision(model.cone, f, event)
                    with pytest.raises(error):
                        model.dominating_previsions(f, event)
                    continue
                seen["finite"] += 1
                value = lower_prevision(model.cone, f, event)
                assert value * f.den == -dual.value
                argmin, _argmax = model.dominating_previsions(f, event)
                assert argmin.conditional(f, event) == value
        assert all(seen.values())


class TestConditionalEntryRoundTrips:
    @pytest.mark.parametrize("seed", range(15))
    def test_conditional_entries_reproduced_and_conjugates_bracket(self, seed):
        rng = random.Random(8200 + seed)
        space = random_space(rng, "R", 2, 4)
        model, pmfs = random_envelope_model(rng, space, n_entries=3)
        for entry in model.assessment.entries:
            low = model.lower(entry.gamble, entry.event)
            high = model.upper(entry.gamble, entry.event)
            assert low == entry.lower <= high
            # Every pmf in the generating envelope dominates the assessment
            # and brackets the engine's interval.
            for p in pmfs:
                assert low <= p.conditional(entry.gamble, entry.event) <= high


def highs_lower(optimize, generators, f, event):
    """sup{mu : [f - mu] * I_B in the cone} by HiGHS on the gamble-side LP:
    maximize mu over lambda >= 0 and free mu subject to
    sum_i lambda_i g_i(x) + I_B(x) mu <= I_B(x) f(x) at every outcome."""
    members = [x in event.members for x in f.space.outcomes]
    rows = [[float(g.values[k]) for g in generators] + [1.0 if b else 0.0] for k, b in enumerate(members)]
    rhs = [float(v) if b else 0.0 for v, b in zip(f.values, members)]
    cost = [0.0] * len(generators) + [-1.0]
    bounds = [(0, None)] * len(generators) + [(None, None)]
    result = optimize.linprog(cost, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs")
    assert result.status == 0, result.message
    return -result.fun


class TestIndependentNaturalExtensionAgainstHighs:
    """6x6, 7x7 and 8x8 joints of 3-entry marginals, and 6x6 joints of
    12-entry ones: the exact lower, upper and conditional values
    must match HiGHS on the LP over ``joint_cone.generators`` within 1e-6
    relative to max(1, |value|).  The joint rows the engine solves over
    are assembled from the marginal rows, so this also checks that path."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_queries_match_highs(self, n, seed):
        self.assert_queries_match_highs(random.Random(f"highs:{n}:{seed}"), n, 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_rich_marginals_match_highs(self, seed):
        """Marginals of 12 entries on general gambles take an INE query
        through 100-odd pivots, where tableau integers grow if rows are
        not reduced between pivots."""
        self.assert_queries_match_highs(random.Random(f"highs-rich:{seed}"), 6, 12)

    @pytest.mark.parametrize("n", [8, 10])
    def test_certified_values_match_highs(self, n, monkeypatch):
        """With the left family the atoms, a query whose marginal-extension
        certificate holds is answered from the marginals' vertices; those
        values must match HiGHS too, and some query here takes that path."""
        certified = []
        original = independence._marginal_extension

        def spy(*args):
            certified.append(original(*args))
            return certified[-1]

        monkeypatch.setattr(independence, "_marginal_extension", spy)
        for seed in range(3):
            self.assert_queries_match_highs(random.Random(f"highs-certified:{n}:{seed}"), n, 3)
        assert any(value is not None for value in certified)

    @pytest.mark.parametrize("n", [5, 7])
    def test_min_certified_values_match_highs(self, n, monkeypatch):
        """On indicator gambles a product of marginal credal vertices often
        puts all its event mass where f is least, and then the value is
        min_B f with no LP; those values must match HiGHS too, and some
        query here takes that path."""
        attained = []
        original = independence._min_attained

        def spy(*args):
            attained.append(original(*args))
            return attained[-1]

        monkeypatch.setattr(independence, "_min_attained", spy)
        for seed in range(4):
            rng = random.Random(f"highs-min:{n}:{seed}")
            self.assert_queries_match_highs(rng, n, 3, lambda space: indicator(random_nonempty_event(rng, space)))
        assert True in attained

    @staticmethod
    def assert_queries_match_highs(rng, n, n_entries, gamble=None):
        optimize = pytest.importorskip("scipy.optimize")
        x = Space("X", tuple(f"x{i}" for i in range(n)))
        y = Space("Y", tuple(f"y{i}" for i in range(n)))
        left, _ = random_envelope_model(rng, x, n_pmfs=3, n_entries=n_entries)
        right, _ = random_envelope_model(rng, y, n_pmfs=3, n_entries=n_entries)
        right_family = EventFamily.custom(y, [random_nonempty_event(rng, y) for _ in range(2)])
        ine = IndependentNaturalExtension(left, right, EventFamily.atoms(x), right_family)
        generators = ine.joint_cone.generators
        full = ine.space.full_event()
        f = random_gamble(rng, ine.space, span=3) if gamble is None else gamble(ine.space)
        event = ine.lift_event(random_nonempty_event(rng, rng.choice([x, y])))
        for exact, approx in (
            (ine.lower(f), highs_lower(optimize, generators, f, full)),
            (ine.upper(f), -highs_lower(optimize, generators, -f, full)),
            (ine.lower(f, event), highs_lower(optimize, generators, f, event)),
        ):
            assert abs(float(exact) - approx) <= 1e-6 * max(1.0, abs(float(exact)))


def highs_coherent(optimize, cone):
    """No convex combination of the generators is pointwise <= 0: HiGHS
    finds {lambda >= 0, sum lambda = 1, sum_i lambda_i g_i <= 0}
    infeasible."""
    m = len(cone.generators)
    if m == 0:
        return True
    rows = [[float(g.values[k]) for g in cone.generators] for k in range(cone.space.size)]
    result = optimize.linprog(
        [0.0] * m, A_ub=rows, b_ub=[0.0] * cone.space.size, A_eq=[[1.0] * m], b_eq=[1.0],
        bounds=[(0, None)] * m, method="highs",
    )
    assert result.status in (0, 2), result.message
    return result.status == 2


def random_coherence_cone(rng, kind):
    """A cone of 0-8 generators on 1-8 outcomes, values in [-2, 4] over 1 or
    2; ``kind`` adds a zero generator or an opposite pair, or takes one
    outcome."""
    size = 1 if kind == "one-outcome" else rng.randint(1, 8)
    space = Space("H", tuple(f"h{i}" for i in range(size)))

    def gamble():
        return Gamble(space, tuple(Fraction(rng.randint(-2, 4), rng.randint(1, 2)) for _ in range(size)))

    gens = [gamble() for _ in range(rng.randint(0, 8))]
    if kind == "zero":
        gens.insert(rng.randint(0, len(gens)), space.zero())
    elif kind == "opposite":
        g = gamble()
        gens[rng.randint(0, len(gens)):0] = [g, -g]
    return DesirableCone(space, tuple(gens))


class TestConeCoherenceAgainstHighs:
    """``is_coherent`` against HiGHS on the convex-combination form of the
    strict check, and every witness checked exactly: strictly positive,
    summing to one, and giving each generator a positive expectation."""

    KINDS = ("plain", "zero", "opposite", "one-outcome")

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("kind", KINDS)
    def test_verdict_and_witness(self, kind, seed):
        optimize = pytest.importorskip("scipy.optimize")
        cone = random_coherence_cone(random.Random(f"highs-coherent:{kind}:{seed}"), kind)
        coherent = cone.is_coherent()
        assert coherent == highs_coherent(optimize, cone)
        witness = cone.positive_pmf_witness()
        assert (witness is not None) == coherent
        if witness is not None:
            assert all(p > 0 for p in witness.masses) and sum(witness.masses) == 1
            assert all(witness.expectation(g) > 0 for g in cone.generators)

    def test_both_verdicts_occur(self):
        verdicts = {
            kind: {
                random_coherence_cone(random.Random(f"highs-coherent:{kind}:{seed}"), kind).is_coherent()
                for seed in range(30)
            }
            for kind in self.KINDS
        }
        assert verdicts == {"plain": {True, False}, "zero": {False}, "opposite": {False}, "one-outcome": {True, False}}

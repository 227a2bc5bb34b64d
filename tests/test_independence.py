"""Independent natural extension, epistemic independence, factorisation."""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desirables import cones, independence, simplex, spaces, suites
from desirables.cones import DesirableCone
from desirables.independence import (
    EventFamily,
    FamilyTooLargeError,
    IncoherentMarginalError,
    IndependentNaturalExtension,
    MarginalConeView,
    check_epistemic_independence,
    factorisation_closed_form,
    factored_sum,
    independent_product_cone,
    nested_evaluation,
    nested_sandwich,
)
from desirables.measurability import MAX_FIELD_ATOMS, MeasurabilityError
from desirables.prevision import (
    Assessment,
    AssessmentEntry,
    BeyondSupportError,
    ConditionalLowerPrevision,
    LinearPrevision,
    envelope_assessment,
    lower_prevision,
    upper_prevision,
)
from desirables.simplex import LinearProgram, scaled_row
from desirables.spaces import (
    Gamble,
    Space,
    SpaceMismatchError,
    cylinder_event,
    cylindrical_extension,
    indicator,
    product_space,
    rectangle_event,
)
from desirables.suites import (
    gap_instance_values,
    random_envelope_model,
    random_gamble,
    random_nonempty_event,
    random_space,
    random_strict_pmf,
    restricted_family_gap_instance,
)

from oracles import sympy_lower_prevision
from test_simplex import rich_ine_query

AB = Space("A", ("a", "b"))
UV = Space("U", ("u", "v"))


def every_subset(space):
    """The all-events family with every non-empty subset listed, so that
    nothing rides on the atoms."""
    return EventFamily.custom(space, EventFamily.all_nonempty(space).events())


def spanning_gambles(space):
    gambles = [indicator(atom) for atom in space.atoms()]
    gambles.append(space.constant(1))
    gambles.append(space.gamble([k + 1 for k in range(space.size)]))
    return gambles


class TestEventFamilies:
    def test_atoms_are_singletons(self):
        fam = EventFamily.atoms(AB)
        assert [sorted(e.members) for e in fam.events()] == [["a"], ["b"]]

    def test_all_nonempty_materialises_every_subset(self):
        fam = EventFamily.all_nonempty(AB)
        assert len(fam.events()) == 3

    def test_all_nonempty_generates_through_atoms(self):
        fam = EventFamily.all_nonempty(AB)
        assert [sorted(e.members) for e in fam.generator_events()] == [["a"], ["b"]]
        assert len(every_subset(AB).generator_events()) == 3

    def test_custom_taken_literally(self):
        fam = EventFamily.custom(AB, (AB.event(["a"]),))
        assert [sorted(e.members) for e in fam.events()] == [["a"]]

    def test_empty_family_allowed(self):
        assert EventFamily.empty(AB).events() == ()

    def test_empty_member_rejected(self):
        with pytest.raises(ValueError):
            EventFamily.custom(AB, (AB.event([]),))

    def test_masks_are_built_with_the_family_outside_its_fields(self):
        x = Space("M", ("a", "b", "c"))
        listed = [x.event(["b"]), x.event(["a", "b"]), x.event(["b"])]
        fam = EventFamily.custom(x, listed)
        assert fam.masks == ((0, 1, 0), (1, 1, 0), (1, 1, 1))
        atoms = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert EventFamily.atoms(x).masks == EventFamily.all_nonempty(x).masks == atoms
        assert EventFamily.empty(x).masks == ((1, 1, 1),)
        assert [f.name for f in dataclasses.fields(fam)] == ["space", "kind", "custom_events"]
        assert "masks" not in repr(fam)
        twin = EventFamily.custom(x, listed)
        object.__setattr__(twin, "masks", ())
        assert twin == fam and hash(twin) == hash(fam)


class TestProductCone:
    def test_vacuous_marginals_give_vacuous_joint(self):
        joint = independent_product_cone(DesirableCone.vacuous(AB), DesirableCone.vacuous(UV))
        assert joint.generators == ()
        assert joint.is_coherent()

    def test_generator_shape(self):
        g1, g2 = AB.gamble([-1, 2]), UV.gamble([1, -1])
        left = DesirableCone.from_generators(AB, [g1])
        right = DesirableCone.from_generators(UV, [g2])
        joint = independent_product_cone(left, right)
        prod = joint.space
        # one right generator x 2 left atoms + one left generator x 2 right
        # atoms; the full-event generators are the sums of the atom ones and
        # are left out
        assert len(joint.generators) == 4
        restored = joint.generators + (
            cylindrical_extension(g2, prod, "right"),
            cylindrical_extension(g1, prod, "left"),
        )
        full = DesirableCone.from_generators(prod, restored)
        rng = random.Random(3)
        for _ in range(6):
            f = random_gamble(rng, prod)
            assert lower_prevision(joint, f) == lower_prevision(full, f)

    def test_incoherent_marginal_rejected(self):
        bad = DesirableCone.from_generators(AB, [AB.gamble([-1, -1])])
        with pytest.raises(IncoherentMarginalError):
            independent_product_cone(bad, DesirableCone.vacuous(UV))

    def test_joint_membership_by_definition_unwinding(self):
        left = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        right = DesirableCone.vacuous(UV)
        joint = independent_product_cone(left, right)
        prod = joint.space
        lifted = cylindrical_extension(AB.gamble([-1, 2]), prod, "left")
        assert joint.contains(lifted)
        assert joint.contains(lifted * cylindrical_extension(indicator(UV.event(["u"])), prod, "right"))

    def test_marginal_view_reproduces_input_memberships(self):
        rng = random.Random(2)
        left = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        right = DesirableCone.from_generators(UV, [UV.gamble([2, -1])])
        joint = independent_product_cone(left, right)
        view_left = MarginalConeView(joint, "left")
        view_right = MarginalConeView(joint, "right")
        for _ in range(12):
            f = random_gamble(rng, AB)
            assert view_left.contains(f) == left.contains(f)
            g = random_gamble(rng, UV)
            assert view_right.contains(g) == right.contains(g)

    def test_view_satisfies_partial_gain_axiom(self):
        joint = independent_product_cone(DesirableCone.vacuous(AB), DesirableCone.vacuous(UV))
        assert MarginalConeView(joint, "left").contains(AB.gamble([1, 0]))

    def test_conditional_view_on_full_event_is_marginal(self):
        left = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        joint = independent_product_cone(left, DesirableCone.vacuous(UV))
        rng = random.Random(3)
        for _ in range(8):
            f = random_gamble(rng, AB)
            assert MarginalConeView(joint, "left", UV.full_event()).contains(f) == MarginalConeView(
                joint, "left"
            ).contains(f)

    def test_conditional_views_match_marginals_for_independent_joint(self):
        left = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        right = DesirableCone.from_generators(UV, [UV.gamble([2, -1])])
        joint = independent_product_cone(left, right)
        rng = random.Random(4)
        for b in (UV.event(["u"]), UV.event(["v"])):
            for _ in range(6):
                f = random_gamble(rng, AB)
                assert MarginalConeView(joint, "left", b).contains(f) == left.contains(f)

    def test_view_needs_a_product_space_joint(self):
        with pytest.raises(SpaceMismatchError):
            MarginalConeView(DesirableCone.vacuous(AB), "left")

    def test_conditioning_event_on_the_viewed_factor_rejected(self):
        joint = independent_product_cone(DesirableCone.vacuous(AB), DesirableCone.vacuous(UV))
        with pytest.raises(SpaceMismatchError):
            MarginalConeView(joint, "left", AB.event(["a"]))

    def test_correlated_joint_views_differ(self):
        # Desiring [I_a - 1/2] only when the second coordinate is u makes
        # that bet conditionally acceptable but not marginally.
        prod = product_space(AB, UV)
        gen = cylindrical_extension(AB.gamble(["1/2", "-1/2"]), prod, "left") * cylindrical_extension(
            indicator(UV.event(["u"])), prod, "right"
        )
        joint = DesirableCone.from_generators(prod, [gen])
        f = AB.gamble(["1/2", "-1/2"])
        assert MarginalConeView(joint, "left", UV.event(["u"])).contains(f)
        assert not MarginalConeView(joint, "left").contains(f)

    def test_factor_swap_is_a_relabelling(self):
        left = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        right = DesirableCone.from_generators(UV, [UV.gamble([2, -1])])
        forward = independent_product_cone(left, right)
        backward = independent_product_cone(right, left)
        rng = random.Random(5)
        for _ in range(10):
            f = random_gamble(rng, forward.space, span=3)
            swapped = Gamble(
                backward.space,
                tuple(
                    f(f"{a}|{u}")
                    for u in UV.outcomes
                    for a in AB.outcomes
                ),
            )
            assert forward.contains(f) == backward.contains(swapped)


class TestJointLowerPrevisions:
    def test_marginal_gamble_gets_local_value(self):
        rng = random.Random(6)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        ine = IndependentNaturalExtension(left, right)
        f = random_gamble(rng, AB)
        assert ine.lower(ine.lift(f)) == left.lower(f)

    def test_conditioning_on_other_factor_family_event_is_irrelevant(self):
        rng = random.Random(7)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        ine = IndependentNaturalExtension(left, right)
        f = random_gamble(rng, AB)
        for member in ("u", "v"):
            event = ine.lift_event(UV.event([member]))
            assert ine.lower(ine.lift(f), event) == left.lower(f)

    @staticmethod
    def self_product():
        p1 = LinearPrevision.from_masses(AB, ["1/4", "3/4"])
        p2 = LinearPrevision.from_masses(AB, ["1/2", "1/2"])
        return IndependentNaturalExtension(p1.as_lower_prevision(), p2.as_lower_prevision())

    def test_self_product_lift_is_refused(self):
        # Both factors are AB, so a gamble or event on AB has no single
        # factor to lift to; the error names the explicit-side lifts.
        ine = self.self_product()
        with pytest.raises(SpaceMismatchError, match="cylindrical_extension"):
            ine.lift(AB.gamble([1, 0]))
        with pytest.raises(SpaceMismatchError, match="cylinder_event"):
            ine.lift_event(AB.event(["a"]))
        f = ine.space.gamble([1, 0, 0, 0])
        assert ine.lift(f) is f

    def test_self_product_explicit_lift_keeps_each_marginal(self):
        ine = self.self_product()
        f = AB.gamble([1, 0])
        assert ine.lower(cylindrical_extension(f, ine.space, "left")) == Fraction(1, 4)
        assert ine.lower(cylindrical_extension(f, ine.space, "right")) == Fraction(1, 2)
        on_a = cylinder_event(AB.event(["a"]), ine.space, "left")
        assert ine.lower(cylindrical_extension(f, ine.space, "right"), on_a) == Fraction(1, 2)

    def test_incoherent_marginal_rejected(self):
        bad = ConditionalLowerPrevision.from_entries(
            AB, [(AB.gamble([1, 0]), None, "2/3"), (AB.gamble([0, 1]), None, "2/3")]
        )
        good, _ = random_envelope_model(random.Random(8), UV)
        with pytest.raises(IncoherentMarginalError):
            IndependentNaturalExtension(bad, good)

    def test_xor_of_linear_marginals(self):
        # Regression value confirmed by the independent sympy route below:
        # the joint constraint polytope of these two linear marginals is the
        # single product measure, so the XOR indicator gets 1/2 exactly.
        p1 = LinearPrevision.from_masses(AB, ["1/2", "1/2"])
        p2 = LinearPrevision.from_masses(UV, ["1/3", "2/3"])
        ine = IndependentNaturalExtension(p1.as_lower_prevision(), p2.as_lower_prevision())
        xor = ine.space.gamble({"a|u": 0, "a|v": 1, "b|u": 1, "b|v": 0})
        assert ine.lower(xor) == Fraction(1, 2)
        assert ine.upper(xor) == Fraction(1, 2)
        oracle = sympy_lower_prevision(
            ine.space, ine.joint_cone.generators, xor, ine.space.full_event()
        )
        assert oracle == Fraction(1, 2)


class TestEpistemicIndependenceCheck:
    def test_ine_joint_passes(self):
        rng = random.Random(10)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        fam1, fam2 = EventFamily.atoms(AB), EventFamily.atoms(UV)
        ine = IndependentNaturalExtension(left, right, fam1, fam2)
        samples = [
            ("left", random_gamble(rng, AB), None),
            ("left", random_gamble(rng, AB), AB.event(["a"])),
            ("right", random_gamble(rng, UV), None),
        ]
        report = check_epistemic_independence(ine, fam1, fam2, samples)
        assert report.all_equal

    def test_correlated_joint_fails(self):
        # A comonotone credal joint: all mass on the diagonal.
        prod = product_space(AB, UV)
        joint = ConditionalLowerPrevision.from_entries(
            prod,
            [
                (indicator(prod.event(["a|u"])), None, "1/2"),
                (indicator(prod.event(["b|v"])), None, "1/2"),
            ],
        )
        report = check_epistemic_independence(
            joint,
            EventFamily.atoms(AB),
            EventFamily.atoms(UV),
            [("left", AB.gamble([1, 0]), None)],
        )
        assert not report.all_equal
        # Conditioning on U = u reveals the first coordinate completely.
        bad = [c for c in report.violations() if sorted(c.other_event.members) == ["u"]]
        assert bad and bad[0].unconditional == Fraction(1, 2) and bad[0].conditioned == 1

    def test_joint_model_off_a_product_space_rejected(self):
        flat = Space("F", ("au", "av", "bu", "bv"))
        model = ConditionalLowerPrevision.from_entries(flat, [(flat.gamble([1, 0, 0, 0]), None, "1/4")])
        with pytest.raises(SpaceMismatchError):
            check_epistemic_independence(
                model, EventFamily.atoms(AB), EventFamily.atoms(UV), [("left", AB.gamble([1, 0]), None)]
            )

    def test_trivial_on_full_event(self):
        rng = random.Random(12)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        fam_full = EventFamily.custom(UV, (UV.full_event(),))
        ine = IndependentNaturalExtension(left, right, EventFamily.atoms(AB), fam_full)
        report = check_epistemic_independence(
            ine, EventFamily.atoms(AB), fam_full, [("left", random_gamble(rng, AB), None)]
        )
        assert report.all_equal


class TestFactorisation:
    def test_zero_inner_value_gives_zero(self):
        rng = random.Random(14)
        left, _ = random_envelope_model(rng, AB)
        right = LinearPrevision.from_masses(UV, ["1/2", "1/2"]).as_lower_prevision()
        h = UV.gamble([1, -1])  # expectation zero
        g = AB.gamble([1, 2])
        assert right.lower(h) == 0
        assert factorisation_closed_form(left, right, g, h) == 0

    def test_unit_g_returns_inner_value(self):
        rng = random.Random(15)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        h = random_gamble(rng, UV)
        assert factorisation_closed_form(left, right, AB.constant(1), h) == right.lower(h)

    def test_negative_branch_uses_upper(self):
        left = ConditionalLowerPrevision.from_entries(
            AB, [(AB.gamble([1, 0]), None, "1/4"), (AB.gamble([0, 1]), None, "1/4")]
        )
        right = ConditionalLowerPrevision.from_entries(
            UV, [(UV.gamble([1, -1]), None, "-1/2")]
        )
        g = AB.gamble([1, 0])
        h = UV.gamble([1, -1])
        assert left.lower(g) == Fraction(1, 4) and left.upper(g) == Fraction(3, 4)
        assert right.lower(h) == Fraction(-1, 2)
        assert factorisation_closed_form(left, right, g, h) == Fraction(-3, 8)

    def test_negative_g_rejected(self):
        rng = random.Random(16)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        with pytest.raises(ValueError):
            factorisation_closed_form(left, right, AB.gamble([-1, 0]), UV.gamble([1, 0]))

    def test_factored_sum_matches_joint_value(self):
        rng = random.Random(17)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        fam = EventFamily.atoms(AB)
        f = random_gamble(rng, AB)
        g = AB.gamble(["1/2", "2"])  # atom-measurable: every gamble is
        h = random_gamble(rng, UV)
        ine = IndependentNaturalExtension(left, right, fam, EventFamily.atoms(UV))
        lhs = ine.lower(ine.lift(f) + ine.lift(g) * ine.lift(h))
        assert lhs == factored_sum(left, right, fam, f, g, h)

    def test_factored_sum_rejects_non_measurable_g(self):
        rng = random.Random(18)
        x3 = Space("T", ("1", "2", "3"))
        left, _ = random_envelope_model(rng, x3)
        right, _ = random_envelope_model(rng, UV)
        fam = EventFamily.custom(x3, (x3.event(["1"]),))
        g = x3.gamble([1, 0, 1])
        with pytest.raises(MeasurabilityError) as err:
            factored_sum(left, right, fam, x3.zero(), g, UV.gamble([1, 0]))
        assert err.value.level == 1
        assert sorted(err.value.level_set.members) == ["1", "3"]

    def test_external_additivity_even_with_empty_families(self):
        rng = random.Random(19)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        ine = IndependentNaturalExtension(
            left, right, EventFamily.empty(AB), EventFamily.empty(UV)
        )
        f = random_gamble(rng, AB)
        h = random_gamble(rng, UV)
        assert ine.lower(ine.lift(f) + ine.lift(h)) == left.lower(f) + right.lower(h)


class TestRestrictedFamilyGap:
    def test_committed_instance(self):
        inst = restricted_family_gap_instance()
        custom_value, all_value = gap_instance_values()
        assert custom_value == inst.expected_custom_value == Fraction(1, 9)
        assert all_value == inst.expected_all_value == Fraction(2, 9)
        assert custom_value < all_value

    def test_oracle_recomputes_both_sides(self):
        inst = restricted_family_gap_instance()
        for families, expected in (
            ((inst.left_family, inst.right_family), inst.expected_custom_value),
            (
                (every_subset(inst.left.space), every_subset(inst.right.space)),
                inst.expected_all_value,
            ),
        ):
            ine = IndependentNaturalExtension(
                inst.left.as_lower_prevision(),
                inst.right.as_lower_prevision(),
                families[0],
                families[1],
            )
            target = ine.lift(inst.odd) * ine.lift(inst.even)
            oracle = sympy_lower_prevision(
                ine.space, ine.joint_cone.generators, target, ine.space.full_event()
            )
            assert oracle == expected == ine.lower(target)


class TestNestedSandwich:
    def test_marginal_gamble_collapses_the_sandwich(self):
        p1 = LinearPrevision.from_masses(AB, ["1/3", "2/3"])
        p2 = LinearPrevision.from_masses(UV, ["1/2", "1/2"])
        prod = product_space(AB, UV)
        f = cylindrical_extension(AB.gamble([3, -3]), prod, "left")
        report = nested_sandwich(p1, p2, f)
        expected = p1.expectation(AB.gamble([3, -3]))
        assert (
            report.lower_joint
            == report.nested_left_of_right
            == report.nested_right_of_left
            == report.upper_joint
            == expected
        )

    def test_factorising_gamble(self):
        p1 = LinearPrevision.from_masses(AB, ["1/4", "3/4"])
        p2 = LinearPrevision.from_masses(UV, ["2/3", "1/3"])
        prod = product_space(AB, UV)
        g = AB.gamble([1, 2])
        h = UV.gamble([3, -1])
        f = cylindrical_extension(g, prod, "left") * cylindrical_extension(h, prod, "right")
        report = nested_sandwich(p1, p2, f)
        middle = p1.expectation(g) * p2.expectation(h)
        assert report.nested_left_of_right == middle
        assert report.nested_right_of_left == middle
        assert report.holds

    @pytest.mark.parametrize("seed", range(8))
    def test_generic_joint_gambles(self, seed):
        rng = random.Random(2000 + seed)
        p1 = random_strict_pmf(rng, AB)
        p2 = random_strict_pmf(rng, UV)
        prod = product_space(AB, UV)
        f = random_gamble(rng, prod)
        report = nested_sandwich(p1, p2, f)
        assert report.holds

    def test_nested_evaluation_shape(self):
        p2 = LinearPrevision.from_masses(UV, ["1/2", "1/2"])
        prod = product_space(AB, UV)
        f = prod.gamble({"a|u": 4, "a|v": 0, "b|u": 1, "b|v": 3})
        inner = nested_evaluation(p2, f, prod, "right")
        assert inner.space == AB
        assert inner.values == (Fraction(2), Fraction(2))


class TestFamilyEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_atoms_equal_all_nonempty_values(self, seed):
        rng = random.Random(3000 + seed)
        left, _ = random_envelope_model(rng, AB)
        right, _ = random_envelope_model(rng, UV)
        ine_atoms = IndependentNaturalExtension(
            left, right, EventFamily.atoms(AB), EventFamily.atoms(UV)
        )
        ine_all = IndependentNaturalExtension(left, right, every_subset(AB), every_subset(UV))
        for _ in range(5):
            f = random_gamble(rng, ine_atoms.space, span=3)
            assert ine_atoms.lower(f) == ine_all.lower(f)


def sevenths_cone(rng, space, count):
    """A coherent cone of ``count`` generators with denominators up to 7:
    each is shifted by an integer so that the uniform pmf gives it a
    positive expectation."""
    gens = []
    for _ in range(count):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in space.outcomes]
        shift = 1 - math.floor(sum(values) / space.size)
        gens.append(space.gamble([v + shift for v in values]))
    return DesirableCone(space, tuple(gens))


def sevenths_model(rng, space, count):
    """A coherent assessment of ``count`` entries whose boundary gambles
    have denominators up to 7: lower envelopes of two pmfs in sevenths on
    integer gambles (every event has probability k/7 with k <= 7)."""
    pmfs = []
    for _ in range(2):
        cuts = sorted(rng.sample(range(1, 7), space.size - 1))
        pmfs.append(LinearPrevision.from_masses(space, [Fraction(b - a, 7) for a, b in zip([0, *cuts], [*cuts, 7])]))
    pairs = [(random_gamble(rng, space, span=4, max_den=1), random_nonempty_event(rng, space)) for _ in range(count)]
    return ConditionalLowerPrevision(envelope_assessment(space, pmfs, pairs))


#: Family setting name -> family for a factor space.  "all-audit" lists
#: every non-empty subset as a custom family.
FAMILY_SETTINGS = {
    "default": lambda rng, space: None,
    "atoms": lambda rng, space: EventFamily.atoms(space),
    "all": lambda rng, space: EventFamily.all_nonempty(space),
    "all-audit": lambda rng, space: every_subset(space),
    "custom": lambda rng, space: EventFamily.custom(space, [random_nonempty_event(rng, space) for _ in range(2)]),
    "empty": lambda rng, space: EventFamily.empty(space),
    "mixed": lambda rng, space: rng.choice(
        [None, EventFamily.atoms(space), EventFamily.all_nonempty(space), EventFamily.empty(space)]
    ),
}


def build_joint(route, rng, setting):
    """A joint cone from seeded marginals with 0-3 generators or entries,
    through ``independent_product_cone`` or ``IndependentNaturalExtension``."""
    family = FAMILY_SETTINGS[setting]
    spaces = random_space(rng, "L", 1, 3), random_space(rng, "R", 1, 3)
    families = [family(rng, space) for space in spaces]
    if route == "product":
        left, right = (sevenths_cone(rng, space, rng.randint(0, 3)) for space in spaces)
        return independent_product_cone(left, right, *families)
    left, right = (sevenths_model(rng, space, rng.randint(0, 3)) for space in spaces)
    return IndependentNaturalExtension(left, right, *families).joint_cone


class TestJointRows:
    """The joint cone's integer rows are assembled from the marginal cones'
    cached rows, never by converting joint entries, and equal the rows
    ``scaled_row`` would build from the joint generators."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("setting", sorted(FAMILY_SETTINGS))
    @pytest.mark.parametrize("route", ["product", "ine"])
    def test_rows_are_scaled_rows_of_the_generators(self, route, setting, seed):
        rng = random.Random(f"{route}:{setting}:{seed}")
        for _ in range(3):
            joint = build_joint(route, rng, setting)
            columns = list(zip(*(g.values for g in joint.generators))) or [()] * joint.space.size
            assert joint.scaled_rows == tuple(map(scaled_row, columns))
            assert joint == DesirableCone(joint.space, joint.generators)

    @pytest.mark.parametrize("route", ["product", "ine"])
    def test_queries_convert_no_joint_row(self, route, monkeypatch):
        rng = random.Random(4100)
        x, y = random_space(rng, "X", 3, 3), random_space(rng, "Y", 3, 3)
        if route == "product":
            left, right = sevenths_cone(rng, x, 3), sevenths_cone(rng, y, 2)
        else:
            left, right = random_envelope_model(rng, x)[0], random_envelope_model(rng, y)[0]
        # The marginal coherence checks build the marginal rows.
        assert left.is_coherent() and right.is_coherent()
        calls, assembled = [], []
        original = simplex.scaled_row
        monkeypatch.setattr(simplex, "scaled_row", lambda values: calls.append(values) or original(values))
        assemble = cones._outcome_rows
        monkeypatch.setattr(
            cones, "_outcome_rows", lambda space, gens: assembled.append(space) or assemble(space, gens)
        )
        families = EventFamily.atoms(x), EventFamily.custom(y, [y.event([y.outcomes[0]])])
        if route == "product":
            joint = independent_product_cone(left, right, *families)
        else:
            joint = IndependentNaturalExtension(left, right, *families).joint_cone
        f = random_gamble(rng, joint.space)
        event = cylinder_event(x.event(x.outcomes[1:]), joint.space, "left")
        lower_prevision(joint, f)
        upper_prevision(joint, f)
        lower_prevision(joint, f, event)
        # Only the marginal coherence LPs of independent_product_cone add rows here.
        assert not any(len(values) == len(joint.generators) for values in calls)
        assert joint.space not in assembled


def listed_generators(left, right, left_family, right_family):
    """The joint generators with one per listed family event, repeats
    included, and the full event appended to every custom family, whether
    or not it lists it: the joint cone is built without repeated
    columns."""

    def events(family, space):
        family = family or EventFamily.atoms(space)
        listed = list(family.generator_events())
        return listed + [space.full_event()] if family.kind == "custom" else listed

    prod = product_space(left.space, right.space)
    pairs = [(i, j) for i in range(left.space.size) for j in range(right.space.size)]  # left-major
    gens = []
    for g2 in right.generators:
        for b1 in events(left_family, left.space):
            on = [left.space.outcomes[i] in b1.members for i, _ in pairs]
            gens.append(Gamble(prod, tuple(g2.values[j] if o else Fraction(0) for o, (_, j) in zip(on, pairs))))
    for g1 in left.generators:
        for b2 in events(right_family, right.space):
            on = [right.space.outcomes[j] in b2.members for _, j in pairs]
            gens.append(Gamble(prod, tuple(g1.values[i] if o else Fraction(0) for o, (i, _) in zip(on, pairs))))
    return gens


class TestNoRepeatedGenerators:
    """A custom family's repeated events, and its full event when it lists
    it, give no second generator column."""

    X, Y = Space("X", ("a", "b")), Space("Y", ("c", "d"))

    @pytest.mark.parametrize(
        "events, count",
        [(None, 12), ([()], 12), ([("a",)], 16), ([("a",), ("a",)], 16), ([("a",), ("a", "b"), ("a",)], 16)],
        ids=["empty", "full-event", "one-event", "repeated-event", "repeated-and-full"],
    )
    def test_generator_counts(self, events, count):
        """With uniform 2-outcome marginals (4 generators a side) and atoms
        on the right: 4 per left event plus 4 per right atom."""
        x = self.X
        family = (
            EventFamily.empty(x)
            if events is None
            else EventFamily.custom(x, [x.full_event() if not e else x.event(e) for e in events])
        )
        left = LinearPrevision.uniform(x).as_lower_prevision()
        right = LinearPrevision.uniform(self.Y).as_lower_prevision()
        assert len(IndependentNaturalExtension(left, right, family).joint_cone.generators) == count

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("setting", sorted(FAMILY_SETTINGS))
    @pytest.mark.parametrize("route", ["product", "ine"])
    def test_same_cone_and_values_as_the_listed_generators(self, route, setting, seed):
        rng = random.Random(f"listed:{route}:{setting}:{seed}")
        family = FAMILY_SETTINGS[setting]
        spaces = random_space(rng, "L", 1, 3), random_space(rng, "R", 1, 3)
        families = [family(rng, space) for space in spaces]
        if route == "product":
            left, right = (sevenths_cone(rng, space, rng.randint(1, 3)) for space in spaces)
            joint = independent_product_cone(left, right, *families)
        else:
            left, right = (sevenths_model(rng, space, rng.randint(1, 3)) for space in spaces)
            joint = IndependentNaturalExtension(left, right, *families).joint_cone
            left, right = left.cone, right.cone
        listed = listed_generators(left, right, *families)
        assert set(joint.generators) == set(listed) and len(joint.generators) <= len(listed)
        reference = DesirableCone(joint.space, tuple(listed))
        for _ in range(3):
            f, event = random_gamble(rng, joint.space), random_nonempty_event(rng, joint.space)
            assert lower_prevision(joint, f, event) == lower_prevision(reference, f, event)

    def test_every_subset_gap_instance_side(self):
        inst = restricted_family_gap_instance()
        ine = IndependentNaturalExtension(
            inst.left.as_lower_prevision(),
            inst.right.as_lower_prevision(),
            every_subset(inst.left.space),
            every_subset(inst.right.space),
        )
        assert len(ine.joint_cone.generators) == 84
        assert gap_instance_values() == (Fraction(1, 9), Fraction(2, 9))

    def test_gap_instance_checks_each_marginal_once(self, monkeypatch):
        # Both extensions of the gap instance share the two marginals, so
        # their coherence is checked twice in all, not once per extension.
        checked = []
        original = ConditionalLowerPrevision._check_coherence

        def spy(model):
            checked.append(model)
            return original(model)

        monkeypatch.setattr(ConditionalLowerPrevision, "_check_coherence", spy)
        assert gap_instance_values() == (Fraction(1, 9), Fraction(2, 9))
        assert len(checked) == 2


def eager_joint_cone(left, right, left_family, right_family):
    """The INE joint cone built as construction once built it, from the
    materialised family ``Event``s, with its rows converted from the joint
    generators: the reference for ``IndependentNaturalExtension.joint_cone``."""

    def events(family, space):
        family = family or EventFamily.atoms(space)
        members = dict.fromkeys(e.members for e in family.generator_events())
        if family.kind == "custom":
            members[space.full_event().members] = None
        return list(members)

    prod = product_space(left.space, right.space)
    zero = Fraction(0)
    gens = []
    for g2 in right.generators:
        for b1 in events(left_family, left.space):
            values = (g2(y) if x in b1 else zero for x in left.space.outcomes for y in right.space.outcomes)
            gens.append(Gamble(prod, tuple(values)))
    for g1 in left.generators:
        for b2 in events(right_family, right.space):
            values = (g1(x) if y in b2 else zero for x in left.space.outcomes for y in right.space.outcomes)
            gens.append(Gamble(prod, tuple(values)))
    return DesirableCone(prod, tuple(gens))


def seeded_query(seed, setting):
    """INE arguments from two seeded sevenths models, 2-3 outcomes and 1-3
    entries a side, with a query gamble and a left-cylinder event."""
    rng = random.Random(f"lazy:{setting}:{seed}")
    spaces = random_space(rng, "L", 2, 3), random_space(rng, "R", 2, 3)
    families = [FAMILY_SETTINGS[setting](rng, space) for space in spaces]
    left, right = (sevenths_model(rng, space, rng.randint(1, 3)) for space in spaces)
    prod = product_space(*spaces)
    f = random_gamble(rng, prod)
    event = cylinder_event(random_nonempty_event(rng, spaces[0]), prod, "left")
    return (left, right, *families), f, event


class TestLazyJointCone:
    """Construction and the certified and master queries build no joint
    generator; ``joint_cone`` is built on first read, by a query that falls
    back on it or by any other reader, equal to the eagerly built cone, and
    kept."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("setting", sorted(FAMILY_SETTINGS))
    def test_queries_build_no_product_gamble(self, setting, seed, monkeypatch):
        """Only a fallback builds product ``Gamble``s: the joint cone's
        generators, once, for every fallback and every later read."""
        args, f, event = seeded_query(seed, setting)
        negated = -f
        built, fallbacks = [], []
        original = spaces._gamble

        def spy(space, den, nums):
            made = original(space, den, nums)
            if space == f.space:
                built.append(made)
            return made

        # Every Gamble, from any constructor or operator, is made by spaces._gamble.
        monkeypatch.setattr(spaces, "_gamble", spy)
        monkeypatch.setattr(
            independence, "lower_prevision", lambda cone, *rest: fallbacks.append(cone) or lower_prevision(cone, *rest)
        )
        ine = IndependentNaturalExtension(*args)
        ine.lower(f)
        ine.lower(f, event)
        ine.upper(f)  # upper(f) = -lower(-f) negates f
        if not fallbacks:
            assert built == [negated] and "joint_cone" not in vars(ine)
        joint = ine.joint_cone
        assert all(cone is joint for cone in fallbacks) and ine.joint_cone is joint
        assert Counter(built) == Counter([negated, *joint.generators])

    @pytest.mark.parametrize("setting", sorted(FAMILY_SETTINGS))
    def test_an_ine_on_a_live_product_builds_none(self, setting, monkeypatch):
        (left, right, *families), f, event = seeded_query(0, setting)
        built = []
        original = spaces.ProductSpace.__post_init__

        def spy(prod):
            built.append(prod)
            original(prod)

        monkeypatch.setattr(spaces.ProductSpace, "__post_init__", spy)
        ine = IndependentNaturalExtension(left, right, *families)
        assert ine.space is f.space is event.space
        ine.lower(f), ine.upper(f), ine.lower(f, event)
        assert built == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("setting", sorted(FAMILY_SETTINGS))
    def test_joint_cone_equals_the_eager_cone(self, setting, seed):
        (left, right, *families), f, event = seeded_query(seed, setting)
        ine = IndependentNaturalExtension(left, right, *families)
        values = ine.lower(f), ine.upper(f), ine.lower(f, event)
        reference = eager_joint_cone(left.cone, right.cone, *families)
        joint = ine.joint_cone
        assert joint.generators == reference.generators
        assert joint.scaled_rows == reference.scaled_rows
        assert ine.joint_cone is joint
        assert values == (
            lower_prevision(reference, f),
            upper_prevision(reference, f),
            lower_prevision(reference, f, event),
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("setting", sorted(FAMILY_SETTINGS))
    def test_queries_leave_every_row_unchanged(self, setting, seed):
        """The rows a query hands to ``LinearProgram`` are the cones' own
        tuples; pivots write only the solve's private tableau."""
        args, f, event = seeded_query(seed, setting)
        ine = IndependentNaturalExtension(*args)
        left, right = args[:2]

        def rows_of(cone):
            columns = list(zip(*(g.values for g in cone.generators))) or [()] * cone.space.size
            return tuple(map(scaled_row, columns))

        for _ in range(2):
            ine.lower(f), ine.upper(f), ine.lower(f, event)
            left.lower(left.space.zero() + 1), right.upper(right.space.zero() - 1)
            assert ine.joint_cone.scaled_rows == rows_of(ine.joint_cone)
            assert left.cone.scaled_rows == rows_of(left.cone)
            assert right.cone.scaled_rows == rows_of(right.cone)


class TestZeroBoundaryGamble:
    """An entry whose boundary gamble [f - v] * I_B is identically zero (f
    constant at v on B) adds the zero gamble to its marginal cone and so
    all-zero joint columns.  It must change no INE value."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("setting", ["default", "all", "custom", "empty"])
    def test_same_values_without_the_entry(self, setting, seed):
        rng = random.Random(f"zero:{setting}:{seed}")
        spaces = random_space(rng, "L", 2, 3), random_space(rng, "R", 2, 3)
        families = [FAMILY_SETTINGS[setting](rng, space) for space in spaces]
        left, right = (sevenths_model(rng, space, rng.randint(1, 3)) for space in spaces)
        x = left.space
        g = random_gamble(rng, x)
        k = rng.randrange(x.size)
        atom = x.event([x.outcomes[k]])
        # g is constant at g(x_k) on the atom {x_k}, so the boundary gamble is 0.
        zero_entry = AssessmentEntry(g, atom, g.values[k])
        padded = ConditionalLowerPrevision(Assessment(x, (*left.assessment.entries, zero_entry)))
        assert any(h.is_zero for h in padded.cone.generators)
        plain = IndependentNaturalExtension(left, right, *families)
        zeroed = IndependentNaturalExtension(padded, right, *families)
        assert any(h.is_zero for h in zeroed.joint_cone.generators)
        for _ in range(4):
            f = random_gamble(rng, plain.space)
            side = rng.choice(["left", "right"])
            event = cylinder_event(random_nonempty_event(rng, plain.space.factor(side)), plain.space, side)
            assert zeroed.lower(f) == plain.lower(f)
            assert zeroed.upper(f) == plain.upper(f)
            assert zeroed.lower(f, event) == plain.lower(f, event)


def sparse_envelope_model(rng, space):
    """The lower envelope of 1-3 pmfs on 0-3 gambles.  The pmfs may share
    outcomes of mass zero, and then an entry gives the rest lower
    probability one, so events inside those outcomes are beyond support."""
    zeros = set(rng.sample(range(space.size), rng.randint(0, space.size - 1)))
    pmfs = []
    for _ in range(rng.randint(1, 3)):
        weights = [0 if k in zeros else rng.randint(1, 4) for k in range(space.size)]
        pmfs.append(LinearPrevision(space, tuple(Fraction(w, sum(weights)) for w in weights)))
    pairs = [(random_gamble(rng, space, span=3), None) for _ in range(rng.randint(0, 3))]
    if zeros:
        support = space.event(x for k, x in enumerate(space.outcomes) if k not in zeros)
        pairs.append((indicator(support), None))
    return ConditionalLowerPrevision(envelope_assessment(space, pmfs, pairs))


#: Families for the certified-path tests: the first three hold every atom.
PATH_FAMILIES = {
    "atoms": lambda rng, space: EventFamily.atoms(space),
    "all": lambda rng, space: EventFamily.all_nonempty(space),
    "every-atom": lambda rng, space: EventFamily.custom(space, [*space.atoms(), random_nonempty_event(rng, space)]),
    "custom": lambda rng, space: EventFamily.custom(space, [random_nonempty_event(rng, space) for _ in range(2)]),
    "empty": lambda rng, space: EventFamily.empty(space),
}

#: Query events for the certified-path tests; only the first two can be
#: outer cylinders when the left family holds every atom.
PATH_EVENTS = {
    "none": lambda rng, prod: None,
    "left-cylinder": lambda rng, prod: cylinder_event(random_nonempty_event(rng, prod.left), prod, "left"),
    "right-cylinder": lambda rng, prod: cylinder_event(random_nonempty_event(rng, prod.right), prod, "right"),
    "rectangle": lambda rng, prod: rectangle_event(
        random_nonempty_event(rng, prod.left), random_nonempty_event(rng, prod.right), prod
    ),
    "arbitrary": lambda rng, prod: random_nonempty_event(rng, prod),
}


def outcome(query):
    """A query's value, or the class of the error it raised."""
    try:
        return query()
    except BeyondSupportError as exc:
        return type(exc)


def joint_lp(ine, f, event):
    """The joint LP's lower prevision of f given the event: the query on
    ``joint_cone`` with the vertex gate closed, so that it solves the LP
    however small the joint cone is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cones, "VERTEX_CAP", 0)
        return lower_prevision(ine.joint_cone, f, event)


@pytest.fixture
def certified(monkeypatch):
    """What ``_marginal_extension`` returns, one entry per call: the
    certified value, or None when it certifies nothing."""
    values = []
    original = independence._marginal_extension

    def spy(*args):
        values.append(original(*args))
        return values[-1]

    monkeypatch.setattr(independence, "_marginal_extension", spy)
    return values


@pytest.fixture
def attained(monkeypatch):
    """What ``_min_attained`` returns, one entry per call."""
    results = []
    original = independence._min_attained

    def spy(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(independence, "_min_attained", spy)
    return results


@pytest.fixture
def solves(monkeypatch):
    """Every ``LinearProgram`` solved."""
    programs = []
    original = LinearProgram.solve

    def spy(self, *args, **kwargs):
        programs.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LinearProgram, "solve", spy)
    return programs


#: Gambles for the certified-path tests: 0/1 gambles tie their minima
#: often, so tied minimisers and attained minima are drawn.
PATH_GAMBLES = {
    "span": lambda rng, prod: random_gamble(rng, prod, span=4),
    "zero-one": lambda rng, prod: prod.gamble([rng.randint(0, 1) for _ in prod.outcomes]),
}


def path_query(seed, left_kind, right_kind, event_kind, gamble_kind, size=4):
    """The families, an INE of two sparse envelope models on 1 to ``size``
    outcomes a side, a gamble and an event (None for an unconditional
    query), drawn from the seed and the named generators."""
    rng = random.Random(seed)
    spaces = random_space(rng, "L", 1, size), random_space(rng, "R", 1, size)
    left, right = (sparse_envelope_model(rng, space) for space in spaces)
    families = PATH_FAMILIES[left_kind](rng, spaces[0]), PATH_FAMILIES[right_kind](rng, spaces[1])
    ine = IndependentNaturalExtension(left, right, *families)
    return families, ine, PATH_GAMBLES[gamble_kind](rng, ine.space), PATH_EVENTS[event_kind](rng, ine.space)


def _routes_cover(prod, families, event):
    """Whether a side whose family holds every atom makes the event its
    cylinder.  The full factor event always counts as a family member, as
    it does for the joint generators."""
    for side, family in zip(("left", "right"), families):
        factor = prod.factor(side)
        members = {e.members for e in family.generator_events()} | {factor.full_event().members}
        cylinders = [cylinder_event(factor.event([x]), prod, side) for x in factor.outcomes]
        if all(frozenset([x]) in members for x in factor.outcomes) and all(
            c.intersect(event).members in (frozenset(), c.members) for c in cylinders
        ):
            return True
    return False


class TestMarginalExtensionPath:
    """``IndependentNaturalExtension.lower`` answers from the marginals'
    credal vertices by one certificate chosen by the event's shape: on a
    route's cylinder, a product of tied minimisers that certifies the
    marginal-extension bound; on any other event, a product of vertices
    that attains min_B f.  Otherwise the master LP (``TestMasterLP``) or
    the joint LP answers; every value and error equals the joint LP's."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        left_kind=st.sampled_from(sorted(PATH_FAMILIES)),
        right_kind=st.sampled_from(sorted(PATH_FAMILIES)),
        event_kind=st.sampled_from(sorted(PATH_EVENTS)),
        gamble_kind=st.sampled_from(sorted(PATH_GAMBLES)),
    )
    def test_values_and_errors_equal_the_joint_lp(self, seed, left_kind, right_kind, event_kind, gamble_kind):
        families, ine, f, event = path_query(seed, left_kind, right_kind, event_kind, gamble_kind)
        tested = []
        original = independence._min_attained

        def spy(*args):
            tested.append(args[2])
            return original(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(independence, "_min_attained", spy)
            assert outcome(lambda: ine.lower(f, event)) == outcome(lambda: joint_lp(ine, f, event))
            assert outcome(lambda: ine.upper(f, event)) == outcome(lambda: -joint_lp(ine, -f, event))
        # A route's cylinder is decided by the marginal extension alone.
        assert not any(_routes_cover(ine.space, families, tested_event) for tested_event in tested)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_certified_query_solves_no_lp_and_builds_no_joint_rows(self, seed, monkeypatch, certified):
        """Linear marginals with the left atoms family always certify: the
        value is the product pmf's expectation."""
        rng = random.Random(f"certified:{seed}")
        x, y = random_space(rng, "L", 2, 5), random_space(rng, "R", 2, 5)
        p1, p2 = random_strict_pmf(rng, x), random_strict_pmf(rng, y)
        right_family = EventFamily.custom(y, [random_nonempty_event(rng, y) for _ in range(2)])
        ine = IndependentNaturalExtension(p1.as_lower_prevision(), p2.as_lower_prevision(), None, right_family)
        f = random_gamble(rng, ine.space)
        base = random_nonempty_event(rng, x)
        event = cylinder_event(base, ine.space, "left")
        solves = []
        original = LinearProgram.solve

        def spy(self, *args, **kwargs):
            solves.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LinearProgram, "solve", spy)
        values = ine.lower(f), ine.upper(f), ine.lower(f, event)
        assert solves == []
        assert "joint_cone" not in vars(ine)
        assert None not in certified and len(certified) == 3
        nested = nested_evaluation(p2, f, ine.space, "right")
        assert values[0] == values[1] == p1.expectation(nested)
        assert values[2] == p1(nested, base)
        joint = ine.joint_cone
        assert values == (lower_prevision(joint, f), -lower_prevision(joint, -f), lower_prevision(joint, f, event))

    def test_a_product_pmf_that_fails_one_column_certifies_nothing(self, certified):
        """Left X = {a, b} with P(a) >= 1/2 and the atoms family, right
        Y = {c, d} vacuous with the family {c}.  For f = (2, 1, 0, 1) the
        inner minimisers are the point masses on d (at a) and on c (at b),
        so H = (1, 0) and LB = 1/2 at p1 = (1/2, 1/2).  The column
        (I_a - 1/2) * I_{c} then has expectation -1/4 under the product pmf,
        and the joint value is 1, not LB."""
        x, y = Space("X", ("a", "b")), Space("Y", ("c", "d"))
        left = ConditionalLowerPrevision.from_entries(x, [(indicator(x.event(["a"])), None, Fraction(1, 2))])
        right = ConditionalLowerPrevision.from_entries(y, [])
        ine = IndependentNaturalExtension(left, right, EventFamily.atoms(x), EventFamily.custom(y, [y.event(["c"])]))
        f = ine.space.gamble([2, 1, 0, 1])
        assert ine.lower(f) == lower_prevision(ine.joint_cone, f) == 1
        assert certified == [None]
        # Without the column the same product pmf certifies LB.
        plain = IndependentNaturalExtension(left, right, EventFamily.atoms(x), EventFamily.empty(y))
        assert plain.lower(f) == lower_prevision(plain.joint_cone, f) == Fraction(1, 2)
        assert certified == [None, Fraction(1, 2)]

    def test_a_common_inner_vertex_certifies_where_the_first_minimisers_fail(self, monkeypatch, certified):
        """The instance above with f = (2, 1, 0, 0): at b every right vertex
        attains H(b) = 0, and the first, the point mass on c, fails the
        column (I_a - 1/2) * I_{c} as before.  The point mass on d is tied
        at both a and b, so the product pmf certifies LB = 1/2, which
        exceeds min f = 0, with no combination tried."""
        x, y = Space("X", ("a", "b")), Space("Y", ("c", "d"))
        left = ConditionalLowerPrevision.from_entries(x, [(indicator(x.event(["a"])), None, Fraction(1, 2))])
        right = ConditionalLowerPrevision.from_entries(y, [])
        ine = IndependentNaturalExtension(left, right, EventFamily.atoms(x), EventFamily.custom(y, [y.event(["c"])]))
        f = ine.space.gamble([2, 1, 0, 0])
        assert right.cone.credal_vertices == ((1, 0), (0, 1))
        monkeypatch.setattr(independence, "TIE_COMBINATIONS", 1)
        assert ine.lower(f) == lower_prevision(ine.joint_cone, f) == Fraction(1, 2)
        assert certified == [Fraction(1, 2)]

    def test_a_tied_inner_minimiser_certifies_where_the_first_fails(self, monkeypatch, certified):
        """Left P(a) >= 1/2 on {a, b} with the atoms family, right vacuous
        on {c, d, e} with the family {c, e}, and f = (2, 1, 1, 0, 1, 2).
        H(a) = 1 is attained at the point masses on d and e, H(b) = 0 only
        at the one on c, so no vertex is tied at both, and LB = 1/2 at
        p1 = (1/2, 1/2).  The first combination (d at a) fails the column
        (I_a - 1/2) * I_{c, e} and the second (e at a) passes it; with one
        combination allowed, the LP answers."""
        x, y = Space("X", ("a", "b")), Space("Y", ("c", "d", "e"))
        left = ConditionalLowerPrevision.from_entries(x, [(indicator(x.event(["a"])), None, Fraction(1, 2))])
        right = ConditionalLowerPrevision.from_entries(y, [])
        ine = IndependentNaturalExtension(
            left, right, EventFamily.atoms(x), EventFamily.custom(y, [y.event(["c", "e"])])
        )
        f = ine.space.gamble([2, 1, 1, 0, 1, 2])
        assert ine.lower(f) == lower_prevision(ine.joint_cone, f) == Fraction(1, 2)
        assert certified == [Fraction(1, 2)]
        monkeypatch.setattr(independence, "TIE_COMBINATIONS", 1)
        assert ine.lower(f) == Fraction(1, 2)
        assert certified == [Fraction(1, 2), None]

    def test_a_route_cylinder_is_decided_by_the_marginal_extension_alone(self, attained, certified, solves):
        """Left P(a) >= 1/3 on {a, b} with the atoms family, right vacuous
        on {u, v} with the family {u}, and f = (1, 0, 0, 2) on the cylinder
        {b} x Y.  The tied minimisers are the point masses on v at a and on
        u at b, and with p1 = (1/3, 2/3) they fail the column
        (I_a - 1/3) * I_{u}; the point mass on u, tied at b, the one
        outcome of A where p1 has mass, certifies 0.  A vertex product
        would certify that minimum too, but it is never tried on a
        route's cylinder."""
        x, y = Space("X", ("a", "b")), Space("Y", ("u", "v"))
        left = ConditionalLowerPrevision.from_entries(x, [(indicator(x.event(["a"])), None, Fraction(1, 3))])
        right = ConditionalLowerPrevision.from_entries(y, [])
        ine = IndependentNaturalExtension(left, right, EventFamily.atoms(x), EventFamily.custom(y, [y.event(["u"])]))
        f = ine.space.gamble([1, 0, 0, 2])
        event = cylinder_event(x.event(["b"]), ine.space, "left")
        assert ine.lower(f, event) == 0
        assert certified == [0] and attained == [] and solves == []
        assert "joint_cone" not in vars(ine)
        assert lower_prevision(ine.joint_cone, f, event) == 0

    def test_a_vertex_product_certifies_a_non_cylinder_minimum(self, attained, solves):
        """Left P(a) >= 1/2 on {a, b}, right vacuous on {c, d}, both
        families empty, so no marginal-extension route applies.  On the
        diagonal event {(a, c), (b, d)} f is least at (a, c), and the
        product of the point masses on a and on c puts all its mass there,
        so the value is min_B f = 0 with no LP."""
        x, y = Space("X", ("a", "b")), Space("Y", ("c", "d"))
        left = ConditionalLowerPrevision.from_entries(x, [(indicator(x.event(["a"])), None, Fraction(1, 2))])
        right = ConditionalLowerPrevision.from_entries(y, [])
        ine = IndependentNaturalExtension(left, right, EventFamily.empty(x), EventFamily.empty(y))
        f = ine.space.gamble([0, 5, 3, 1])
        diagonal = ine.space.event(["a|c", "b|d"])
        assert ine.lower(f, diagonal) == 0
        assert attained == [True] and solves == []
        assert "joint_cone" not in vars(ine)
        assert lower_prevision(ine.joint_cone, f, diagonal) == 0

    def test_a_product_with_mass_above_the_minimum_certifies_nothing(self, attained, solves):
        """A linear left marginal (1/2, 1/2), a vacuous right one and empty
        families.  Every vertex product spreads half its mass over each
        left outcome, and f = (0, 1, 1, 1) is 1 on all of row b, so no
        product puts its mass where f is 0: the LP answers 1/2."""
        x, y = Space("X", ("a", "b")), Space("Y", ("c", "d"))
        left = LinearPrevision.from_masses(x, [Fraction(1, 2), Fraction(1, 2)]).as_lower_prevision()
        right = ConditionalLowerPrevision.from_entries(y, [])
        ine = IndependentNaturalExtension(left, right, EventFamily.empty(x), EventFamily.empty(y))
        f = ine.space.gamble([0, 1, 1, 1])
        value = ine.lower(f)
        assert attained == [False] and "joint_cone" in vars(ine)  # the fallback read it
        assert value == lower_prevision(ine.joint_cone, f) == Fraction(1, 2)

    def test_a_fallback_within_the_vertex_gate_solves_no_lp(self, attained, solves):
        """Left P(a), P(b) >= 1/3, right P(c), P(d) >= 1/4, both families
        empty, so there is no route and no master.  Every marginal vertex
        has full support, so no vertex product certifies min f, and the
        query falls back on the 2x2 joint cone.  Its 4 generators put it
        within the vertex gate, so it answers from its own credal vertices
        with no LP, and the value is the joint LP's: 1/3, all the mass it
        can on (a, c) and 1/3 on (b, d)."""
        x, y = Space("X", ("a", "b")), Space("Y", ("c", "d"))
        left, right = (
            ConditionalLowerPrevision.from_entries(space, [(indicator(atom), None, bound) for atom in space.atoms()])
            for space, bound in ((x, Fraction(1, 3)), (y, Fraction(1, 4)))
        )
        ine = IndependentNaturalExtension(left, right, EventFamily.empty(x), EventFamily.empty(y))
        f = ine.space.gamble([0, 3, 2, 1])
        solves.clear()  # the marginals' coherence checks
        value = ine.lower(f)
        assert attained == [False] and solves == []
        assert ine.joint_cone.vertex_bound <= cones.VERTEX_CAP
        assert value == joint_lp(ine, f, None) == Fraction(1, 3) and solves != []

    def test_a_marginal_past_the_vertex_bound_still_certifies(self, attained, solves):
        """A linear left marginal on 5 outcomes has one credal vertex, but
        its 10 generators give a ``vertex_bound`` of 90, past
        ``cones.VERTEX_CAP``.  With a vacuous right marginal and empty
        families there is no route, and f is 0 on column c and 1 on
        column d.  The product of the uniform pmf and the point mass on c
        puts all its mass where f is 0, so the value is 0 with no LP: the
        capped enumeration, not the bound, decides whether vertices are
        read."""
        x, y = Space("X", tuple("abcde")), Space("Y", ("c", "d"))
        left = LinearPrevision.uniform(x).as_lower_prevision()
        right = ConditionalLowerPrevision.from_entries(y, [])
        assert left.cone.vertex_bound > cones.VERTEX_CAP
        ine = IndependentNaturalExtension(left, right, EventFamily.empty(x), EventFamily.empty(y))
        solves.clear()  # the marginals' coherence checks
        f = ine.space.gamble([0, 1] * x.size)
        assert ine.lower(f) == 0
        assert attained == [True] and solves == []
        assert lower_prevision(ine.joint_cone, f) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_without_vertices_every_query_takes_the_lp(self, seed, monkeypatch, certified):
        """With the vertex cap at 1 no marginal on two or more outcomes has
        vertices, and the values are still the joint LP's."""
        monkeypatch.setattr(cones, "VERTEX_CAP", 1)
        rng = random.Random(f"capped:{seed}")
        spaces = random_space(rng, "L", 2, 3), random_space(rng, "R", 2, 3)
        left, right = (sparse_envelope_model(rng, space) for space in spaces)
        ine = IndependentNaturalExtension(left, right, EventFamily.atoms(spaces[0]), EventFamily.atoms(spaces[1]))
        f = random_gamble(rng, ine.space)
        event = cylinder_event(random_nonempty_event(rng, spaces[1]), ine.space, "right")
        assert outcome(lambda: ine.lower(f)) == outcome(lambda: lower_prevision(ine.joint_cone, f))
        assert outcome(lambda: ine.upper(f, event)) == outcome(lambda: -lower_prevision(ine.joint_cone, -f, event))
        assert set(certified) == {None}
        assert left.cone.credal_vertices is None and right.cone.credal_vertices is None

    def test_errors_before_the_path_are_unchanged(self):
        ine = IndependentNaturalExtension(sevenths_model(random.Random(1), AB, 2), sevenths_model(random.Random(2), UV, 2))
        with pytest.raises(SpaceMismatchError):
            ine.lower(AB.zero())
        with pytest.raises(SpaceMismatchError):
            ine.lower(ine.space.zero(), AB.full_event())
        with pytest.raises(spaces.EmptyEventError):
            ine.upper(ine.space.zero(), ine.space.event([]))


@pytest.fixture
def mastered(monkeypatch):
    """What ``_master_lower`` returns, one entry per call: the value, or
    None when the joint LP is left to answer."""
    values = []
    original = independence._master_lower

    def spy(*args):
        values.append(original(*args))
        return values[-1]

    monkeypatch.setattr(independence, "_master_lower", spy)
    return values


def _without_certificates(patch):
    patch.setattr(independence, "_marginal_extension", lambda *args: None)
    patch.setattr(independence, "_min_attained", lambda *args: False)


class TestMasterLP:
    """A query that its vertex certificate does not settle, on an INE with
    a route whose inner cone is within the vertex gate, is answered by the
    vertex-priced master LP; the joint LP answers only when the master
    gives up.  Every value and error equals the joint LP's."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        left_kind=st.sampled_from(sorted(PATH_FAMILIES)),
        right_kind=st.sampled_from(sorted(PATH_FAMILIES)),
        event_kind=st.sampled_from(sorted(PATH_EVENTS)),
        gamble_kind=st.sampled_from(sorted(PATH_GAMBLES)),
    )
    def test_values_and_errors_equal_the_joint_lp(self, seed, left_kind, right_kind, event_kind, gamble_kind):
        _, ine, f, event = path_query(seed, left_kind, right_kind, event_kind, gamble_kind, size=5)
        with pytest.MonkeyPatch.context() as patch:
            _without_certificates(patch)
            assert outcome(lambda: ine.lower(f, event)) == outcome(lambda: joint_lp(ine, f, event))
            assert outcome(lambda: ine.upper(f, event)) == outcome(lambda: -joint_lp(ine, -f, event))

    def test_the_master_answers_most_queries(self, monkeypatch, mastered):
        """Over 300 drawn queries with both certificates off, the master
        answers most of the queries it is given; the rest fall back."""
        _without_certificates(monkeypatch)
        rng = random.Random("master-share")
        for seed in range(300):
            kinds = [rng.choice(sorted(table)) for table in (PATH_FAMILIES, PATH_FAMILIES, PATH_EVENTS, PATH_GAMBLES)]
            _, ine, f, event = path_query(seed, *kinds, size=5)
            assert outcome(lambda: ine.lower(f, event)) == outcome(lambda: lower_prevision(ine.joint_cone, f, event))
        answered = sum(v is not None for v in mastered)
        assert len(mastered) > 100 and answered > 3 * len(mastered) // 4

    def test_a_beyond_support_event_falls_back_to_the_joint_lp(self, mastered, solves):
        """The right marginal gives c lower probability one, so its one
        vertex is the point mass on c.  No vertex reaches a section of
        X x {d}, so the master gives up and the joint cone raises; it is
        within the vertex gate, so it solves no LP."""
        x, y = Space("X", ("a", "b")), Space("Y", ("c", "d"))
        left = ConditionalLowerPrevision.from_entries(x, [(indicator(x.event(["a"])), None, Fraction(1, 3))])
        right = ConditionalLowerPrevision.from_entries(y, [(indicator(y.event(["c"])), None, Fraction(1))])
        ine = IndependentNaturalExtension(left, right, EventFamily.atoms(x), EventFamily.custom(y, [y.event(["c"])]))
        event = cylinder_event(y.event(["d"]), ine.space, "right")
        solves.clear()
        with pytest.raises(BeyondSupportError):
            ine.lower(ine.space.gamble([1, 2, 3, 4]), event)
        assert mastered == [None] and "joint_cone" in vars(ine) and solves == []

    def test_an_inner_cone_past_the_gate_takes_the_joint_lp(self, monkeypatch, mastered):
        ine, f = rich_ine_query(0)
        assert ine._marginals[1].vertex_bound > cones.VERTEX_CAP and ine._master is None
        joint = []
        monkeypatch.setattr(independence, "lower_prevision", lambda *args: joint.append(args) or lower_prevision(*args))
        value = ine.lower(f)
        assert mastered == [] and len(joint) == 1 and value == lower_prevision(ine.joint_cone, f)

    @pytest.mark.parametrize("seed", range(10))
    def test_a_vacuous_outer_marginal(self, seed, monkeypatch, mastered):
        """With no outer generator the master has the nu column alone."""
        _without_certificates(monkeypatch)
        rng = random.Random(f"vacuous-outer:{seed}")
        x, y = random_space(rng, "L", 2, 4), random_space(rng, "R", 2, 4)
        left = ConditionalLowerPrevision.from_entries(x, [])
        right = sevenths_model(rng, y, 2)
        ine = IndependentNaturalExtension(left, right, EventFamily.atoms(x), EventFamily.custom(y, [random_nonempty_event(rng, y)]))
        f = random_gamble(rng, ine.space)
        event = random_nonempty_event(rng, ine.space)
        assert ine.lower(f) == lower_prevision(ine.joint_cone, f)
        assert ine.upper(f, event) == -lower_prevision(ine.joint_cone, -f, event)
        assert len(mastered) == 2 and None not in mastered

    @pytest.mark.parametrize("seed", range(10))
    def test_the_right_side_as_the_outer_one(self, seed, monkeypatch, mastered):
        """Only the right family holds every atom, so the right side is the
        outer one and its outcomes' sections are strides of the product's
        outcome indices."""
        _without_certificates(monkeypatch)
        rng = random.Random(f"right-outer:{seed}")
        x, y = random_space(rng, "L", 2, 4), random_space(rng, "R", 2, 4)
        left, right = sevenths_model(rng, x, 2), sevenths_model(rng, y, 2)
        ine = IndependentNaturalExtension(left, right, EventFamily.custom(x, [random_nonempty_event(rng, x)]), None)
        assert ine._master[0] is right.cone and ine._master[3] == ine.space.sections("right")
        f = random_gamble(rng, ine.space)
        event = random_nonempty_event(rng, ine.space)
        assert ine.lower(f) == lower_prevision(ine.joint_cone, f)
        assert ine.lower(f, event) == lower_prevision(ine.joint_cone, f, event)
        assert len(mastered) == 2 and None not in mastered

    def test_no_row_is_added_twice(self, monkeypatch, mastered):
        """The start rows hold at most one row per outer outcome besides the
        first vertex's, each later round adds at most one row per outer
        outcome, and none of those is already in the master: a row of the
        master holds at its optimum, so it is never the violated one."""
        _without_certificates(monkeypatch)
        rounds = []
        original = LinearProgram.solve

        def spy(self, *args, **kwargs):
            rounds.append(list(self.rows))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LinearProgram, "solve", spy)
        grown = 0
        for seed in range(60):
            rng = random.Random(f"master-rows:{seed}")
            x, y = random_space(rng, "L", 3, 5), random_space(rng, "R", 3, 5)
            left, right = sevenths_model(rng, x, 3), sevenths_model(rng, y, 3)
            family = EventFamily.custom(y, [random_nonempty_event(rng, y) for _ in range(2)])
            ine = IndependentNaturalExtension(left, right, None, family)
            f = random_gamble(rng, ine.space, span=3)
            n1, vertices = len(x.outcomes), ine._master[1]
            for query in (ine.lower, ine.upper):
                rounds.clear()
                query(f)
                assert len(rounds[0]) <= 2 * n1
                for before, after in zip(rounds, rounds[1:]):
                    new = after[len(before) :]
                    assert after[: len(before)] == before and 0 < len(new) <= n1
                    assert not set(map(repr, new)) & set(map(repr, before))
                    grown += 1
                assert len(rounds[-1]) <= n1 * len(vertices)
        assert len(mastered) == 120 and None not in mastered and grown > 10


class TestAllEventsSizeGuard:
    def test_seventeen_outcomes_are_refused(self):
        big = Space("B", tuple(f"b{i}" for i in range(MAX_FIELD_ATOMS + 1)))
        with pytest.raises(FamilyTooLargeError, match=str(MAX_FIELD_ATOMS)):
            EventFamily.all_nonempty(big).events()
        assert issubclass(FamilyTooLargeError, ValueError)
        # Construction and the generator events ride on the atoms.
        assert len(EventFamily.all_nonempty(big).generator_events()) == big.size


def test_the_suite_counterexample_lists_members_in_outcome_order(monkeypatch):
    """A failed extra-conditioning check names the conditioning event's
    members in outcome order, as the CLI prints events, not as sorted
    strings ("x10" before "x2")."""

    class Shifted(IndependentNaturalExtension):
        def lower(self, f, event=None):
            value = super().lower(f, event)
            return value if event is None else value + 1

    monkeypatch.setattr(suites, "random_space", lambda rng, name, *sizes: Space(name, ("x2", "x10")))
    monkeypatch.setattr(suites, "random_family", lambda rng, space: EventFamily.custom(space, [space.full_event()]))
    monkeypatch.setattr(suites, "IndependentNaturalExtension", Shifted)
    outcomes = {o.name: o for o in suites.run_suite("independence", seed=0, trials=1).outcomes}
    assert outcomes["independence-extra-conditioning"].counterexample == (
        "trial 0: conditioning on ['x2', 'x10'] changed a local value"
    )

"""Seeded property suites: executable versions of the model-level theorems.

Every suite is deterministic given its seed; trials are generated with a
private ``random.Random`` and evaluated in trial order, so two runs with
identical arguments produce identical reports.  Random coherent models are
lower envelopes of strictly positive mass functions, which are coherent by
construction and keep every conditioning event representable.

Suites: ``axioms`` (the eight standard coherence properties plus the
natural-extension fixed point), ``independence`` (marginal preservation,
family monotonicity, strong-product domination), ``factorisation``
(factored sums, external additivity, the committed restricted-family gap
instance), ``envelope`` (attainment and intermediate values over the
dominating set), and ``measurability`` (simple-cone reconstruction,
staircase error bounds, the generated-field criterion).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .independence import (
    EventFamily,
    IndependentNaturalExtension,
    factorisation_closed_form,
    factored_sum,
    nested_evaluation,
)
from .measurability import (
    SimpleGambleCone,
    family_is_field,
    generated_field,
    is_measurable,
    level_set_approximation,
    measurable_by_field_criterion,
    non_measurability_witness,
)
from .prevision import (
    AxiomSample,
    ConditionalLowerPrevision,
    LinearPrevision,
    check_axioms,
    envelope_assessment,
)
from .spaces import Event, Gamble, Space, indicator


# ---------------------------------------------------------------------------
# Random generation (seeded, exact)
# ---------------------------------------------------------------------------


def random_space(rng: random.Random, name: str, min_size: int = 2, max_size: int = 4) -> Space:
    size = rng.randint(min_size, max_size)
    return Space(name, tuple(f"{name}{i}" for i in range(1, size + 1)))


def random_fraction(rng: random.Random, span: int = 6, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_gamble(rng: random.Random, space: Space, span: int = 6, max_den: int = 3) -> Gamble:
    return Gamble(space, tuple(random_fraction(rng, span, max_den) for _ in space.outcomes))


def random_nonneg_gamble(rng: random.Random, space: Space) -> Gamble:
    return Gamble(
        space,
        tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in space.outcomes),
    )


def random_nonempty_event(rng: random.Random, space: Space) -> Event:
    members = [x for x in space.outcomes if rng.random() < 0.5]
    if not members:
        members = [rng.choice(space.outcomes)]
    return Event(space, frozenset(members))


def random_strict_pmf(rng: random.Random, space: Space) -> LinearPrevision:
    weights = [rng.randint(1, 6) for _ in space.outcomes]
    total = sum(weights)
    return LinearPrevision(space, tuple(Fraction(w, total) for w in weights))


def random_envelope_model(
    rng: random.Random,
    space: Space,
    n_pmfs: Optional[int] = None,
    n_entries: Optional[int] = None,
) -> tuple[ConditionalLowerPrevision, list[LinearPrevision]]:
    """A coherent assessment: the lower envelope of a few strictly positive
    pmfs on random (gamble, event) pairs."""
    n_pmfs = n_pmfs if n_pmfs is not None else rng.randint(2, 4)
    n_entries = n_entries if n_entries is not None else rng.randint(1, 3)
    pmfs = [random_strict_pmf(rng, space) for _ in range(n_pmfs)]
    pairs = []
    seen: set[tuple] = set()
    while len(pairs) < n_entries:
        f = random_gamble(rng, space)
        event = random_nonempty_event(rng, space) if rng.random() < 0.5 else space.full_event()
        key = (f, event.members)
        if key in seen:
            continue
        seen.add(key)
        pairs.append((f, event))
    assessment = envelope_assessment(space, pmfs, pairs)
    return ConditionalLowerPrevision(assessment), pmfs


def random_family(rng: random.Random, space: Space) -> EventFamily:
    roll = rng.random()
    if roll < 0.4:
        return EventFamily.atoms(space)
    if roll < 0.55:
        return EventFamily.empty(space)
    events = []
    seen: set[frozenset] = set()
    for _ in range(rng.randint(1, 3)):
        e = random_nonempty_event(rng, space)
        if e.members not in seen:
            seen.add(e.members)
            events.append(e)
    return EventFamily.custom(space, tuple(events))


def random_measurable_gamble(rng: random.Random, space: Space, family: EventFamily) -> Gamble:
    """c0 plus two non-negative multiples of family indicators: measurable
    by construction (constant when the family is empty)."""
    g = space.constant(Fraction(rng.randint(0, 3), rng.randint(1, 2)))
    events = family.events()
    if events:
        for _ in range(2):
            c = Fraction(rng.randint(0, 3), rng.randint(1, 2))
            g = g + indicator(rng.choice(events)) * c
    return g


def random_partition(rng: random.Random, space: Space) -> list[Event]:
    blocks: dict[int, list[str]] = {}
    n_blocks = rng.randint(1, space.size)
    for x in space.outcomes:
        blocks.setdefault(rng.randrange(n_blocks), []).append(x)
    return [Event(space, frozenset(members)) for members in blocks.values()]


# ---------------------------------------------------------------------------
# The committed restricted-family gap instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapInstance:
    """Uniform linear marginals on {1,2,3} with only the outcome "1"
    observable on each factor.  The "odd" indicator is not measurable for
    that family, and the joint lower prevision of odd(X1) * even(X2) drops
    strictly below the all-events value: the correlation hides in the
    outcomes the family cannot separate."""

    left: LinearPrevision
    right: LinearPrevision
    left_family: EventFamily
    right_family: EventFamily
    odd: Gamble
    even: Gamble
    expected_custom_value: Fraction
    expected_all_value: Fraction


def restricted_family_gap_instance() -> GapInstance:
    x1 = Space("G1", ("1", "2", "3"))
    x2 = Space("G2", ("1", "2", "3"))
    return GapInstance(
        left=LinearPrevision.uniform(x1),
        right=LinearPrevision.uniform(x2),
        left_family=EventFamily.custom(x1, (x1.event(["1"]),)),
        right_family=EventFamily.custom(x2, (x2.event(["1"]),)),
        odd=x1.gamble([1, 0, 1]),
        even=x2.gamble([0, 1, 0]),
        expected_custom_value=Fraction(1, 9),
        expected_all_value=Fraction(2, 9),
    )


def gap_instance_values() -> tuple[Fraction, Fraction]:
    """Recompute both sides of the committed gap instance.  The all-events
    side lists every non-empty subset as a custom family, so that it does
    not lean on the atom reduction of the ``all`` family.  Both sides share
    the two marginals, so each marginal's coherence is checked once."""
    inst = restricted_family_gap_instance()
    left, right = inst.left.as_lower_prevision(), inst.right.as_lower_prevision()
    ine_custom = IndependentNaturalExtension(left, right, inst.left_family, inst.right_family)
    joint_gamble = ine_custom.lift(inst.odd) * ine_custom.lift(inst.even)
    custom_value = ine_custom.lower(joint_gamble)
    ine_all = IndependentNaturalExtension(
        left,
        right,
        EventFamily.custom(inst.left.space, EventFamily.all_nonempty(inst.left.space).events()),
        EventFamily.custom(inst.right.space, EventFamily.all_nonempty(inst.right.space).events()),
    )
    all_value = ine_all.lower(ine_all.lift(inst.odd) * ine_all.lift(inst.even))
    return custom_value, all_value


# ---------------------------------------------------------------------------
# Suite infrastructure
# ---------------------------------------------------------------------------


@dataclass
class PropertyOutcome:
    name: str
    checks: int = 0
    failures: int = 0
    counterexample: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.checks > 0

    def record(self, ok: bool, detail: Callable[[], str]) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if not self.counterexample:
                self.counterexample = detail()


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    trials: int
    outcomes: tuple[PropertyOutcome, ...]

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


class _Recorder:
    def __init__(self) -> None:
        self._outcomes: dict[str, PropertyOutcome] = {}

    def check(self, name: str, ok: bool, detail: Callable[[], str] = lambda: "") -> None:
        self._outcomes.setdefault(name, PropertyOutcome(name)).record(ok, detail)

    def outcomes(self) -> tuple[PropertyOutcome, ...]:
        return tuple(self._outcomes.values())


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _axioms_suite(seed: int, trials: int) -> tuple[PropertyOutcome, ...]:
    rng = random.Random(seed)
    rec = _Recorder()
    for t in range(trials):
        space = random_space(rng, f"S{t}")
        model, _pmfs = random_envelope_model(rng, space)
        for k, entry in enumerate(model.assessment.entries):
            value = model.lower(entry.gamble, entry.event)
            rec.check(
                "natural-extension-fixed-point",
                value == entry.lower,
                lambda t=t, k=k, v=value, e=entry: (
                    f"trial {t} entry {k}: assessed {e.lower}, extension {v}"
                ),
            )
        sample = AxiomSample(
            f=random_gamble(rng, space),
            g=random_gamble(rng, space),
            event_a=random_nonempty_event(rng, space),
            event_b=random_nonempty_event(rng, space),
            scale=Fraction(rng.randint(0, 4), rng.randint(1, 3)),
            shift=random_fraction(rng),
        )
        report = check_axioms(model, [sample])
        for check in report.checks:
            rec.check(
                check.axiom,
                check.passed,
                lambda t=t, c=check: f"trial {t}: {c.description} ({c.detail})",
            )
    return rec.outcomes()


def _independence_suite(seed: int, trials: int) -> tuple[PropertyOutcome, ...]:
    rng = random.Random(seed)
    rec = _Recorder()
    for t in range(trials):
        left_space = random_space(rng, f"L{t}", 2, 3)
        right_space = random_space(rng, f"R{t}", 2, 3)
        left, left_pmfs = random_envelope_model(rng, left_space, n_entries=rng.randint(1, 2))
        right, right_pmfs = random_envelope_model(rng, right_space, n_entries=rng.randint(1, 2))
        fam_left = random_family(rng, left_space)
        fam_right = random_family(rng, right_space)
        ine = IndependentNaturalExtension(left, right, fam_left, fam_right)

        f_left = random_gamble(rng, left_space)
        local_event = random_nonempty_event(rng, left_space)
        lifted = ine.lift(f_left)
        rec.check(
            "marginal-preservation-unconditional",
            ine.lower(lifted) == left.lower(f_left),
            lambda t=t: f"trial {t}: joint and local unconditional values differ",
        )
        rec.check(
            "marginal-preservation-conditional",
            ine.lower(lifted, ine.lift_event(local_event)) == left.lower(f_left, local_event),
            lambda t=t: f"trial {t}: joint and local conditional values differ",
        )
        for b_other in fam_right.generator_events():
            joint_event = ine.lift_event(local_event).intersect(ine.lift_event(b_other))
            rec.check(
                "independence-extra-conditioning",
                ine.lower(lifted, joint_event) == left.lower(f_left, local_event),
                lambda t=t, b=b_other: (
                    f"trial {t}: conditioning on {b.sorted_members()} changed a local value"
                ),
            )

        # Nested families: empty subset-of one-atom subset-of all atoms.
        f_joint = random_gamble(rng, ine.space, span=3, max_den=2)
        one_atom_left = EventFamily.custom(left_space, (left_space.atoms()[0],))
        one_atom_right = EventFamily.custom(right_space, (right_space.atoms()[0],))
        chain_values = [
            IndependentNaturalExtension(left, right, fl, fr).lower(f_joint)
            for fl, fr in (
                (EventFamily.empty(left_space), EventFamily.empty(right_space)),
                (one_atom_left, one_atom_right),
                (EventFamily.atoms(left_space), EventFamily.atoms(right_space)),
            )
        ]
        rec.check(
            "family-monotonicity",
            chain_values[0] <= chain_values[1] <= chain_values[2],
            lambda t=t, v=tuple(chain_values): f"trial {t}: family chain values {v} not monotone",
        )
        v_strong = chain_values[2]

        # E_{q1 x q2}[f] = E_{q1}[x1 -> E_{q2}[f(x1, .)]].
        nested = [nested_evaluation(q2, f_joint, ine.space, "right") for q2 in right_pmfs]
        prod_pmf_values = [q1.expectation(g) for q1 in left_pmfs for g in nested]
        rec.check(
            "strong-product-domination",
            min(prod_pmf_values) >= v_strong,
            lambda t=t: f"trial {t}: a product pmf fell below the joint lower prevision",
        )
    return rec.outcomes()


def _factorisation_suite(seed: int, trials: int) -> tuple[PropertyOutcome, ...]:
    rng = random.Random(seed)
    rec = _Recorder()
    for t in range(trials):
        left_space = random_space(rng, f"L{t}", 2, 3)
        right_space = random_space(rng, f"R{t}", 2, 3)
        left, _ = random_envelope_model(rng, left_space, n_entries=rng.randint(1, 2))
        right, _ = random_envelope_model(rng, right_space, n_entries=rng.randint(1, 2))
        fam_left = random_family(rng, left_space)
        fam_right = random_family(rng, right_space)
        ine = IndependentNaturalExtension(left, right, fam_left, fam_right)

        f = random_gamble(rng, left_space, span=3)
        h = random_gamble(rng, right_space, span=3)
        rec.check(
            "external-additivity",
            ine.lower(ine.lift(f) + ine.lift(h)) == left.lower(f) + right.lower(h),
            lambda t=t: f"trial {t}: external additivity failed",
        )

        g = random_measurable_gamble(rng, left_space, fam_left)
        lhs = ine.lower(ine.lift(f) + ine.lift(g) * ine.lift(h))
        rhs = factored_sum(left, right, fam_left, f, g, h)
        rec.check(
            "factored-sum-measurable",
            lhs == rhs,
            lambda t=t, a=lhs, b=rhs: f"trial {t}: joint {a} != local evaluation {b}",
        )

        lhs = ine.lower(ine.lift(g) * ine.lift(h))
        rhs = factorisation_closed_form(left, right, g, h)
        rec.check(
            "factorisation-closed-form",
            lhs == rhs,
            lambda t=t, a=lhs, b=rhs: f"trial {t}: joint {a} != closed form {b}",
        )

    inst = restricted_family_gap_instance()
    custom_value, all_value = gap_instance_values()
    gap_ok = (
        custom_value == inst.expected_custom_value
        and all_value == inst.expected_all_value
        and custom_value < all_value
        and not is_measurable(inst.odd, inst.left_family)
    )
    rec.check(
        "expected-gap",
        gap_ok,
        lambda: f"gap instance recomputed to {custom_value} vs {all_value}",
    )
    return rec.outcomes()


def _envelope_suite(seed: int, trials: int) -> tuple[PropertyOutcome, ...]:
    rng = random.Random(seed)
    rec = _Recorder()
    for t in range(trials):
        space = random_space(rng, f"S{t}")
        model, _ = random_envelope_model(rng, space)
        f = random_gamble(rng, space)
        event = (
            random_nonempty_event(rng, space) if rng.random() < 0.5 else space.full_event()
        )
        lower = model.lower(f, event)
        upper = model.upper(f, event)
        argmin, argmax = model.dominating_previsions(f, event)
        rec.check(
            "envelope-dominating-witnesses",
            model.dominates(argmin) and model.dominates(argmax),
            lambda t=t: f"trial {t}: a witness pmf does not dominate the assessment",
        )
        rec.check(
            "envelope-attainment-lower",
            argmin.conditional(f, event) == lower,
            lambda t=t: f"trial {t}: argmin does not attain the lower value",
        )
        rec.check(
            "envelope-attainment-upper",
            argmax.conditional(f, event) == upper,
            lambda t=t: f"trial {t}: argmax does not attain the upper value",
        )

        alpha = (lower + upper) / 2
        if lower == upper:
            attained = alpha == lower
        else:
            a1 = argmin.expectation(f * indicator(event))
            a2 = argmin.probability(event)
            b1 = argmax.expectation(f * indicator(event))
            b2 = argmax.probability(event)
            denominator = (b1 - alpha * b2) - (a1 - alpha * a2)
            tmix = (b1 - alpha * b2) / denominator
            mix = LinearPrevision(
                space,
                tuple(
                    tmix * p + (1 - tmix) * q
                    for p, q in zip(argmin.masses, argmax.masses)
                ),
            )
            attained = (
                0 <= tmix <= 1
                and model.dominates(mix)
                and mix.conditional(f, event) == alpha
            )
        rec.check(
            "envelope-intermediate-value",
            attained,
            lambda t=t: f"trial {t}: midpoint value not attained by a mixture",
        )
    return rec.outcomes()


def _measurability_suite(seed: int, trials: int) -> tuple[PropertyOutcome, ...]:
    rng = random.Random(seed)
    rec = _Recorder()
    for t in range(trials):
        space = random_space(rng, f"S{t}", 2, 5)
        family = random_family(rng, space)

        g = random_measurable_gamble(rng, space, family)
        cone = SimpleGambleCone(space, family)
        coeffs = cone.coefficients(g)
        if coeffs is None:
            rec.check("simple-cone-reconstruction", False, lambda t=t: f"trial {t}: constructed gamble rejected")
        else:
            c0, per_event = coeffs
            rebuilt = space.constant(c0)
            for event, c in per_event:
                rebuilt = rebuilt + indicator(event) * c
            rec.check(
                "simple-cone-reconstruction",
                rebuilt == g,
                lambda t=t: f"trial {t}: certificate coefficients do not reproduce the gamble",
            )

        blocks = random_partition(rng, space)
        block_values = {b: Fraction(rng.randint(0, 5), rng.randint(1, 3)) for b in blocks}
        staircase = space.zero()
        for b, v in block_values.items():
            staircase = staircase + indicator(b) * v
        partition_family = EventFamily.custom(space, tuple(blocks))
        for n in (2, 4, 8, 16):
            approx = level_set_approximation(staircase, partition_family, n)
            ok = approx.succeeded and all(
                abs(a - b) <= approx.error_bound
                for a, b in zip(approx.approximant.values, staircase.values)
            )
            rec.check(
                "level-approximation-bound",
                ok,
                lambda t=t, n=n: f"trial {t}: staircase error bound failed at n={n}",
            )

        # The field is a frozenset of outcome-name sets, whose iteration
        # order follows the per-process string hash; sort it by outcome
        # index so that the draws below depend on the seed alone.
        field_members = sorted(
            (Event(space, members) for members in generated_field(partition_family) if members),
            key=lambda e: [k for k, inside in enumerate(e.mask) if inside],
        )
        field_family = EventFamily.custom(space, tuple(field_members))
        probe = rng.choice(
            [random_nonneg_gamble(rng, space), random_measurable_gamble(rng, space, field_family)]
        )
        rec.check(
            "field-criterion-agreement",
            family_is_field(field_family)
            and is_measurable(probe, field_family) == measurable_by_field_criterion(probe, field_family),
            lambda t=t: f"trial {t}: cone membership and the field criterion disagree",
        )

        # Level splitting is sufficient for membership (equivalently: a
        # gamble outside the cone must fail at some level).
        probe2 = random_nonneg_gamble(rng, space)
        if non_measurability_witness(probe2, family) is None:
            rec.check(
                "level-splitting-implies-measurable",
                is_measurable(probe2, family),
                lambda t=t: f"trial {t}: every level splits yet the cone rejects the gamble",
            )
    return rec.outcomes()


SUITES: dict[str, Callable[[int, int], tuple[PropertyOutcome, ...]]] = {
    "axioms": _axioms_suite,
    "independence": _independence_suite,
    "factorisation": _factorisation_suite,
    "envelope": _envelope_suite,
    "measurability": _measurability_suite,
}


def run_suite(name: str, seed: int = 0, trials: int = 100) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    outcomes = SUITES[name](seed, trials)
    return SuiteReport(suite=name, seed=seed, trials=trials, outcomes=outcomes)

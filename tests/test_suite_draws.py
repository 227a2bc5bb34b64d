"""The suites' random draws and envelope assessments, against ``Fraction``.

``random_gamble``, ``random_nonneg_gamble`` and ``random_measurable_gamble``
draw integer rows, and ``envelope_assessment`` compares integer ratios.
The reference bodies below are the ``Fraction`` versions they replaced:
each draw must give an equal object and leave the generator in an equal
state, and each assessment must be equal, or raise the same exception with
the same message.
"""

import random
from fractions import Fraction

import pytest

from desirables.independence import EventFamily
from desirables.measurability import generated_field
from desirables.prevision import (
    Assessment,
    AssessmentEntry,
    BeyondSupportError,
    LinearPrevision,
    envelope_assessment,
)
from desirables.spaces import EmptyEventError, Event, Gamble, Space, SpaceMismatchError, indicator, product_space
from desirables.suites import (
    random_envelope_model,
    random_family,
    random_gamble,
    random_measurable_gamble,
    random_nonempty_event,
    random_nonneg_gamble,
    random_partition,
    random_strict_pmf,
)


def reference_gamble(rng, space, span=6, max_den=3):
    return Gamble(space, tuple(Fraction(rng.randint(-span, span), rng.randint(1, max_den)) for _ in space.outcomes))


def reference_nonneg_gamble(rng, space):
    return Gamble(
        space,
        tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in space.outcomes),
    )


def reference_measurable_gamble(rng, space, family):
    g = space.constant(Fraction(rng.randint(0, 3), rng.randint(1, 2)))
    events = family.events()
    if events:
        for _ in range(2):
            c = Fraction(rng.randint(0, 3), rng.randint(1, 2))
            g = g + indicator(rng.choice(events)) * c
    return g


def reference_envelope_assessment(space, pmfs, pairs):
    entries = []
    for f, event in pairs:
        ev = event if event is not None else space.full_event()
        value = min(p(f, ev) for p in pmfs)
        entries.append(AssessmentEntry(gamble=f, event=ev, lower=value))
    return Assessment(space, tuple(entries))


def reference_envelope_model(rng, space, n_pmfs=None, n_entries=None):
    """``random_envelope_model`` over the reference draws and assessment;
    returns the assessment and the pmfs."""
    n_pmfs = n_pmfs if n_pmfs is not None else rng.randint(2, 4)
    n_entries = n_entries if n_entries is not None else rng.randint(1, 3)
    pmfs = [random_strict_pmf(rng, space) for _ in range(n_pmfs)]
    pairs = []
    seen = set()
    while len(pairs) < n_entries:
        f = reference_gamble(rng, space)
        event = random_nonempty_event(rng, space) if rng.random() < 0.5 else space.full_event()
        key = (f, event.members)
        if key in seen:
            continue
        seen.add(key)
        pairs.append((f, event))
    return reference_envelope_assessment(space, pmfs, pairs), pmfs


# The spaces the suites draw on: 2-5 outcomes, and the products of 2-3 by
# 2-3 outcomes that the independence suite draws joint gambles on.
SPACES = tuple(Space(f"S{n}", tuple(f"s{k}" for k in range(n))) for n in range(1, 6))
PRODUCTS = tuple(
    product_space(Space(f"L{m}", tuple(f"l{k}" for k in range(m))), Space(f"R{n}", tuple(f"r{k}" for k in range(n))))
    for m in (2, 3)
    for n in (2, 3)
)
# (span, max_den) of every random_gamble call in the suites.
GAMBLE_SHAPES = ((6, 3), (3, 3), (3, 2))


def families(rng, space):
    """The families the suites draw gambles for, and the repeats, field and
    all-events families that only a caller outside the suites passes."""
    blocks = random_partition(rng, space)
    field = sorted(
        (Event(space, m) for m in generated_field(EventFamily.custom(space, tuple(blocks))) if m),
        key=lambda e: [k for k, inside in enumerate(e.mask) if inside],
    )
    return (
        random_family(rng, space),
        EventFamily.atoms(space),
        EventFamily.empty(space),
        EventFamily.all_nonempty(space),
        EventFamily.custom(space, tuple(blocks) * 2),
        EventFamily.custom(space, tuple(field)),
    )


def assert_same_draw(draw, reference, new_rng, ref_rng, *args):
    got, want = draw(new_rng, *args), reference(ref_rng, *args)
    assert got == want
    assert (got.den, got.nums) == (want.den, want.nums)
    assert new_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("block", range(10))
def test_draws_equal_the_fraction_draws(block):
    """Seeds 0-999, in ten blocks of a hundred."""
    for seed in range(100 * block, 100 * block + 100):
        new_rng, ref_rng = random.Random(seed), random.Random(seed)
        for space in SPACES:
            for span, max_den in GAMBLE_SHAPES:
                assert_same_draw(random_gamble, reference_gamble, new_rng, ref_rng, space, span, max_den)
            assert_same_draw(random_nonneg_gamble, reference_nonneg_gamble, new_rng, ref_rng, space)
            for family in families(random.Random(f"families:{seed}"), space):
                assert_same_draw(random_measurable_gamble, reference_measurable_gamble, new_rng, ref_rng, space, family)
        for space in PRODUCTS:
            assert_same_draw(random_gamble, reference_gamble, new_rng, ref_rng, space, 3, 2)


@pytest.mark.parametrize("block", range(10))
def test_envelope_models_equal_the_fraction_models(block):
    """Seeds 0-999 on 2-4 outcomes, with the suites' pmf and entry counts."""
    for seed in range(100 * block, 100 * block + 100):
        new_rng, ref_rng = random.Random(seed), random.Random(seed)
        for space in SPACES[1:4]:
            for n_entries in (None, 1, 2):
                model, pmfs = random_envelope_model(new_rng, space, n_entries=n_entries)
                assessment, ref_pmfs = reference_envelope_model(ref_rng, space, n_entries=n_entries)
                assert model.assessment == assessment
                assert all(type(e.lower) is Fraction for e in model.assessment.entries)
                assert pmfs == ref_pmfs
                assert new_rng.getstate() == ref_rng.getstate()


def test_envelope_assessment_takes_no_event_as_the_full_event():
    rng = random.Random(7)
    space = SPACES[2]
    pmfs = [random_strict_pmf(rng, space) for _ in range(3)]
    pairs = [(random_gamble(rng, space), None), (random_gamble(rng, space), space.event(["s0", "s2"]))]
    assert envelope_assessment(space, pmfs, pairs) == reference_envelope_assessment(space, pmfs, pairs)


class TestEnvelopeErrors:
    """Each failure raises what the ``Fraction`` version raised, with its
    message."""

    X = Space("X", ("x0", "x1", "x2"))
    W = Space("W", ("x0", "x1", "x2"))
    POSITIVE = LinearPrevision(X, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    MISSES = LinearPrevision(X, (Fraction(0), Fraction(0), Fraction(1)))
    F = X.gamble([1, -2, 3])

    def assert_same_error(self, pmfs, pairs, kind):
        with pytest.raises(kind) as got:
            envelope_assessment(self.X, pmfs, pairs)
        with pytest.raises(kind) as want:
            reference_envelope_assessment(self.X, pmfs, pairs)
        assert type(got.value) is type(want.value) is kind
        assert str(got.value) == str(want.value)

    def test_a_pmf_that_misses_the_event(self):
        self.assert_same_error(
            [self.POSITIVE, self.MISSES], [(self.F, self.X.event(["x0", "x1"]))], BeyondSupportError
        )

    def test_a_gamble_on_another_space(self):
        self.assert_same_error([self.POSITIVE], [(self.W.gamble([1, 0, 0]), None)], SpaceMismatchError)

    def test_an_event_on_another_space(self):
        self.assert_same_error([self.POSITIVE], [(self.F, self.W.event(["x0"]))], SpaceMismatchError)

    def test_an_empty_event(self):
        self.assert_same_error([self.POSITIVE, self.MISSES], [(self.F, self.X.event([]))], EmptyEventError)

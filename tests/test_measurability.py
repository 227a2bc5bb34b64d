"""Family-measurability: the simple cone, staircases, and field audits."""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from desirables import independence, measurability
from desirables.independence import EventFamily
from desirables.measurability import (
    MAX_FIELD_ATOMS,
    FamilyTooLargeError,
    LevelApproximation,
    SimpleGambleCone,
    family_is_field,
    generated_field,
    is_measurable,
    level_set,
    level_set_approximation,
    measurable_by_field_criterion,
    non_measurability_witness,
    require_measurable,
    split_into_disjoint,
    MeasurabilityError,
)
from desirables.spaces import Event, Gamble, Space, SpaceMismatchError, indicator
from desirables.suites import random_family, random_measurable_gamble, random_nonneg_gamble, random_space
from oracles import split_into_disjoint_by_labels

X4 = Space("X", ("1", "2", "3", "4"))
X6 = Space("S", tuple(str(i) for i in range(1, 7)))


class TestSimpleCone:
    def test_all_nonempty_accepts_every_nonneg_gamble(self):
        fam = EventFamily.all_nonempty(X4)
        for values in ([3, 1, 2, 0], [0, 0, 0, 0], ["1/2", "1/3", "5", "0"]):
            assert is_measurable(X4.gamble(values), fam)

    def test_empty_family_accepts_exactly_constants(self):
        fam = EventFamily.empty(X4)
        assert is_measurable(X4.constant(Fraction(7, 3)), fam)
        assert not is_measurable(X4.gamble([1, 0, 0, 0]), fam)

    def test_two_singleton_family_rejects_odd_indicator(self):
        # Outcome 3 carries value 1 but only the constant term reaches it,
        # and g(4) = 0 forces that constant to zero.
        fam = EventFamily.custom(X4, (X4.event(["1"]), X4.event(["2"])))
        assert not is_measurable(X4.gamble([1, 0, 1, 0]), fam)

    def test_negative_gamble_rejected(self):
        fam = EventFamily.all_nonempty(X4)
        with pytest.raises(ValueError):
            is_measurable(X4.gamble([-1, 0, 0, 0]), fam)

    def test_coefficients_reconstruct_exactly(self):
        fam = EventFamily.custom(X4, (X4.event(["1", "2"]), X4.event(["2", "3"])))
        g = X4.gamble([1, 2, 1, 0])  # I_{12} + I_{23}
        c0, coeffs = SimpleGambleCone(X4, fam).coefficients(g)
        rebuilt = X4.constant(c0)
        for event, c in coeffs:
            rebuilt = rebuilt + indicator(event) * c
        assert rebuilt.values == g.values

    def test_membership_can_hold_despite_an_unsplittable_level(self):
        # I_{12} + I_{23} is plainly in the cone, yet its level set at 2 is
        # the bare outcome {2}, which the family cannot assemble: level
        # splitting is sufficient, not necessary.
        fam = EventFamily.custom(X4, (X4.event(["1", "2"]), X4.event(["2", "3"])))
        g = X4.gamble([1, 2, 1, 0])
        assert is_measurable(g, fam)
        assert split_into_disjoint(level_set(g, Fraction(2)), fam) is None


@st.composite
def membership_cases(draw):
    """A non-negative gamble and an atoms, all-events, empty, disjoint,
    repeated-event or overlapping family on 1-6 outcomes.  Half the gambles
    are built in the family's cone, and some of those are then nudged at
    one outcome, so members and non-members both occur often."""
    space = Space("M", tuple(f"m{i}" for i in range(draw(st.integers(1, 6)))))
    labels = st.sampled_from(space.outcomes)
    kind = draw(st.sampled_from(["atoms", "all", "empty", "disjoint", "repeated", "overlapping"]))
    if kind in ("atoms", "all", "empty"):
        family = {"atoms": EventFamily.atoms, "all": EventFamily.all_nonempty, "empty": EventFamily.empty}[kind](space)
    elif kind == "overlapping":
        members = draw(st.lists(st.frozensets(labels, min_size=1), min_size=1, max_size=5))
        family = EventFamily.custom(space, [Event(space, m) for m in members])
    else:
        order = draw(st.permutations(space.outcomes))
        cuts = sorted(draw(st.sets(st.integers(1, space.size), max_size=space.size)) | {space.size})
        blocks = [frozenset(order[a:b]) for a, b in zip([0, *cuts], cuts)]
        blocks = [b for b, keep in zip(blocks, draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))) if keep]
        if kind == "repeated":
            blocks += draw(st.lists(st.sampled_from(blocks), max_size=3)) if blocks else []
        family = EventFamily.custom(space, [Event(space, b) for b in blocks])
    values = st.integers(0, 6)
    if draw(st.booleans()):
        nums = [draw(values)] * space.size
        for event in draw(st.lists(st.sampled_from(family.generator_events()), max_size=3)) if family.generator_events() else []:
            c = draw(values)
            nums = [a + c * inside for a, inside in zip(nums, event.mask)]
        if draw(st.booleans()):
            k = draw(st.integers(0, space.size - 1))
            nums[k] = max(0, nums[k] + draw(st.sampled_from([-1, 1])))
    else:
        nums = draw(st.lists(values, min_size=space.size, max_size=space.size))
    return Gamble.from_ints(space, draw(st.integers(1, 4)), nums), family


class TestMembershipWithoutCertificate:
    """``contains`` decides with no certificate: in one pass on disjoint
    families, on the LP's status otherwise.  It must agree with the
    certificate that ``coefficients`` publishes."""

    @settings(max_examples=600, deadline=None)
    @given(membership_cases())
    def test_contains_agrees_with_coefficients(self, case):
        g, family = case
        cone = SimpleGambleCone(g.space, family)
        assert cone.contains(g) == (cone.coefficients(g) is not None)
        assert is_measurable(g, family) == cone.contains(g)

    @pytest.mark.parametrize(
        "values, member",
        [
            ([2, 2, 3, 3, 1], True),  # blocks {0, 1} at 2 and {2, 3} at 3, the rest at 1
            ([2, 2, 3, 3, 3], False),  # block {0, 1} below the rest
            ([2, 2, 3, 3, "3/2"], True),
            ([2, 1, 3, 3, 1], False),  # not constant on block {0, 1}
        ],
    )
    def test_disjoint_rule(self, values, member):
        x = Space("D", tuple("abcde"))
        family = EventFamily.custom(x, (x.event("ab"), x.event("cd"), x.event("ab")))
        g = x.gamble(values)
        assert is_measurable(g, family) is member

    def test_disjoint_families_solve_no_lp(self, monkeypatch):
        solves = []
        monkeypatch.setattr(measurability.LinearProgram, "solve", lambda lp, *a: solves.append(lp))
        x = Space("D", tuple("abcd"))
        for family in (
            EventFamily.atoms(x),
            EventFamily.all_nonempty(x),
            EventFamily.empty(x),
            EventFamily.custom(x, (x.event("ab"), x.event("c"), x.event("ab"))),
        ):
            is_measurable(x.gamble([1, 1, 2, 0]), family)
        assert solves == []

    def test_a_family_on_another_space_raises_at_construction(self):
        x, w = Space("X", ("a", "b")), Space("W", ("a", "b"))
        with pytest.raises(SpaceMismatchError, match="family on a different space"):
            SimpleGambleCone(x, EventFamily.atoms(w))

    @pytest.mark.parametrize("kind", ["atoms", "overlapping"])
    def test_a_negative_gamble_raises_before_a_gamble_on_another_space(self, kind):
        x, w = Space("X", ("a", "b", "c")), Space("W", ("a", "b", "c"))
        family = EventFamily.atoms(x) if kind == "atoms" else EventFamily.custom(x, (x.event("ab"), x.event("bc")))
        cone = SimpleGambleCone(x, family)
        for ask in (cone.contains, cone.coefficients):
            with pytest.raises(ValueError, match="non-negative gambles only") as err:
                ask(w.gamble([-1, 0, 0]))
            assert type(err.value) is ValueError
            with pytest.raises(SpaceMismatchError, match="gamble on a different space"):
                ask(w.gamble([1, 0, 0]))


class TestFamilyOnAnotherSpace:
    """Every function that takes a family refuses one on another space, as
    ``is_measurable`` does, even when the labels coincide."""

    X = Space("X", ("a", "b", "c"))
    W = Space("W", ("a", "b", "c"))
    FAMILY = EventFamily.custom(W, (W.event(["a"]), W.event(["c"])))

    def test_is_measurable(self):
        with pytest.raises(SpaceMismatchError):
            is_measurable(self.X.gamble([1, 0, 1]), self.FAMILY)

    def test_non_measurability_witness(self):
        with pytest.raises(SpaceMismatchError):
            non_measurability_witness(self.X.gamble([1, 0, 1]), self.FAMILY)

    def test_level_set_approximation(self):
        with pytest.raises(SpaceMismatchError):
            level_set_approximation(self.X.gamble([1, 0, 1]), self.FAMILY, 4)

    def test_split_into_disjoint(self):
        with pytest.raises(SpaceMismatchError):
            split_into_disjoint(self.X.event(["a", "c"]), self.FAMILY)

    def test_measurable_by_field_criterion(self):
        with pytest.raises(SpaceMismatchError):
            measurable_by_field_criterion(self.X.gamble([1, 0, 1]), self.FAMILY)


class TestLevelSets:
    def test_prefix_family_approximates_reciprocal(self):
        x10 = Space("T", tuple(str(i) for i in range(1, 11)))
        prefixes = EventFamily.custom(
            x10,
            tuple(x10.event([str(j) for j in range(1, k + 1)]) for k in range(1, 11)),
        )
        g = x10.gamble([Fraction(1, i) for i in range(1, 11)])
        for n in (2, 4, 8, 16):
            approx = level_set_approximation(g, prefixes, n)
            assert approx.succeeded
            error = max(abs(a - b) for a, b in zip(approx.approximant.values, g.values))
            assert error <= approx.error_bound == (g.maximum() + 1) / n

    def test_doubling_n_halves_the_bound(self):
        fam = EventFamily.all_nonempty(X4)
        g = X4.gamble([2, 0, 1, 3])
        a_n = level_set_approximation(g, fam, 4)
        a_2n = level_set_approximation(g, fam, 8)
        assert a_2n.error_bound == a_n.error_bound / 2

    def test_odd_indicator_fails_at_level_one(self):
        fam = EventFamily.custom(X6, (X6.event(["1"]), X6.event(["2"])))
        odd = X6.gamble([1, 0, 1, 0, 1, 0])
        approx = level_set_approximation(odd, fam, 2)
        assert not approx.succeeded
        assert approx.witness_level == 1
        assert sorted(approx.witness_set.members) == ["1", "3", "5"]

    def test_witness_scan_finds_first_bad_level(self):
        fam = EventFamily.custom(X6, (X6.event(["1"]), X6.event(["2"])))
        odd = X6.gamble([1, 0, 1, 0, 1, 0])
        level, ls = non_measurability_witness(odd, fam)
        assert level == 1 and sorted(ls.members) == ["1", "3", "5"]

    def test_require_measurable_raises_with_witness(self):
        fam = EventFamily.custom(X6, (X6.event(["1"]), X6.event(["2"])))
        odd = X6.gamble([1, 0, 1, 0, 1, 0])
        with pytest.raises(MeasurabilityError) as err:
            require_measurable(odd, fam)
        assert err.value.level == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_all_levels_split_implies_membership(self, seed):
        rng = random.Random(seed)
        fam = EventFamily.custom(
            X4, tuple({X4.event(["1"]), X4.event(["2", "3"]), X4.event(["4"])})
        )
        g = random_nonneg_gamble(rng, X4)
        if non_measurability_witness(g, fam) is None:
            assert is_measurable(g, fam)


def fraction_staircase(g, family, n):
    """The staircase as it was built over ``Fraction`` levels and a sum of
    level-set indicators scaled by alpha / n."""
    alpha = g.maximum() + 1
    approx = g.space.zero()
    for k in range(1, n):
        level = Fraction(k, n) * alpha
        ls = level_set(g, level)
        if split_into_disjoint(ls, family) is None:
            return LevelApproximation(alpha=alpha, n=n, approximant=None, witness_level=level, witness_set=ls)
        approx = approx + indicator(ls)
    return LevelApproximation(alpha=alpha, n=n, approximant=approx * (alpha / n))


class TestIntegerStaircase:
    """``level_set_approximation`` compares the integer rows with each grid
    level as a ratio and builds its approximant from ints; every field is
    the one the ``Fraction`` construction gives."""

    @pytest.mark.parametrize("seed", range(40))
    def test_same_approximation_as_fraction_levels(self, seed):
        rng = random.Random(f"staircase:{seed}")
        space = random_space(rng, "S", 2, 6)
        family = random_family(rng, space)
        g = random_measurable_gamble(rng, space, family) if seed % 2 else random_nonneg_gamble(rng, space)
        for n in (1, 2, 3, 5, 8):
            approx = level_set_approximation(g, family, n)
            assert approx == fraction_staircase(g, family, n)
            assert (approx.alpha, approx.error_bound) == (g.maximum() + 1, (g.maximum() + 1) / n)


class TestAllFamilyStaysOnAtoms:
    """The all-events family is decided through its atoms: its 2^n - 1
    members are never materialised by a cone or level-set query."""

    @pytest.fixture
    def materialised(self, monkeypatch):
        kinds = []
        original = EventFamily.events

        def spy(family):
            kinds.append(family.kind)
            return original(family)

        monkeypatch.setattr(EventFamily, "events", spy)
        return kinds

    def test_queries_do_not_materialise_the_family(self, materialised):
        x20 = Space("W", tuple(f"w{i}" for i in range(20)))
        fam = EventFamily.all_nonempty(x20)
        g = x20.gamble([i % 7 for i in range(20)])
        assert is_measurable(g, fam)
        assert non_measurability_witness(g, fam) is None
        assert level_set_approximation(g, fam, 8).succeeded
        assert fam.kind not in materialised

    def test_split_matches_the_materialised_family(self):
        every = EventFamily.custom(X4, EventFamily.all_nonempty(X4).events())
        for e in every.events():
            assert split_into_disjoint(e, EventFamily.all_nonempty(X4)) == split_into_disjoint(e, every)


class TestGeneratedField:
    def test_partition_generates_the_union_closure(self):
        fam = EventFamily.custom(X4, (X4.event(["1", "2"]), X4.event(["3"]), X4.event(["4"])))
        field = generated_field(fam)
        assert frozenset() in field and frozenset(X4.outcomes) in field
        assert len(field) == 8  # three blocks -> 2^3 unions

    def test_family_is_field_detection(self):
        blocks = (X4.event(["1", "2"]), X4.event(["3", "4"]))
        not_field = EventFamily.custom(X4, blocks)
        assert not family_is_field(not_field)
        members = [Event(X4, m) for m in generated_field(not_field) if m]
        assert family_is_field(EventFamily.custom(X4, tuple(members)))

    @pytest.mark.parametrize("seed", range(10))
    def test_field_criterion_agrees_with_cone_membership(self, seed):
        rng = random.Random(100 + seed)
        # Random partition of a 4-element space, closed into a field.
        labels = list(X4.outcomes)
        rng.shuffle(labels)
        cut = rng.randint(1, 3)
        fam0 = EventFamily.custom(X4, (X4.event(labels[:cut]), X4.event(labels[cut:])))
        members = [Event(X4, m) for m in generated_field(fam0) if m]
        field_family = EventFamily.custom(X4, tuple(members))
        assert family_is_field(field_family)
        for _ in range(6):
            g = rng.choice(
                [
                    random_nonneg_gamble(rng, X4),
                    random_measurable_gamble(rng, X4, field_family),
                ]
            )
            assert is_measurable(g, field_family) == measurable_by_field_criterion(
                g, field_family
            )


    def test_all_events_field_is_built_from_the_atoms(self, monkeypatch):
        """At 12 outcomes the all-events family has 4095 members; its field
        is read from its 12 atoms, so no more events than that are built."""
        x12 = Space("T", tuple(f"t{i}" for i in range(12)))
        built = []
        original = Event.__post_init__
        monkeypatch.setattr(Event, "__post_init__", lambda e: (built.append(e), original(e)))
        field = generated_field(EventFamily.all_nonempty(x12))
        assert len(built) <= 12
        monkeypatch.undo()
        assert field == generated_field(EventFamily.atoms(x12))
        assert len(field) == 2**12


class TestFieldSizeGuard:
    """A field is listed only up to ``MAX_FIELD_ATOMS`` atoms; past that the
    audits raise ``FamilyTooLargeError``, a ``ValueError`` (CLI exit 3),
    before any closure runs."""

    BIG = Space("B", tuple(f"b{i}" for i in range(MAX_FIELD_ATOMS + 1)))

    def test_seventeen_disjoint_events_are_refused(self):
        family = EventFamily.custom(self.BIG, self.BIG.atoms())
        g = indicator(self.BIG.event(["b0"]))
        for audit in (
            lambda: generated_field(family),
            lambda: family_is_field(family),
            lambda: measurable_by_field_criterion(g, family),
        ):
            with pytest.raises(FamilyTooLargeError, match=f"{MAX_FIELD_ATOMS + 1} atoms"):
                audit()
        assert issubclass(FamilyTooLargeError, ValueError)
        assert independence.FamilyTooLargeError is FamilyTooLargeError

    def test_atoms_not_events_are_counted(self):
        """Seventeen events whose field has two atoms: every event is the
        same half of the space."""
        half = self.BIG.event(self.BIG.outcomes[:8])
        field = generated_field(EventFamily.custom(self.BIG, [half] * (MAX_FIELD_ATOMS + 1)))
        assert field == {frozenset(), half.members, frozenset(self.BIG.outcomes[8:]), frozenset(self.BIG.outcomes)}



@st.composite
def split_cases(draw):
    """An event and a custom, atoms, all-events or empty family on 1-7
    outcomes."""
    space = Space("S", tuple(f"s{i}" for i in range(draw(st.integers(1, 7)))))
    labels = st.sampled_from(space.outcomes)
    kind = draw(st.sampled_from(["custom", "atoms", "all", "empty"]))
    if kind == "custom":
        members = draw(st.lists(st.frozensets(labels, min_size=1), max_size=8))
        family = EventFamily.custom(space, [Event(space, m) for m in members])
    else:
        family = {"atoms": EventFamily.atoms, "all": EventFamily.all_nonempty, "empty": EventFamily.empty}[kind](space)
    return Event(space, draw(st.frozensets(labels))), family


def pairs_case(n):
    """The first n of n + 1 outcomes under the family of every pair: no
    cover for odd n, and the search's remainders grow like Fibonacci
    numbers."""
    space = Space("P", tuple(f"p{i}" for i in range(n + 1)))
    family = EventFamily.custom(space, [space.event(p) for p in itertools.combinations(space.outcomes, 2)])
    return space.event(space.outcomes[:n]), family


class TestDisjointSplitSearch:
    """``split_into_disjoint`` searches bit masks and remembers the
    remainders it ruled out; it finds the cover that the label-set search
    of ``oracles.split_into_disjoint_by_labels`` finds."""

    @settings(max_examples=400, deadline=None)
    @given(split_cases())
    def test_same_cover_as_the_label_search(self, case):
        event, family = case
        assert split_into_disjoint(event, family) == split_into_disjoint_by_labels(event, family)

    def test_pairs_on_fifteen_outcomes_answer_fast(self):
        """Fewer than 1024 remainders are ruled out, each once."""
        event, family = pairs_case(15)
        start = time.process_time()
        assert split_into_disjoint(event, family) is None
        assert time.process_time() - start < 0.1

    def test_pairs_on_twenty_five_outcomes_are_refused(self):
        event, family = pairs_case(25)
        with pytest.raises(FamilyTooLargeError, match=f"more than 2\\^{MAX_FIELD_ATOMS} remainders"):
            split_into_disjoint(event, family)

    def test_pairs_on_twenty_five_outcomes_are_refused_fast(self):
        """Each remainder looks only at the pairs whose lowest outcome is
        its own, and skips the remainders already ruled out, so ruling
        out about 2^16 remainders takes well under a second."""
        event, family = pairs_case(25)
        start = time.process_time()
        with pytest.raises(FamilyTooLargeError):
            split_into_disjoint(event, family)
        assert time.process_time() - start < 0.5


def test_require_measurable_lists_the_level_set_in_outcome_order():
    space = Space("Z", ("x2", "x10", "y"))
    with pytest.raises(MeasurabilityError, match=r"\['x2', 'x10'\]"):
        require_measurable(space.gamble([1, 1, 0]), EventFamily.empty(space))


PROBE_SCRIPT = """
import hashlib
import desirables.suites as suites

probed = []
original = suites.is_measurable


def spy(g, family):
    probed.append(g.values)
    return original(g, family)


suites.is_measurable = spy
suites.run_suite("measurability", seed=5, trials=20)
print(len(probed), hashlib.sha256(repr(probed).encode()).hexdigest())
"""


def test_measurability_suite_probes_do_not_depend_on_hash_seed():
    # String hashing is salted per process, so a suite that draws from the
    # iteration order of a set of events would probe other gambles in
    # another process with the same seed.
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", PROBE_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests

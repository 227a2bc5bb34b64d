"""Desirable-gamble cones: membership, coherence, and the dual pmf witness."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from desirables import cones
from desirables.cones import (
    DesirableCone,
    PmfWitness,
    _dominating_expectations,
    _gamble_side_lp,
    _lower_value,
    _outcome_rows,
    _vertex_bound,
)
from desirables.prevision import LinearPrevision
from desirables.simplex import DANTZIG, LinearProgram, LPStatus
from desirables.spaces import Gamble, Space, SpaceMismatchError
from desirables.suites import random_gamble, random_nonempty_event

from oracles import credal_vertices

AB = Space("X", ("a", "b"))


def random_cone(rng, max_size=5, max_gens=6, span=3):
    size = rng.randint(1, max_size)
    space = Space("R", tuple(f"o{i}" for i in range(size)))
    gens = [
        Gamble(
            space,
            tuple(Fraction(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(size)),
        )
        for _ in range(rng.randint(0, max_gens))
    ]
    return DesirableCone(space, tuple(gens))


class TestMembership:
    def test_nonneg_nonzero_always_member(self):
        assert DesirableCone.vacuous(AB).contains(AB.gamble([1, 0]))

    def test_zero_not_member_of_vacuous(self):
        assert not DesirableCone.vacuous(AB).contains(AB.gamble([0, 0]))

    def test_scaled_generator_member(self):
        # (-1/2, 1) = (1/2) * (-1, 2): the one-variable program has the
        # feasible point lambda = 1/2 with positive total.
        cone = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        assert cone.contains(AB.gamble(["-1/2", "1"]))

    def test_dominated_target_not_member(self):
        # lambda * (-1, 2) <= (-1, 1) forces lambda >= 1 and lambda <= 1/2.
        cone = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        assert not cone.contains(AB.gamble([-1, 1]))

    def test_space_mismatch(self):
        other = Space("Z", ("u", "v"))
        with pytest.raises(SpaceMismatchError):
            DesirableCone.vacuous(AB).contains(other.gamble([1, 0]))

    def test_zero_member_iff_incoherent(self):
        twins = DesirableCone.from_generators(AB, [AB.gamble([1, -1]), AB.gamble([-1, 1])])
        assert twins.contains(AB.gamble([0, 0]))
        assert not twins.is_coherent()
        good = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        assert not good.contains(AB.gamble([0, 0]))
        assert good.is_coherent()


class TestCoherence:
    def test_vacuous_coherent(self):
        assert DesirableCone.vacuous(AB).is_coherent()

    def test_opposite_generators_incoherent(self):
        # The half-half combination of (1,-1) and (-1,1) is the zero gamble.
        cone = DesirableCone.from_generators(AB, [AB.gamble([1, -1]), AB.gamble([-1, 1])])
        assert not cone.is_coherent()

    def test_single_partial_gain_coherent(self):
        cone = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        assert cone.is_coherent()

    def test_nonpositive_generator_incoherent(self):
        cone = DesirableCone.from_generators(AB, [AB.gamble([-1, -1])])
        assert not cone.is_coherent()

    def test_zero_generator_incoherent(self):
        cone = DesirableCone.from_generators(AB, [AB.zero()])
        assert not cone.is_coherent()


class TestPmfWitness:
    def test_vacuous_witness_is_any_strict_pmf(self):
        witness = DesirableCone.vacuous(AB).positive_pmf_witness()
        assert witness is not None
        assert all(p > 0 for p in witness.masses) and sum(witness.masses) == 1

    def test_opposite_generators_no_witness(self):
        # p.f1 and p.f2 = -p.f1 cannot both be positive.
        cone = DesirableCone.from_generators(AB, [AB.gamble([1, -1]), AB.gamble([-1, 1])])
        assert cone.positive_pmf_witness() is None

    def test_witness_makes_generator_expectation_positive(self):
        # Any witness has 2 p(b) > p(a); e.g. (1/3, 2/3) gives 2*2/3 - 1/3 = 1.
        cone = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        witness = cone.positive_pmf_witness()
        assert witness is not None
        assert witness.expectation(AB.gamble([-1, 2])) > 0
        hand_picked = Fraction(2) * Fraction(2, 3) - Fraction(1, 3)
        assert hand_picked == 1

    @pytest.mark.parametrize("seed", range(60))
    def test_witness_equivalent_to_coherence(self, seed):
        cone = random_cone(random.Random(seed))
        witness = cone.positive_pmf_witness()
        assert (witness is not None) == cone.is_coherent()
        if witness is not None:
            assert all(p > 0 for p in witness.masses)
            assert sum(witness.masses) == 1
            assert all(witness.expectation(g) > 0 for g in cone.generators)


class TestPmfWitnessRows:
    """A witness derives its masses' integer row and takes expectations
    over it, making one ``Fraction``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_expectation_equals_the_fraction_sum(self, seed):
        rng = random.Random(f"witness-rows:{seed}")
        space = Space("W", tuple(f"w{i}" for i in range(rng.randint(1, 6))))
        weights = [rng.randint(1, 9) for _ in space.outcomes]
        masses = tuple(Fraction(w, sum(weights)) for w in weights)
        witness = PmfWitness(space, masses)
        assert sum(witness.nums) == witness.den and Fraction(witness.nums[0], witness.den) == masses[0]
        g = random_gamble(rng, space)
        assert witness.expectation(g) == sum((p * v for p, v in zip(masses, g.values)), Fraction(0))

    def test_invalid_masses_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            PmfWitness(AB, (Fraction(0), Fraction(1)))
        with pytest.raises(ValueError, match="sum to one"):
            PmfWitness(AB, (Fraction(1, 3), Fraction(1, 3)))
        with pytest.raises(ValueError, match="length"):
            PmfWitness(AB, (Fraction(1),))
        with pytest.raises(SpaceMismatchError):
            PmfWitness(AB, (Fraction(1, 2), Fraction(1, 2))).expectation(Space("C", ("c", "d")).gamble([1, 2]))


class TestExtension:
    def test_extension_keeps_generator_list(self):
        vacuous = DesirableCone.vacuous(AB)
        cone = DesirableCone(AB, vacuous.generators + (AB.gamble([-1, 2]),))
        assert [g.values for g in cone.generators] == [(Fraction(-1), Fraction(2))]

    def test_new_generator_is_member(self):
        f = AB.gamble([-2, 3])
        base = DesirableCone.from_generators(AB, [AB.gamble([-1, 2])])
        cone = DesirableCone(AB, base.generators + (f,))
        assert cone.contains(f)

    def test_extension_with_partial_loss_breaks_coherence(self):
        vacuous = DesirableCone.vacuous(AB)
        cone = DesirableCone(AB, vacuous.generators + (AB.gamble([-1, -1]),))
        assert not cone.is_coherent()

    @pytest.mark.parametrize("seed", range(15))
    def test_extension_with_member_preserves_memberships(self, seed):
        rng = random.Random(100 + seed)
        cone = random_cone(rng, max_size=3, max_gens=3)
        space = cone.space
        member = None
        for _ in range(20):
            probe = Gamble(
                space, tuple(Fraction(rng.randint(-2, 3)) for _ in space.outcomes)
            )
            if cone.contains(probe):
                member = probe
                break
        if member is None:
            pytest.skip("no member found for this seed")
        extended = DesirableCone(space, cone.generators + (member,))
        for _ in range(12):
            probe = Gamble(
                space, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in space.outcomes)
            )
            assert cone.contains(probe) == extended.contains(probe)


class TestClosureProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_positive_combinations_stay_members(self, seed):
        rng = random.Random(200 + seed)
        cone = random_cone(rng, max_size=4, max_gens=4)
        space = cone.space
        members = []
        for _ in range(30):
            probe = Gamble(
                space, tuple(Fraction(rng.randint(-2, 3)) for _ in space.outcomes)
            )
            if cone.contains(probe):
                members.append(probe)
            if len(members) == 2:
                break
        if len(members) < 2:
            pytest.skip("not enough members found for this seed")
        f, g = members
        alpha = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        beta = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        assert cone.contains(f * alpha + g * beta)

    @pytest.mark.parametrize("seed", range(15))
    def test_membership_monotone_in_generators(self, seed):
        rng = random.Random(300 + seed)
        cone = random_cone(rng, max_size=4, max_gens=3)
        extra = Gamble(
            cone.space,
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in cone.space.outcomes),
        )
        bigger = DesirableCone(cone.space, cone.generators + (extra,))
        for _ in range(10):
            probe = Gamble(
                cone.space,
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in cone.space.outcomes),
            )
            if cone.contains(probe):
                assert bigger.contains(probe)

    @pytest.mark.parametrize("seed", range(10))
    def test_incoherent_cone_contains_a_nonpositive_gamble(self, seed):
        rng = random.Random(400 + seed)
        cone = random_cone(rng, max_size=3, max_gens=4)
        if cone.is_coherent():
            for _ in range(15):
                probe = Gamble(
                    cone.space, tuple(Fraction(-rng.randint(0, 3)) for _ in cone.space.outcomes)
                )
                if probe.is_zero:
                    continue
                assert not cone.contains(probe) or not all(v <= 0 for v in probe.nums)
        else:
            assert cone.contains(cone.space.zero())


class TestDominationSide:
    @pytest.mark.parametrize("seed", range(20))
    def test_dominating_pmf_exists_iff_vertices_exist(self, seed):
        cone = random_cone(random.Random(500 + seed), max_size=4, max_gens=4)
        vertices = credal_vertices(cone.space, cone.generators)
        assert cone.dominating_pmf_exists() == bool(vertices)

    def test_upper_probability_positive(self):
        # All dominating pmfs of {I_a - 1} put mass one on a.
        cone = DesirableCone.from_generators(AB, [AB.gamble([0, -1])])
        assert cone.upper_probability_positive(AB.event(["a"]))
        assert not cone.upper_probability_positive(AB.event(["b"]))

    @pytest.mark.parametrize("seed", range(30))
    def test_upper_probability_positive_iff_a_vertex_reaches_the_event(self, seed):
        # Entries in {-1, 0, 1} (halved at random) often pin outcomes to
        # mass zero, so both answers occur on non-empty credal sets.
        rng = random.Random(5100 + seed)
        cone = random_cone(rng, max_size=4, max_gens=3, span=1)
        vertices = credal_vertices(cone.space, cone.generators)
        for _ in range(4):
            event = random_nonempty_event(rng, cone.space)
            reached = any(
                p > 0 for vertex in vertices for x, p in zip(cone.space.outcomes, vertex)
                if x in event.members
            )
            assert cone.upper_probability_positive(event) == reached


CONE_GOLDEN = json.loads((Path(__file__).parent / "data" / "cone_golden.json").read_text())


class TestConeGolden:
    """Status answers recorded on 300 seeded random cones (2-8 outcomes,
    0-8 generators; coherent, incoherent, sure-loss and generator-free)
    while membership ran its own LP and the credal-set questions solved
    the pmf side with a unit-mass row, and the strictly-positive-pmf
    witness of each.  ``make_cone_golden.py`` in the data directory
    recorded them."""

    @pytest.mark.parametrize(
        "case", CONE_GOLDEN, ids=[f"c{k:03d}" for k in range(len(CONE_GOLDEN))]
    )
    def test_recorded_answers(self, case):
        space = Space("K", tuple(f"k{i}" for i in range(case["outcomes"])))
        cone = DesirableCone(
            space, tuple(space.gamble([Fraction(v) for v in g]) for g in case["generators"])
        )
        mixed = space.gamble([Fraction(v) for v in case["mixed"]])
        assert cone.is_coherent() is case["is_coherent"]
        assert cone.dominating_pmf_exists() is case["dominating_pmf_exists"]
        assert cone.contains(mixed) is case["contains_mixed"]
        assert cone.contains(space.zero()) is case["contains_zero"]
        if cone.generators:
            assert cone.contains(cone.generators[0]) is case["contains_generator"]
        for members, want in zip(case["events"], case["upper_probability_positive"]):
            event = space.event(space.outcomes[i] for i in members)
            assert cone.upper_probability_positive(event) is want
        witness = cone.positive_pmf_witness()
        if case["positive_pmf_witness"] is None:
            assert witness is None
        else:
            assert witness.masses == tuple(Fraction(p) for p in case["positive_pmf_witness"])


VERTEX_GOLDEN = json.loads((Path(__file__).parent / "data" / "vertex_golden.json").read_text())


def normalised(vertices):
    """Integer vertices over their common denominator as sorted pmfs."""
    return sorted(tuple(Fraction(v, sum(vertex)) for v in vertex) for vertex in vertices)


def golden_cone(case):
    space = Space("K", tuple(f"k{i}" for i in range(case["outcomes"])))
    return DesirableCone(space, tuple(space.gamble([Fraction(v) for v in g]) for g in case["generators"]))


class TestCredalVertices:
    """``credal_vertices`` by integer double description against the
    brute-force enumeration of ``oracles.credal_vertices``: recorded for
    the 300 golden cones (``vertex_golden.json``, from
    ``make_vertex_golden.py``), and run live on small random cones."""

    @pytest.mark.parametrize(
        "case, recorded", list(zip(CONE_GOLDEN, VERTEX_GOLDEN)), ids=[f"c{k:03d}" for k in range(len(CONE_GOLDEN))]
    )
    def test_golden_cones_match_the_brute_force_vertices(self, case, recorded, monkeypatch):
        want = [tuple(Fraction(p) for p in vertex) for vertex in recorded]
        capped = golden_cone(case).credal_vertices
        if len(want) > cones.VERTEX_CAP:
            assert capped is None
        elif capped is not None:  # None too when an earlier step kept more rays
            assert normalised(capped) == want
        monkeypatch.setattr(cones, "VERTEX_CAP", 10**6)
        cone = golden_cone(case)
        vertices = cone.credal_vertices
        assert normalised(vertices) == want
        assert len({sum(v) for v in vertices}) <= 1  # one common denominator
        if not case["dominating_pmf_exists"]:
            assert vertices == ()
        if not case["generators"]:
            n = case["outcomes"]
            assert sorted(vertices) == sorted(tuple(int(j == k) for j in range(n)) for k in range(n))

    def test_golden_cones_cover_every_kind(self):
        """The recorded cones include sure losses, generator-free cones and
        cones past the cap."""
        assert any(not case["dominating_pmf_exists"] for case in CONE_GOLDEN)
        assert any(not case["generators"] for case in CONE_GOLDEN)
        assert any(len(recorded) > cones.VERTEX_CAP for recorded in VERTEX_GOLDEN)

    @pytest.mark.parametrize("seed", range(60))
    def test_small_random_cones_match_the_oracle(self, seed):
        cone = random_cone(random.Random(5600 + seed), max_size=4, max_gens=5)
        assert normalised(cone.credal_vertices) == credal_vertices(cone.space, cone.generators)

    @pytest.mark.parametrize(
        "case", CONE_GOLDEN[:60], ids=[f"c{k:03d}" for k in range(60)]
    )
    def test_vertex_supports_are_the_distinct_vertex_supports(self, case):
        """Bit k of a support is outcome k; repeats are dropped and the
        first-seen order kept.  The tuple is cached with the vertices."""
        cone = golden_cone(case)
        vertices, supports = cone.credal_vertices, cone.vertex_supports
        if vertices is None:
            assert supports is None
            return
        want = []
        for v in vertices:
            bits = sum(1 << k for k, w in enumerate(v) if w)
            if bits not in want:
                want.append(bits)
        assert supports == tuple(want) and cone.vertex_supports is supports

    def test_a_linear_marginal_has_one_vertex(self):
        """A self-conjugate assessment of every atom pins one pmf."""
        space = Space("L", ("a", "b", "c"))
        pmf = LinearPrevision.from_masses(space, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        vertices = pmf.as_lower_prevision().cone.credal_vertices
        assert vertices == ((1, 2, 3),)

    def test_a_zero_generator_changes_nothing(self):
        space = Space("Z", ("a", "b", "c"))
        g = space.gamble([1, -1, Fraction(1, 2)])
        plain = DesirableCone(space, (g,))
        padded = DesirableCone(space, (space.zero(), g, space.zero()))
        assert normalised(padded.credal_vertices) == normalised(plain.credal_vertices)
        assert normalised(plain.credal_vertices) == credal_vertices(space, (g,))

    def test_past_the_cap_there_are_none(self, monkeypatch):
        monkeypatch.setattr(cones, "VERTEX_CAP", 2)
        space = Space("C", ("a", "b", "c"))
        assert DesirableCone.vacuous(space).credal_vertices is None
        assert DesirableCone.vacuous(Space("D", ("a", "b"))).credal_vertices == ((1, 0), (0, 1))

    def test_cached_and_not_a_field(self):
        cone = DesirableCone(AB, (AB.gamble([1, -1]),))
        assert cone.credal_vertices is cone.credal_vertices
        assert cone == DesirableCone(AB, (AB.gamble([1, -1]),))


class TestStatusSolvesRunNoPhaseOne:
    """Each simplex phase is one ``_iterate`` call, so a status question
    whose LP starts on its slacks makes exactly one.  With ``VERTEX_CAP``
    at 0 no cone takes the vertex path, so every question solves its LP."""

    @pytest.fixture
    def iterate_calls(self, monkeypatch):
        monkeypatch.setattr(cones, "VERTEX_CAP", 0)
        calls = []
        original = LinearProgram._iterate

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(LinearProgram, "_iterate", staticmethod(spy))
        return calls

    def cones(self):
        rng = random.Random(5300)
        cones = [random_cone(rng, max_gens=6) for _ in range(40)]
        return [c for c in cones if c.generators and c.space.size > 1]

    def test_contains_of_a_gamble_with_a_negative_value(self, iterate_calls):
        rng = random.Random(5400)
        for cone in self.cones():
            f = cone.space.gamble([Fraction(rng.randint(-3, 3)) for _ in range(cone.space.size)])
            low = f.min_over(cone.space.full_event())
            if low >= 0:
                f = f - (low + 1)
            iterate_calls.clear()
            cone.contains(f)
            assert len(iterate_calls) == 1

    def test_dominating_pmf_exists(self, iterate_calls):
        for cone in self.cones():
            iterate_calls.clear()
            cone.dominating_pmf_exists()
            assert len(iterate_calls) == 1

    def test_upper_probability_positive(self, iterate_calls):
        rng = random.Random(5500)
        for cone in self.cones():
            event = random_nonempty_event(rng, cone.space)
            iterate_calls.clear()
            cone.upper_probability_positive(event)
            assert len(iterate_calls) == 1


class TestCoherenceSharesTheWitnessSolve:
    """``is_coherent`` and ``positive_pmf_witness`` read one cached witness,
    so on any cone the two solve one LP between them, in either order, and
    none when asked again.  ``VERTEX_CAP`` is 0, as in
    ``TestStatusSolvesRunNoPhaseOne``, so no cone is answered from its
    credal vertices."""

    def test_one_solve_between_the_two_questions(self, monkeypatch):
        monkeypatch.setattr(cones, "VERTEX_CAP", 0)
        solves = []
        original = LinearProgram.solve

        def spy(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(LinearProgram, "solve", spy)
        for coherence_first in (True, False):
            for cone in TestStatusSolvesRunNoPhaseOne().cones():
                solves.clear()
                if coherence_first:
                    coherent = cone.is_coherent()
                    witness = cone.positive_pmf_witness()
                else:
                    witness = cone.positive_pmf_witness()
                    coherent = cone.is_coherent()
                assert len(solves) == 1
                assert coherent == (witness is not None)
                solves.clear()
                assert cone.is_coherent() is coherent
                assert cone.positive_pmf_witness() is witness
                assert solves == []


class TestGatedInQuestionsSolveNoLP:
    """The counterpart of ``TestStatusSolvesRunNoPhaseOne`` at the default
    cap: every one of those cones has a ``vertex_bound`` within
    ``VERTEX_CAP``, so its status questions but coherence are answered from
    its credal vertices and make no ``LinearProgram.solve`` call."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = LinearProgram.solve

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(LinearProgram, "solve", spy)
        return calls

    def test_status_questions(self, solves):
        rng = random.Random(5400)
        for cone in TestStatusSolvesRunNoPhaseOne().cones():
            assert cone.vertex_bound <= cones.VERTEX_CAP
            f = cone.space.gamble([Fraction(rng.randint(-3, 3)) for _ in range(cone.space.size)])
            low = f.min_over(cone.space.full_event())
            if low >= 0:
                f = f - (low + 1)
            cone.contains(f)
            cone.dominating_pmf_exists()
            cone.upper_probability_positive(random_nonempty_event(rng, cone.space))
        assert solves == []


def lp_lower(cone, f, event):
    """The reference for the vertex path: the Dantzig solve of the
    gamble-side LP with mu free (mu+ - mu-), or None when it is unbounded."""
    result = _gamble_side_lp(cone, (f.den, f.nums), event).solve(DANTZIG)
    return None if result.status is LPStatus.UNBOUNDED else result.value


class TestVertexPath:
    """``_lower_value`` on a cone within the vertex gate answers from the
    credal vertices.  Its value must be the LP's, value for value and None
    for None, and its prices a dominating r that attains the value."""

    ABC = Space("Y", ("a", "b", "c"))

    def check(self, cone, f, event):
        assert cone.vertex_bound <= cones.VERTEX_CAP
        value, prices = _lower_value(cone, f, event)
        assert value == lp_lower(cone, f, event)
        if value is None:
            assert prices == ()
            return None
        assert _dominating_expectations(cone, prices) is not None
        inside = [x in event.members for x in cone.space.outcomes]
        mass = sum(r for r, i in zip(prices, inside) if i)
        assert mass > 0
        assert Fraction(sum(r * v for r, v, i in zip(prices, f.nums, inside) if i), mass * f.den) == value
        return value

    @pytest.mark.parametrize("seed", range(120))
    def test_random_small_cones(self, seed):
        rng = random.Random(9100 + seed)
        cone = random_cone(rng, max_size=5, max_gens=6)
        for _ in range(3):
            f = random_gamble(rng, cone.space)
            event = random_nonempty_event(rng, cone.space) if rng.random() < 0.5 else cone.space.full_event()
            self.check(cone, f, event)

    @pytest.mark.parametrize("gens", [[[-1, 1], [1, -2]], [[-1, -1]], [[1, -1], [-1, 1], [-1, 0]]])
    def test_sure_loss(self, gens):
        cone = DesirableCone.from_generators(AB, [AB.gamble(g) for g in gens])
        assert cone.credal_vertices == ()
        for event in (AB.full_event(), AB.event(["b"])):
            assert self.check(cone, AB.gamble([1, 2]), event) is None

    def test_an_event_of_upper_probability_zero(self):
        # -I_c is desirable, so every dominating pmf gives c no mass.
        abc = self.ABC
        cone = DesirableCone.from_generators(abc, [abc.gamble([0, 0, -1]), abc.gamble([1, -2, 0])])
        assert self.check(cone, abc.gamble([1, 2, 3]), abc.event(["c"])) is None
        assert self.check(cone, abc.gamble([1, 2, 3]), abc.event(["b", "c"])) == 2
        assert self.check(cone, abc.gamble([4, 2, 3]), abc.full_event()) == Fraction(10, 3)

    def test_vacuous_cone(self):
        rng = random.Random(9300)
        for size in range(1, 6):
            space = Space("V", tuple(f"v{i}" for i in range(size)))
            cone = DesirableCone.vacuous(space)
            for _ in range(5):
                f, event = random_gamble(rng, space), random_nonempty_event(rng, space)
                assert self.check(cone, f, event) == f.min_over(event)

    def test_linear_prevision_generator_pairs(self):
        """Gated in up to four outcomes (at five the bound is 90)."""
        rng = random.Random(9400)
        for _ in range(20):
            space = Space("L", tuple(f"l{i}" for i in range(rng.randint(1, 4))))
            masses = [rng.randint(0, 3) for _ in space.outcomes]
            masses[0] += 1
            pmf = LinearPrevision(space, tuple(Fraction(m, sum(masses)) for m in masses))
            cone = pmf.as_lower_prevision().cone
            f, event = random_gamble(rng, space), random_nonempty_event(rng, space)
            want = pmf.conditional(f, event) if pmf.probability(event) else None
            assert self.check(cone, f, event) == want


class TestVertexBound:
    """``_vertex_bound`` is the upper bound theorem's vertex count, and it
    bounds every step of ``_credal_vertices`` on the cones it gates in."""

    def test_a_polygon_has_as_many_vertices_as_edges(self):
        assert [_vertex_bound(3, m) for m in range(12)] == [3 + m for m in range(12)]

    def test_at_least_the_simplex(self):
        assert _vertex_bound(1, 0) == 1
        assert all(_vertex_bound(n, 0) >= n for n in range(1, 16))

    def test_twelve_generators_on_six_outcomes_are_gated_out(self):
        assert _vertex_bound(6, 12) == 210 > cones.VERTEX_CAP

    @staticmethod
    def within_its_bound(monkeypatch):
        """Run ``_credal_vertices`` with the cap at the bound of its input,
        which makes it give up if any step keeps more rays than that."""
        real, cap = cones._credal_vertices, cones.VERTEX_CAP
        results = []

        def spy(n, rows):
            bound = _vertex_bound(n, len(rows))
            monkeypatch.setattr(cones, "VERTEX_CAP", bound)
            try:
                vertices = real(n, rows)
            finally:
                monkeypatch.setattr(cones, "VERTEX_CAP", cap)
            results.append((bound, vertices))
            return vertices

        monkeypatch.setattr(cones, "_credal_vertices", spy)
        return results

    def test_queries_never_see_more_rays_than_the_bound(self, monkeypatch):
        results = self.within_its_bound(monkeypatch)
        rng = random.Random(9500)
        for _ in range(150):
            cone = random_cone(rng, max_size=6, max_gens=7)
            if cone.vertex_bound <= cones.VERTEX_CAP:
                _lower_value(cone, random_gamble(rng, cone.space), random_nonempty_event(rng, cone.space))
        assert len(results) > 100
        assert all(vertices is not None and len(vertices) <= bound for bound, vertices in results)

    def test_golden_cones_within_the_gate_keep_their_vertices(self, monkeypatch):
        results = self.within_its_bound(monkeypatch)
        gated = [
            case for case in CONE_GOLDEN if _vertex_bound(case["outcomes"], len(case["generators"])) <= cones.VERTEX_CAP
        ]
        for case in gated:
            assert golden_cone(case).credal_vertices is not None
        assert len(results) == len(gated) > 100
        assert all(vertices is not None and len(vertices) <= bound for bound, vertices in results)


class TestDominatingExpectations:
    """``_dominating_expectations`` checks a price vector r on the outcomes
    exactly: it returns E_r[g_i] per generator, at one positive scale, only
    when r >= 0 and every E_r[g_i] >= 0."""

    ABC = Space("Y", ("a", "b", "c"))
    CONE = DesirableCone(ABC, (ABC.gamble(["2/3", "-1/3", "-1/3"]), ABC.gamble([-1, 1, 0])))

    def test_dominating_vector(self):
        # The rows have scale 3, so the ints are 3 * E_r[g_i].
        assert _dominating_expectations(self.CONE, (1, 1, 1)) == (0, 0)
        assert _dominating_expectations(self.CONE, (1, 2, 0)) == (0, 3)

    def test_negative_expectation_is_not_dominating(self):
        # E_r[g_2] = -1 for r = (2, 1, 1).
        assert _dominating_expectations(self.CONE, (2, 1, 1)) is None

    def test_negative_price_is_not_dominating(self):
        # r = (3, 3, -1) gives E_r[g_1] = 4/3 and E_r[g_2] = 0, but a
        # negative mass.
        assert _dominating_expectations(self.CONE, (3, 3, -1)) is None

    def test_length_must_match_the_space(self):
        with pytest.raises(ValueError):
            _dominating_expectations(self.CONE, (1, 1))

    def test_expectations_are_exact_at_one_positive_scale(self):
        rng = random.Random(5150)
        for _ in range(60):
            cone = random_cone(rng)
            prices = tuple(rng.randint(0, 4) for _ in range(cone.space.size))
            exact = [sum((r * v for r, v in zip(prices, g.values)), Fraction(0)) for g in cone.generators]
            got = _dominating_expectations(cone, prices)
            if any(e < 0 for e in exact):
                assert got is None
                continue
            factors = {Fraction(t) / e for t, e in zip(got, exact) if e}
            assert len(factors) <= 1 and all(q > 0 for q in factors)
            assert all(t == 0 for t, e in zip(got, exact) if e == 0)

    @pytest.mark.parametrize("seed", range(40))
    def test_query_prices_are_a_dominating_pmf_attaining_the_value(self, seed):
        """The prices r of a finite query are dominating, give the event
        positive mass, and E_r[f | B] is the query's value: they solve the
        dual of the query LP, whose optimum is the lower envelope of the
        dominating conditional expectations."""
        rng = random.Random(7700 + seed)
        cone = random_cone(rng)
        f, event = random_gamble(rng, cone.space), random_nonempty_event(rng, cone.space)
        value, prices = _lower_value(cone, f, event)
        if value is None:
            assert prices == ()
            return
        assert _dominating_expectations(cone, prices) is not None
        on_event = [(r, v) for r, v, x in zip(prices, f.values, cone.space.outcomes) if x in event.members]
        mass = sum(r for r, _ in on_event)
        assert mass > 0
        assert sum((r * v for r, v in on_event), Fraction(0)) / mass == value


class TestFromScaledRows:
    """``DesirableCone.from_scaled_rows`` reads generator i off column i of
    the rows and keeps the rows as the ``scaled_rows`` cache, so rebuilding
    the rows from its generators gives them back."""

    ABC = Space("Y", ("a", "b", "c"))

    def test_no_generators(self):
        rows = ((1, ()),) * self.ABC.size
        cone = DesirableCone.from_scaled_rows(self.ABC, rows)
        assert cone.generators == ()
        assert cone.scaled_rows is rows
        assert _outcome_rows(cone.space, cone.generators) == rows
        assert cone == DesirableCone.vacuous(self.ABC)

    def test_rows_with_mixed_scales(self):
        # Values 1/2, 1/3, 0 in column 0 and 3/2, -2/3, 5 in column 1.
        rows = ((2, (1, 3)), (3, (1, -2)), (1, (0, 5)))
        cone = DesirableCone.from_scaled_rows(self.ABC, rows)
        assert cone.generators == (
            self.ABC.gamble(["1/2", "1/3", 0]),
            self.ABC.gamble(["3/2", "-2/3", 5]),
        )
        assert cone.scaled_rows is rows
        assert _outcome_rows(cone.space, cone.generators) == rows

    def test_round_trip_on_random_cones(self):
        rng = random.Random(5700)
        for _ in range(80):
            cone = random_cone(rng)
            rebuilt = DesirableCone.from_scaled_rows(cone.space, cone.scaled_rows)
            assert rebuilt == cone
            assert _outcome_rows(rebuilt.space, rebuilt.generators) == rebuilt.scaled_rows

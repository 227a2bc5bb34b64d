"""Spaces, events, gambles, and product-space constructions."""

import dataclasses
import gc
import itertools
import os
import pickle
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from desirables import spaces
from desirables.spaces import (
    EmptyEventError,
    Gamble,
    ProductSpace,
    Space,
    SpaceMismatchError,
    cylinder_event,
    cylindrical_extension,
    indicator,
    product_space,
    rectangle_event,
)

AB = Space("X", ("a", "b"))
ABC = Space("Y", ("x1", "x2", "x3"))

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def gambles_on(space):
    return st.tuples(*[rationals] * space.size).map(lambda v: Gamble(space, tuple(v)))


class TestSpaceBasics:
    def test_outcomes_must_be_distinct(self):
        with pytest.raises(ValueError):
            Space("bad", ("a", "a"))

    def test_outcomes_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Space("bad", ())

    def test_event_members_checked(self):
        with pytest.raises(ValueError):
            AB.event(["z"])

    def test_gamble_must_be_total(self):
        with pytest.raises(ValueError):
            AB.gamble({"a": 1})


class TestSpaceEquality:
    """One space object equals itself without a field read; other spaces
    are equal when they are of one class and equal field by field."""

    def test_one_object_is_equal_without_reading_its_fields(self, monkeypatch):
        prod = product_space(AB, ABC)
        gc.collect()  # no dropped product's key is hashed below
        reads = []
        for cls in (Space, ProductSpace):
            original = vars(cls)["_fields"]
            monkeypatch.setattr(cls, "_fields", lambda self, original=original: reads.append(self) or original(self))
        assert AB == AB and prod == prod
        assert not AB != AB and not prod != prod
        assert reads == []
        assert prod == ProductSpace("X*Y", AB, ABC) and reads

    def test_other_spaces_compare_field_by_field(self):
        twin = Space("X", ("a", "b"))
        assert twin is not AB and twin == AB and hash(twin) == hash(AB)
        assert Space("W", AB.outcomes) != AB and Space("X", ("b", "a")) != AB
        assert AB != "X" and AB != ("X", ("a", "b"))

    def test_the_hash_is_taken_once_from_the_fields(self, monkeypatch):
        prod = ProductSpace("P", AB, ABC)
        assert hash(AB) == hash(("X", ("a", "b")))
        assert hash(prod) == hash(("P", prod.outcomes, AB, ABC))
        reads = []
        for cls in (Space, ProductSpace):
            original = vars(cls)["_fields"]
            monkeypatch.setattr(cls, "_fields", lambda self, original=original: reads.append(self) or original(self))
        assert hash(AB) == hash(Space("X", ("a", "b"))) and hash(prod) == hash(prod)
        assert len(reads) == 1 and reads[0] is not AB  # the new space's, when it was built

    def test_an_unpickled_space_hashes_as_this_process_does(self):
        """A string's hash differs between processes, so a space pickled in
        one with another hash seed hashes here like an equal space built
        here."""
        script = (
            "import pickle, sys; from desirables.spaces import Space, product_space; "
            "x = Space('X', ('a', 'b')); "
            "sys.stdout.write(pickle.dumps((x, product_space(x, Space('Y', ('c',))))).hex())"
        )
        env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        x, prod = pickle.loads(bytes.fromhex(out.stdout))
        here = ProductSpace("X*Y", AB, Space("Y", ("c",)))
        assert x == AB and hash(x) == hash(AB) and x.index("b") == 1
        assert prod == here and hash(prod) == hash(here)
        assert {AB: 1}[x] == 1

    def test_a_product_compares_its_factors_too(self):
        prod = ProductSpace("P", AB, ABC)
        flat = Space("P", prod.outcomes)
        assert prod != flat and flat != prod
        renamed = ProductSpace("P", Space("W", AB.outcomes), ABC)
        assert renamed.outcomes == prod.outcomes and renamed != prod
        twin = ProductSpace("P", Space("X", ("a", "b")), ABC)
        assert twin is not prod and twin == prod and hash(twin) == hash(prod)


class TestIndicator:
    def test_empty_event(self):
        assert indicator(AB.event([])).values == (Fraction(0), Fraction(0))

    def test_singleton(self):
        assert indicator(AB.event(["a"])).values == (Fraction(1), Fraction(0))

    def test_full_space(self):
        assert indicator(ABC.full_event()).values == (Fraction(1),) * 3

    def test_intersection_is_pointwise_product(self):
        e1 = ABC.event(["x1", "x2"])
        e2 = ABC.event(["x2", "x3"])
        assert (indicator(e1) * indicator(e2)).values == indicator(e1.intersect(e2)).values


def _subsets(space):
    return [
        space.event(members)
        for r in range(space.size + 1)
        for members in itertools.combinations(space.outcomes, r)
    ]


class TestEventMask:
    """``Event.mask``: one 0/1 int per outcome, in outcome order."""

    @pytest.mark.parametrize("space", [AB, ABC], ids=["AB", "ABC"])
    def test_mask_marks_the_members_in_outcome_order(self, space):
        for e in _subsets(space):
            assert e.mask == tuple(int(x in e.members) for x in space.outcomes)
            assert e.sorted_members() == [x for x in space.outcomes if x in e.members]
            g = indicator(e)
            assert g.nums == e.mask and g.den == 1

    def test_empty_and_full_events(self):
        assert ABC.event([]).mask == (0, 0, 0)
        assert ABC.full_event().mask == (1, 1, 1)

    def test_intersections(self):
        for e1 in _subsets(ABC):
            for e2 in _subsets(ABC):
                assert e1.intersect(e2).mask == tuple(map(min, e1.mask, e2.mask))

    def test_reading_the_mask_leaves_equality_and_hashing_alone(self):
        fresh = lambda: ABC.event(["x3", "x1"])  # noqa: E731
        for read in ((), (0,), (1,), (0, 1)):
            events = fresh(), fresh()
            for i in read:
                assert events[i].mask == (1, 0, 1)
            assert events[0] == events[1] and hash(events[0]) == hash(events[1])
            assert len(set(events)) == 1 and events[0] != ABC.event(["x1"])

    def test_the_mask_stays_out_of_the_fields(self):
        e = ABC.event(["x3", "x1"])
        assert [f.name for f in dataclasses.fields(e)] == ["space", "members"]
        assert "mask" not in repr(e)

    def test_unknown_members_are_named(self):
        with pytest.raises(ValueError, match=r"\['zz'\] not in space 'Y'"):
            ABC.event(["x1", "zz"])

    def test_a_space_read_for_its_full_event_is_freed_without_the_collector(self):
        """The full event is made per call, so the space holds no event
        that refers back to it, and reference counting frees it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            space = Space("F", ("a", "b", "c"))
            assert space.full_event() == space.full_event()
            ref = weakref.ref(space)
            del space
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_a_lifted_mask_leaves_equality_and_hashing_alone(self):
        prod = product_space(AB, ABC)
        lifted = cylinder_event(AB.event(["b"]), prod, "left")
        same = prod.event(["b|x1", "b|x2", "b|x3"])
        assert lifted == same and hash(lifted) == hash(same)
        assert lifted.mask == same.mask == (0, 0, 0, 1, 1, 1)


class TestPointwiseAlgebra:
    def test_min_over(self):
        g = ABC.gamble([3, -1, 2])
        assert g.min_over(ABC.event(["x2", "x3"])) == -1

    def test_add(self):
        assert (AB.gamble([1, 2]) + AB.gamble([0, -2])).values == (Fraction(1), Fraction(0))

    def test_scale(self):
        assert AB.gamble([2, 4]).scale(Fraction(1, 2)).values == (Fraction(1), Fraction(2))

    def test_min_over_empty_event_rejected(self):
        with pytest.raises(EmptyEventError):
            AB.gamble([1, 2]).min_over(AB.event([]))

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatchError):
            AB.gamble([1, 2]) + ABC.gamble([1, 2, 3])

    @given(gambles_on(ABC), st.sampled_from([["x1"], ["x1", "x3"], ["x1", "x2", "x3"]]))
    def test_min_max_bracket_values(self, g, members):
        event = ABC.event(members)
        for x in members:
            assert g.min_over(event) <= g(x) <= g.max_over(event)


class TestProductSpace:
    def test_cartesian_order_and_size(self):
        prod = product_space(AB, ABC)
        assert prod.size == 6
        assert prod.outcomes[0] == "a|x1"
        assert prod.outcomes[-1] == "b|x3"

    def test_separator_reserved(self):
        bad = Space("bad", ("a|b",))
        for factors in ((bad, AB), (AB, bad)):
            with pytest.raises(ValueError, match="reserved separator"):
                product_space(*factors)
            with pytest.raises(ValueError, match="reserved separator"):
                ProductSpace("P", *factors)

    def test_outcomes_are_derived_not_passed(self):
        prod = ProductSpace("P", AB, ABC)
        assert prod.outcomes == ("a|x1", "a|x2", "a|x3", "b|x1", "b|x2", "b|x3")
        assert product_space(AB, ABC) == ProductSpace("X*Y", AB, ABC)
        with pytest.raises(TypeError):
            ProductSpace("P", prod.outcomes, AB, ABC)
        with pytest.raises(TypeError):
            ProductSpace(name="P", outcomes=prod.outcomes, left=AB, right=ABC)

    def test_equal_factors_share_the_live_product(self):
        twins = Space("X", ("a", "b")), Space("Y", ("x1", "x2", "x3"))
        assert twins[0] is not AB and twins[1] is not ABC
        prod = product_space(AB, ABC)
        assert product_space(*twins) is prod
        assert product_space(ABC, AB) is not prod

    def test_a_directly_built_product_equals_the_shared_one(self):
        prod = product_space(AB, ABC)
        direct = ProductSpace("X*Y", AB, ABC)
        assert direct is not prod and direct == prod and hash(direct) == hash(prod)

    def test_a_dropped_product_is_freed_without_the_collector(self):
        """The table holds its products weakly, so a product that every
        holder drops is freed by reference counting, and its entry goes
        with it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            factors = Space("freed-left", ("a", "b")), Space("freed-right", ("c",))
            prod = product_space(*factors)
            assert spaces._products[factors] is prod
            ref = weakref.ref(prod)
            del prod
            assert ref() is None
            assert factors not in spaces._products
        finally:
            if enabled:
                gc.enable()

    def test_cylindrical_extension_left_singleton_right(self):
        single = Space("U", ("u",))
        prod = product_space(AB, single)
        lifted = cylindrical_extension(AB.gamble([1, 2]), prod, "left")
        assert dict(zip(prod.outcomes, lifted.values)) == {"a|u": 1, "b|u": 2}

    def test_cylindrical_extension_right_depends_on_second_coordinate(self):
        uv = Space("U", ("u", "v"))
        prod = product_space(AB, uv)
        lifted = cylindrical_extension(uv.gamble([1, 0]), prod, "right")
        for a in AB.outcomes:
            assert lifted(f"{a}|u") == 1
            assert lifted(f"{a}|v") == 0

    def test_indicator_product_is_rectangle_indicator(self):
        uv = Space("U", ("u", "v"))
        prod = product_space(AB, uv)
        b1, b2 = AB.event(["a"]), uv.event(["v"])
        lhs = cylindrical_extension(indicator(b1), prod, "left") * cylindrical_extension(
            indicator(b2), prod, "right"
        )
        assert lhs.values == indicator(rectangle_event(b1, b2, prod)).values

    def test_wrong_side_rejected(self):
        prod = product_space(AB, ABC)
        with pytest.raises(SpaceMismatchError):
            cylindrical_extension(AB.gamble([1, 2]), prod, "right")

    @given(gambles_on(AB), gambles_on(AB), rationals, rationals)
    def test_cylindrical_extension_is_linear(self, f, g, alpha, beta):
        prod = product_space(AB, ABC)
        lhs = cylindrical_extension(f * alpha + g * beta, prod, "left")
        rhs = cylindrical_extension(f, prod, "left") * alpha + cylindrical_extension(
            g, prod, "left"
        ) * beta
        assert lhs.values == rhs.values

    def test_cylinder_event(self):
        prod = product_space(AB, ABC)
        lifted = cylinder_event(AB.event(["b"]), prod, "left")
        assert lifted.members == {"b|x1", "b|x2", "b|x3"}


class TestCanonicalRationalForm:
    def test_lowest_terms_positive_denominator(self):
        assert str(Fraction(2, -4)) == "-1/2"
        assert str(Fraction(3, 1)) == "3"

    def test_gamble_accepts_canonical_strings(self):
        g = AB.gamble({"a": "-1/2", "b": "3"})
        assert g.values == (Fraction(-1, 2), Fraction(3))

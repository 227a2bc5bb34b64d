"""Spaces, events, gambles, and product-space constructions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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

    def test_cylindrical_extension_left_singleton_right(self):
        single = Space("U", ("u",))
        prod = product_space(AB, single)
        lifted = cylindrical_extension(AB.gamble([1, 2]), prod, "left")
        assert lifted.as_dict() == {"a|u": 1, "b|u": 2}

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

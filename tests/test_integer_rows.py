"""Gambles and pmfs are integer rows: every operation against ``Fraction``.

A ``Gamble`` holds ``den > 0`` and ``nums`` in lowest terms as a whole, and
a ``LinearPrevision`` holds the same form of its masses.  Each operation
here is checked against the same operation written out on plain
``Fraction`` value tuples, and each result against the canonical form.
The spy tests check that gamble arithmetic, pmf expectations and the
build of a query's LP add or multiply no ``Fraction``.
"""

import copy
import math
import operator
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desirables import cones
from desirables.cones import DesirableCone, PmfWitness
from desirables.prevision import BeyondSupportError, LinearPrevision
from desirables.simplex import scaled_row
from desirables.spaces import (
    Event,
    Gamble,
    Space,
    SpaceMismatchError,
    cylinder_event,
    cylindrical_extension,
    indicator,
    product_space,
)

SPACES = (
    Space("X", ("a",)),
    Space("Y", ("y1", "y2", "y3")),
    Space("Z", tuple(f"z{k}" for k in range(6))),
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
scalars = st.one_of(rationals, st.integers(-9, 9))


def assert_row(h, space, values):
    """h is the canonical row of these Fraction values."""
    assert h.space == space
    assert h.den > 0 and math.gcd(h.den, *h.nums) == 1
    assert (h.den, h.nums) == scaled_row(values)
    assert h.values == tuple(values)
    assert all(type(v) is Fraction for v in h.values)


@st.composite
def spaced(draw, gambles=2):
    space = draw(st.sampled_from(SPACES))
    rows = [draw(st.lists(rationals, min_size=space.size, max_size=space.size)) for _ in range(gambles)]
    mask = draw(st.lists(st.booleans(), min_size=space.size, max_size=space.size))
    return space, rows, Event(space, frozenset(x for x, m in zip(space.outcomes, mask) if m))


class TestAgainstFractionReference:
    @settings(max_examples=150, deadline=None)
    @given(spaced(), scalars)
    def test_operators(self, case, c):
        space, (fv, gv), _ = case
        f, g = Gamble(space, fv), Gamble(space, gv)
        cf = Fraction(c)
        for name in ("add", "sub", "mul"):
            op = getattr(operator, name)
            assert_row(op(f, g), space, [op(a, b) for a, b in zip(fv, gv)])
            assert_row(op(f, c), space, [op(a, cf) for a in fv])
            assert_row(op(c, f), space, [op(cf, a) for a in fv])
        assert_row(f.scale(c), space, [a * cf for a in fv])
        assert_row(-f, space, [-a for a in fv])
        assert_row(f.abs(), space, [abs(a) for a in fv])

    @settings(max_examples=150, deadline=None)
    @given(spaced(gambles=1))
    def test_scalar_results_and_tests(self, case):
        space, (fv,), event = case
        f = Gamble(space, fv)
        assert f.maximum() == max(fv)
        assert f.is_nonneg == all(a >= 0 for a in fv)
        assert f.is_zero == all(a == 0 for a in fv)
        assert f.support() == Event(space, frozenset(x for x, a in zip(space.outcomes, fv) if a))
        assert [f(x) for x in space.outcomes] == fv
        inside = [a for x, a in zip(space.outcomes, fv) if x in event.members]
        if inside:
            assert f.min_over(event) == min(inside)
            assert f.max_over(event) == max(inside)
        assert_row(indicator(event), space, [Fraction(x in event.members) for x in space.outcomes])

    @settings(max_examples=60, deadline=None)
    @given(spaced(gambles=1), st.sampled_from(SPACES), st.sampled_from(["left", "right"]))
    def test_lifts(self, case, other, side):
        space, (fv,), event = case
        prod = product_space(space, other) if side == "left" else product_space(other, space)
        f = Gamble(space, fv)
        n2 = prod.right.size
        pick = (lambda k: fv[k // n2]) if side == "left" else (lambda k: fv[k % n2])
        assert_row(cylindrical_extension(f, prod, side), prod, [pick(k) for k in range(prod.size)])
        label = pick_label(prod, side)
        lifted = cylinder_event(event, prod, side)
        assert lifted.members == frozenset(x for k, x in enumerate(prod.outcomes) if label(k) in event.members)

    @settings(max_examples=150, deadline=None)
    @given(spaced(gambles=2), st.lists(st.integers(0, 5), min_size=6, max_size=6))
    def test_linear_prevision(self, case, weights):
        space, (fv, _), event = case
        weights = weights[: space.size]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        masses = [Fraction(w, total) for w in weights]
        pmf = LinearPrevision(space, tuple(masses))
        assert (pmf.den, pmf.nums) == scaled_row(masses)
        f = Gamble(space, fv)
        assert pmf.expectation(f) == sum(p * a for p, a in zip(masses, fv))
        inside = [(p, a) for x, p, a in zip(space.outcomes, masses, fv) if x in event.members]
        assert pmf.probability(event) == sum(p for p, _ in inside)
        if not inside:
            return
        mass = sum(p for p, _ in inside)
        if mass == 0:
            with pytest.raises(BeyondSupportError):
                pmf.conditional(f, event)
        else:
            assert pmf.conditional(f, event) == sum(p * a for p, a in inside) / mass


def pick_label(prod, side):
    """Outcome index k of the product to the factor outcome label it lifts."""
    n2 = prod.right.size
    if side == "left":
        return lambda k: prod.left.outcomes[k // n2]
    return lambda k: prod.right.outcomes[k % n2]


class TestCanonicalForm:
    def test_equal_values_are_equal_gambles(self):
        space = SPACES[0]
        half = Gamble(space, [Fraction(2, 4)])
        assert half == Gamble(space, [Fraction(1, 2)])
        assert hash(half) == hash(Gamble(space, [Fraction(1, 2)]))
        assert (half.den, half.nums) == (2, (1,))

    def test_from_ints_reduces_and_fixes_the_sign(self):
        space = SPACES[1]
        g = Gamble.from_ints(space, -6, [3, 6, 0])
        assert (g.den, g.nums) == (2, (-1, -2, 0))
        assert g == space.gamble(["-1/2", -1, 0])
        assert hash(g) == hash(space.gamble(["-1/2", -1, 0]))
        assert (space.zero().den, space.zero().nums) == (1, (0, 0, 0))
        with pytest.raises(ZeroDivisionError):
            Gamble.from_ints(space, 0, [1, 2, 3])
        with pytest.raises(ValueError):
            Gamble.from_ints(space, 1, [1, 2])
        with pytest.raises(TypeError):
            Gamble.from_ints(space, 1, [1.5, 2, 3])

    def test_space_is_part_of_equality(self):
        # Same outcomes, same row, another space: unequal, and no arithmetic.
        other = Space("W", SPACES[1].outcomes)
        assert SPACES[1].gamble([1, 2, 3]) != other.gamble([1, 2, 3])
        with pytest.raises(SpaceMismatchError):
            SPACES[1].gamble([1, 2, 3]) + other.gamble([1, 2, 3])

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            Gamble(SPACES[0], [0.5])

    def test_gambles_are_immutable(self):
        g = SPACES[1].gamble([1, 2, 3])
        for name in ("den", "nums", "space", "values"):
            with pytest.raises(AttributeError):
                setattr(g, name, 1)

    @settings(max_examples=100, deadline=None)
    @given(spaced(gambles=1))
    def test_values_round_trip(self, case):
        space, (fv,), _ = case
        g = Gamble(space, fv)
        assert g.values == tuple(Fraction(n, g.den) for n in g.nums)  # built on each read
        assert Gamble(space, g.values) == g
        assert Gamble.from_ints(space, g.den, g.nums) == g
        assert space.gamble([str(v) for v in fv]) == g
        assert pickle.loads(pickle.dumps(g)) == g
        assert copy.deepcopy(g) == g


#: Values with an exact ratio that are neither ints nor ``Fraction``s.
INEXACT = pytest.mark.parametrize("value", [0.5, Decimal("0.5")], ids=["float", "Decimal"])


class TestInexactValuesAreRefused:
    """``scaled_row`` makes every integer row from values, and takes ints
    and ``Fraction``s alone: a float or a ``Decimal`` raises ``TypeError``
    wherever it is given, and becomes no ratio."""

    @INEXACT
    def test_scaled_row(self, value):
        with pytest.raises(TypeError):
            scaled_row([Fraction(1, 2), value])
        assert scaled_row([Fraction(1, 2), 1, Fraction(-2, 3)]) == (6, (3, 6, -4))

    @INEXACT
    def test_gamble(self, value):
        with pytest.raises(TypeError):
            Gamble(SPACES[1], [1, value, 0])

    @INEXACT
    def test_linear_prevision(self, value):
        with pytest.raises(TypeError):
            LinearPrevision(SPACES[1], (Fraction(1, 4), value, Fraction(1, 4)))

    @INEXACT
    def test_pmf_witness(self, value):
        with pytest.raises(TypeError):
            PmfWitness(SPACES[1], (Fraction(1, 4), value, Fraction(1, 4)))
        witness = PmfWitness(SPACES[1], (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
        assert (witness.den, witness.nums) == (4, (1, 2, 1))


class TestNoFractionArithmetic:
    """Gamble arithmetic, pmf expectations and a query's LP build run on
    ints: none of them adds or multiplies a ``Fraction``."""

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
            original = getattr(Fraction, name)

            def spy(a, b, name=name, original=original):
                calls.append(name)
                return original(a, b)

            monkeypatch.setattr(Fraction, name, spy)
        return calls

    def test_gamble_and_pmf_arithmetic(self, spied):
        space, other = SPACES[1], SPACES[2]
        f = space.gamble(["1/3", "-5/4", 2])
        g = space.gamble(["7/6", 0, "-1/9"])
        event = space.event(["y1", "y3"])
        h = (f + g) * (f - g) + Fraction(5, 7) - f * Fraction(-3, 8) + 2
        h = (3 - h).scale(Fraction(2, 3)).abs() * indicator(event) - space.constant(Fraction(1, 5))
        h.min_over(event), h.max_over(event), h.maximum(), h(space.outcomes[0])
        h.is_nonneg, h.is_zero, h.support()
        prod = product_space(space, other)
        cylindrical_extension(h, prod, "left") * cylindrical_extension(other.zero() + 1, prod, "right")
        pmf = LinearPrevision(space, (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
        pmf.expectation(h), pmf.probability(event), pmf.conditional(h, event)
        assert spied == []

    def test_query_lp_build(self, spied):
        space = SPACES[2]
        gens = tuple(
            space.gamble([Fraction(k - 2 * i, i + 2) for k in range(space.size)]) for i in range(4)
        )
        cone = DesirableCone(space, gens)
        f = space.gamble([Fraction(3 * k - 7, 5) for k in range(space.size)])
        event = space.event(space.outcomes[1:4])
        floor = min(v for x, v in zip(space.outcomes, f.nums) if x in event.members)
        lp = cones._gamble_side_lp(cone, (f.den, f.nums), event, floor)
        assert len(lp.rows) == space.size
        assert spied == []

"""The product-space layout, checked against a label-based reference.

A product space derives its outcomes, and the lifts and the nested
evaluation read the left-major outcome index instead of looking labels
up.  The references below do the same work the slow way: they format
every compound label with ``compound_label`` and read or place each value
through it, so they do not depend on the index layout at all.
"""

import itertools
import random
from fractions import Fraction

import pytest

from desirables.independence import nested_evaluation
from desirables.prevision import LinearPrevision
from desirables.spaces import (
    Space,
    SpaceMismatchError,
    compound_label,
    cylinder_event,
    cylindrical_extension,
    product_space,
)


def _space(name, n):
    return Space(name, tuple(f"{name.lower()}{i}" for i in range(n)))


def _pairs():
    """Every pair of factor sizes 1-5, and each size paired with itself."""
    cases = [(_space("L", n1), _space("R", n2)) for n1 in range(1, 6) for n2 in range(1, 6)]
    cases += [(x, x) for x in (_space("S", n) for n in range(1, 6))]
    return cases


PAIRS = _pairs()
IDS = [f"{a.name}{a.size}x{b.name}{b.size}" for a, b in PAIRS]


def _labels(prod):
    return [
        (a, b, compound_label(a, b)) for a in prod.left.outcomes for b in prod.right.outcomes
    ]


def ref_cylindrical_extension(g, prod, side):
    return prod.gamble(
        {label: g(a if side == "left" else b) for a, b, label in _labels(prod)}
    )


def ref_cylinder_event(event, prod, side):
    return prod.event(
        label for a, b, label in _labels(prod) if (a if side == "left" else b) in event
    )


def ref_nested_evaluation(inner, f, prod, inner_side):
    outer = prod.factor("left" if inner_side == "right" else "right")
    values = {}
    for y in outer.outcomes:
        total = Fraction(0)
        for z in inner.space.outcomes:
            label = compound_label(y, z) if inner_side == "right" else compound_label(z, y)
            total += inner.mass(z) * f(label)
        values[y] = total
    return outer.gamble(values)


def _gamble(rng, space):
    return space.gamble([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in space.outcomes])


def _pmf(rng, space):
    weights = [rng.randint(0, 5) for _ in space.outcomes]
    weights[rng.randrange(space.size)] += 1
    return LinearPrevision(space, tuple(Fraction(w, sum(weights)) for w in weights))


@pytest.mark.parametrize("left, right", PAIRS, ids=IDS)
class TestAgainstLabels:
    def test_outcomes_are_the_compound_labels(self, left, right):
        prod = product_space(left, right)
        assert prod.outcomes == tuple(label for _a, _b, label in _labels(prod))
        assert prod.size == left.size * right.size

    def test_cylindrical_extension(self, left, right):
        rng = random.Random(left.size * 10 + right.size)
        prod = product_space(left, right)
        for side in ("left", "right"):
            for _ in range(4):
                g = _gamble(rng, prod.factor(side))
                lifted = cylindrical_extension(g, prod, side)
                assert lifted == ref_cylindrical_extension(g, prod, side)

    def test_cylinder_event_on_every_factor_event(self, left, right):
        prod = product_space(left, right)
        for side in ("left", "right"):
            factor = prod.factor(side)
            for r in range(factor.size + 1):
                for members in itertools.combinations(factor.outcomes, r):
                    event = factor.event(members)
                    assert cylinder_event(event, prod, side) == ref_cylinder_event(event, prod, side)

    def test_nested_evaluation_both_sides(self, left, right):
        rng = random.Random(100 + left.size * 10 + right.size)
        prod = product_space(left, right)
        for inner_side in ("left", "right"):
            for _ in range(4):
                inner = _pmf(rng, prod.factor(inner_side))
                f = _gamble(rng, prod)
                got = nested_evaluation(inner, f, prod, inner_side)
                assert got == ref_nested_evaluation(inner, f, prod, inner_side)


def test_nested_evaluation_needs_a_pmf_on_the_integrated_factor():
    x, y = _space("L", 2), _space("R", 3)
    prod = product_space(x, y)
    with pytest.raises(SpaceMismatchError):
        nested_evaluation(LinearPrevision.uniform(x), prod.zero(), prod, "right")

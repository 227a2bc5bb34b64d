"""Epistemic independence and the independent natural extension.

Two marginal models on finite spaces are combined into the smallest
epistemically independent joint model.  The strength of the independence
assessment is set by a conditioning-event family per factor: atoms
(singleton events), all non-empty events, or a custom list taken
literally.  On a finite space, closing a family under finite disjoint
unions never changes the joint values, so the all-events family is
realised through the atoms during construction.  The custom family of
every non-empty subset materialises them instead, which is how that
equivalence is tested rather than assumed.

The joint cone is generated by the marginal generators conditioned on
family events:

    ext(g2) * ext(indicator(B1))   for g2 a right-marginal generator,
                                       B1 in family1 or B1 = X1,
    ext(g1) * ext(indicator(B2))   symmetrically.

When the generator events of family1 are the atoms, the B1 = X1 generator
is the sum of the atom generators and is left out (and symmetrically).

The joint is one object, a :class:`DesirableCone` on the product space:
``independent_product_cone`` returns it for two marginal cones, and
:class:`IndependentNaturalExtension` keeps it as ``joint_cone`` for two
marginal assessments.  ``_joint_generators`` builds its generators and
``_joint_rows`` its integer outcome rows (``DesirableCone.scaled_rows``):
every joint entry is a marginal value or zero, so the row at (x1, x2) is
the marginal cones' cached rows at x1 and x2, brought to one scale and
masked by event membership, and no joint ``Fraction`` is converted.  An
``IndependentNaturalExtension`` builds only the rows; its ``joint_cone``
is built on first read, because a query reads nothing but the rows.  Its
marginal and conditional cones are views of it, :class:`MarginalConeView`.

Joint lower previsions are exact LP optima over this cone.  With coherent
marginals the joint is coherent, reproduces the marginals, and satisfies
factorisation and external additivity; those statements are executable
properties, exercised by the test suites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional, Sequence

from .cones import DesirableCone
from .measurability import require_measurable
from .prevision import (
    ConditionalLowerPrevision,
    LinearPrevision,
    lower_prevision,
)
from .spaces import (
    Event,
    Gamble,
    ProductSpace,
    Space,
    SpaceMismatchError,
    cylinder_event,
    cylindrical_extension,
    indicator,
    product_space,
)

ATOMS = "atoms"
ALL_NONEMPTY = "all"
CUSTOM = "custom"


class IncoherentMarginalError(ValueError):
    """A marginal model failed its coherence check."""


@dataclass(frozen=True)
class EventFamily:
    """A set of non-empty conditioning events on one factor space."""

    space: Space
    kind: str
    custom_events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (ATOMS, ALL_NONEMPTY, CUSTOM):
            raise ValueError(f"unknown family kind {self.kind!r}")
        for e in self.custom_events:
            if e.space != self.space:
                raise SpaceMismatchError("family event on a different space")
            e.require_nonempty()
        if self.kind != CUSTOM and self.custom_events:
            raise ValueError("explicit events are only allowed for custom families")

    @staticmethod
    def atoms(space: Space) -> "EventFamily":
        return EventFamily(space, ATOMS)

    @staticmethod
    def all_nonempty(space: Space) -> "EventFamily":
        return EventFamily(space, ALL_NONEMPTY)

    @staticmethod
    def custom(space: Space, events: Iterable[Event]) -> "EventFamily":
        return EventFamily(space, CUSTOM, tuple(events))

    @staticmethod
    def empty(space: Space) -> "EventFamily":
        return EventFamily(space, CUSTOM, ())

    def events(self) -> tuple[Event, ...]:
        """The family members, materialised (exponentially many for 'all')."""
        if self.kind == ATOMS:
            return self.space.atoms()
        if self.kind == ALL_NONEMPTY:
            outcomes = self.space.outcomes
            members = []
            for size in range(1, len(outcomes) + 1):
                for subset in itertools.combinations(outcomes, size):
                    members.append(Event(self.space, frozenset(subset)))
            return tuple(members)
        return self.custom_events

    def generator_events(self) -> tuple[Event, ...]:
        """Events used to build joint generators and simple gambles.  The
        all-events family rides on the atoms (finite disjoint unions add
        nothing); ``custom(space, all_nonempty(space).events())`` is the
        same family with every subset materialised."""
        if self.kind == ALL_NONEMPTY:
            return self.space.atoms()
        return self.events()


def _event_indices(family: Optional[EventFamily], factor: Space) -> list[list[int]]:
    """The outcome indices of each generator event of a factor's family.
    A missing family, the atoms and the all-events family give the atoms,
    in outcome order.  A custom family gives its events without repeats, in
    first-seen order, then its full event when it does not list it, so no
    generator column is repeated."""
    if family is not None and family.space != factor:
        raise SpaceMismatchError("family space does not match its marginal")
    if family is None or family.kind != CUSTOM:
        return [[k] for k in range(factor.size)]
    events = dict.fromkeys(e.members for e in family.custom_events)
    events[frozenset(factor.outcomes)] = None
    return [[k for k, x in enumerate(factor.outcomes) if x in e] for e in events]


def _joint_generators(
    prod: ProductSpace,
    left: DesirableCone,
    right: DesirableCone,
    left_events: list[list[int]],
    right_events: list[list[int]],
) -> tuple[Gamble, ...]:
    """The INE generators on the product space.

    Each is a marginal generator's values on the cylinder of a conditioning
    event and zero elsewhere, in left-major outcome order: first every
    right generator on every left event, then every left generator on every
    right event.  A side whose generator events are the atoms gets no
    full-event generator: it is the sum of the atom generators.
    """
    n2 = right.space.size
    blank = [Fraction(0)] * prod.size
    gens: list[Gamble] = []
    for g2 in right.generators:
        for b1 in left_events:
            values = blank.copy()
            for i in b1:
                values[i * n2 : (i + 1) * n2] = g2.values
            gens.append(Gamble(prod, tuple(values)))
    for g1 in left.generators:
        for b2 in right_events:
            values = blank.copy()
            for j in b2:
                values[j::n2] = g1.values
            gens.append(Gamble(prod, tuple(values)))
    return tuple(gens)


def _joint_rows(
    left: DesirableCone,
    right: DesirableCone,
    left_events: list[list[int]],
    right_events: list[list[int]],
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The ``scaled_rows`` of the ``_joint_generators`` columns, taken from
    the marginal cones' rows.

    The row at outcome (x1, x2) holds the right generators' values at x2,
    the left generators' values at x1, and zeros.  Every value occurs in
    it, because each side's events cover its space (the atoms, or a custom
    family with its full event), so its scale is the lcm of the two
    marginal rows' scales, and its ints are theirs brought to that scale
    and masked by event membership.
    """
    # Generator k * m1 + e is the right generator k on left event e, and
    # r_block + k * m2 + e the left generator k on right event e.
    m1, m2 = len(left_events), len(right_events)
    r_block = len(right.generators) * m1
    width = r_block + len(left.generators) * m2
    left_in: list[list[int]] = [[] for _ in range(left.space.size)]
    for e, b in enumerate(left_events):
        for i in b:
            left_in[i].append(e)
    right_in: list[list[int]] = [[] for _ in range(right.space.size)]
    for e, b in enumerate(right_events):
        for j in b:
            right_in[j].append(e)
    rows = []
    for (s1, ints1), in1 in zip(left.scaled_rows, left_in):
        for (s2, ints2), in2 in zip(right.scaled_rows, right_in):
            scale = s1 if s1 == s2 else lcm(s1, s2)
            at1 = ints1 if scale == s1 else [v * (scale // s1) for v in ints1]
            at2 = ints2 if scale == s2 else [v * (scale // s2) for v in ints2]
            ints = [0] * width
            for e in in1:
                ints[e:r_block:m1] = at2
            for e in in2:
                ints[r_block + e :: m2] = at1
            rows.append((scale, tuple(ints)))
    return tuple(rows)


def independent_product_cone(
    left: DesirableCone,
    right: DesirableCone,
    left_family: Optional[EventFamily] = None,
    right_family: Optional[EventFamily] = None,
) -> DesirableCone:
    """The joint cone of the independent natural extension of two marginal
    cones, on their product space.

    Each marginal must pass its strict coherence check (no non-positive
    element).  Boundary or self-conjugate marginal cones, which
    legitimately contain the zero gamble, are combined through
    :class:`IndependentNaturalExtension`, which checks coherence of the
    marginal assessments instead.
    """
    for name, cone in (("left", left), ("right", right)):
        if not cone.is_coherent():
            raise IncoherentMarginalError(f"{name} marginal cone is incoherent")
    events = _event_indices(left_family, left.space), _event_indices(right_family, right.space)
    prod = product_space(left.space, right.space)
    return DesirableCone.with_scaled_rows(
        prod, _joint_generators(prod, left, right, *events), _joint_rows(left, right, *events)
    )


def _other_side(side: str) -> str:
    return "right" if side == "left" else "left"


@dataclass(frozen=True)
class MarginalConeView:
    """A queryable marginal or conditional cone of a joint cone on a
    product space.

    Membership of a factor gamble f means membership of its cylindrical
    extension (times the indicator of the other-factor conditioning event)
    in the joint cone; nothing is materialised.
    """

    joint: DesirableCone
    side: str
    other_event: Optional[Event] = None

    def __post_init__(self) -> None:
        if not isinstance(self.joint.space, ProductSpace):
            raise SpaceMismatchError("the joint cone is not on a product space")
        if self.other_event is not None:
            if self.other_event.space != self.prod.factor(_other_side(self.side)):
                raise SpaceMismatchError("conditioning event on the wrong factor")
            self.other_event.require_nonempty()

    @property
    def prod(self) -> ProductSpace:
        return self.joint.space

    @property
    def space(self) -> Space:
        return self.prod.factor(self.side)

    def contains(self, f: Gamble) -> bool:
        lifted = cylindrical_extension(f, self.prod, self.side)
        if self.other_event is not None and not self.other_event.is_full:
            lifted = lifted * cylindrical_extension(
                indicator(self.other_event), self.prod, _other_side(self.side)
            )
        return self.joint.contains(lifted)


# ---------------------------------------------------------------------------
# Independent natural extension of lower previsions
# ---------------------------------------------------------------------------


class IndependentNaturalExtension:
    """The joint lower prevision of two coherent marginal assessments under
    an epistemic-independence assessment.

    Queries run over the joint cone built from the marginal natural
    extension cones; the restriction to either factor reproduces the local
    natural extension, and conditioning on family events of the other
    factor leaves local values unchanged.  Missing families default to the
    atoms.

    Construction builds the product space and the joint cone's integer
    rows, ``scaled_rows``, and queries read only those.  ``joint_cone``,
    with its ``Gamble`` generators, is built on first read and kept.
    """

    def __init__(
        self,
        left: ConditionalLowerPrevision,
        right: ConditionalLowerPrevision,
        left_family: Optional[EventFamily] = None,
        right_family: Optional[EventFamily] = None,
    ):
        for name, model in (("left", left), ("right", right)):
            if not model.is_coherent():
                raise IncoherentMarginalError(
                    f"{name} marginal assessment is incoherent: "
                    f"{model.coherence.violation.kind}"
                )
        self._marginals = left.cone, right.cone
        self._events = _event_indices(left_family, left.space), _event_indices(right_family, right.space)
        self.space = product_space(left.space, right.space)
        #: The joint cone's ``scaled_rows``, which are all that a query reads.
        self.scaled_rows = _joint_rows(*self._marginals, *self._events)

    @cached_property
    def joint_cone(self) -> DesirableCone:
        """The joint cone, with its generators built on first read."""
        generators = _joint_generators(self.space, *self._marginals, *self._events)
        return DesirableCone.with_scaled_rows(self.space, generators, self.scaled_rows)

    def lower(self, f: Gamble, event: Optional[Event] = None) -> Fraction:
        return lower_prevision(self, f, event)

    def upper(self, f: Gamble, event: Optional[Event] = None) -> Fraction:
        return -self.lower(-f, event)

    # -- lifting helpers ----------------------------------------------------

    def lift(self, f: Gamble) -> Gamble:
        """Cylindrically extend a factor gamble to the product space."""
        if f.space == self.space.left:
            return cylindrical_extension(f, self.space, "left")
        if f.space == self.space.right:
            return cylindrical_extension(f, self.space, "right")
        if f.space == self.space:
            return f
        raise SpaceMismatchError("gamble belongs to neither factor nor the product")

    def lift_event(self, event: Event) -> Event:
        if event.space == self.space.left:
            return cylinder_event(event, self.space, "left")
        if event.space == self.space.right:
            return cylinder_event(event, self.space, "right")
        if event.space == self.space:
            return event
        raise SpaceMismatchError("event belongs to neither factor nor the product")


# ---------------------------------------------------------------------------
# Epistemic-independence verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceCheck:
    side: str
    gamble: Gamble
    local_event: Event
    other_event: Event
    unconditional: Fraction
    conditioned: Fraction

    @property
    def equal(self) -> bool:
        return self.unconditional == self.conditioned


@dataclass(frozen=True)
class IndependenceReport:
    checks: tuple[IndependenceCheck, ...]

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.checks)

    def violations(self) -> list[IndependenceCheck]:
        return [c for c in self.checks if not c.equal]


def check_epistemic_independence(
    joint: "IndependentNaturalExtension | ConditionalLowerPrevision",
    left_family: EventFamily,
    right_family: EventFamily,
    samples: Sequence[tuple[str, Gamble, Optional[Event]]],
) -> IndependenceReport:
    """Compare local conditional values with and without extra conditioning
    on family events of the other factor, exactly.

    ``joint`` is an independent natural extension, or any
    ``ConditionalLowerPrevision`` on a product space (to probe a direct
    joint assessment).  ``samples`` holds (side, local gamble, local event
    or None) triples; the caller chooses the local domain to probe.
    """
    prod = joint.space
    if not isinstance(prod, ProductSpace):
        raise SpaceMismatchError("the joint model is not on a product space")
    checks = []
    for side, f, local_event in samples:
        factor = prod.factor(side)
        if f.space != factor:
            raise SpaceMismatchError(f"sample gamble is not on the {side} factor")
        local_event = local_event if local_event is not None else factor.full_event()
        other_side = _other_side(side)
        family = right_family if side == "left" else left_family
        lifted_f = cylindrical_extension(f, prod, side)
        base_event = cylinder_event(local_event, prod, side)
        base = joint.lower(lifted_f, base_event)
        for b_other in family.events():
            joint_event = base_event.intersect(cylinder_event(b_other, prod, other_side))
            value = joint.lower(lifted_f, joint_event)
            checks.append(
                IndependenceCheck(
                    side=side,
                    gamble=f,
                    local_event=local_event,
                    other_event=b_other,
                    unconditional=base,
                    conditioned=value,
                )
            )
    return IndependenceReport(tuple(checks))


# ---------------------------------------------------------------------------
# Factorisation, external additivity, nested evaluation
# ---------------------------------------------------------------------------


def factorisation_closed_form(
    local_i: ConditionalLowerPrevision,
    local_j: ConditionalLowerPrevision,
    g: Gamble,
    h: Gamble,
) -> Fraction:
    """lower_i(g) * lower_j(h) when lower_j(h) >= 0, else upper_i(g) * lower_j(h),
    for non-negative g on factor i; both branches agree at zero."""
    if not g.is_nonneg:
        raise ValueError("factorisation requires a non-negative gamble g")
    c = local_j.lower(h)
    if c >= 0:
        return local_i.lower(g) * c
    return local_i.upper(g) * c


def factored_sum(
    local_i: ConditionalLowerPrevision,
    local_j: ConditionalLowerPrevision,
    family_i: EventFamily,
    f: Gamble,
    g: Gamble,
    h: Gamble,
) -> Fraction:
    """The joint value of f + g*h evaluated through local models only:
    lower_i(f + g * lower_j(h)), for g >= 0 and measurable with respect to
    the factor-i conditioning family.

    Raises MeasurabilityError (carrying a witness level set) when g is not
    family-measurable; without measurability the joint value can fall
    strictly below this closed form.
    """
    if f.space != local_i.space or g.space != local_i.space:
        raise SpaceMismatchError("f and g must live on factor i")
    if h.space != local_j.space:
        raise SpaceMismatchError("h must live on factor j")
    require_measurable(g, family_i)
    c = local_j.lower(h)
    return local_i.lower(f + g * c)


def nested_evaluation(
    inner: LinearPrevision, f: Gamble, prod: ProductSpace, inner_side: str
) -> Gamble:
    """Integrate out one factor with the pmf ``inner`` on it: for
    inner_side='right', the gamble x1 -> inner(f(x1, .)) on the left
    factor, and symmetrically.  In the left-major product order f(x1, .)
    is a block of ``f.values`` and f(., x2) a stride, so both are slices."""
    if f.space != prod:
        raise SpaceMismatchError("gamble is not on the product space")
    if inner.space != prod.factor(inner_side):
        raise SpaceMismatchError(f"the inner pmf is not on the {inner_side} factor")
    n2 = prod.right.size
    if inner_side == "right":
        outer = prod.left
        sections = (f.values[i * n2 : (i + 1) * n2] for i in range(outer.size))
    else:
        outer = prod.right
        sections = (f.values[j::n2] for j in range(n2))
    zero = Fraction(0)
    values = tuple(sum((p * v for p, v in zip(inner.masses, row)), zero) for row in sections)
    return Gamble(outer, values)


@dataclass(frozen=True)
class SandwichReport:
    lower_joint: Fraction
    nested_left_of_right: Fraction
    nested_right_of_left: Fraction
    upper_joint: Fraction

    @property
    def holds(self) -> bool:
        return (
            self.lower_joint <= self.nested_left_of_right <= self.upper_joint
            and self.lower_joint <= self.nested_right_of_left <= self.upper_joint
        )


def nested_sandwich(
    left: LinearPrevision,
    right: LinearPrevision,
    f: Gamble,
    left_family: Optional[EventFamily] = None,
    right_family: Optional[EventFamily] = None,
) -> SandwichReport:
    """Exactly compare the joint lower/upper values of linear marginals with
    both nested evaluations: the nested values always sit between them."""
    ine = IndependentNaturalExtension(
        left.as_lower_prevision(),
        right.as_lower_prevision(),
        left_family,
        right_family,
    )
    if f.space != ine.space:
        raise SpaceMismatchError("gamble is not on the product space")
    nested_lr = left.expectation(nested_evaluation(right, f, ine.space, "right"))
    nested_rl = right.expectation(nested_evaluation(left, f, ine.space, "left"))
    return SandwichReport(
        lower_joint=ine.lower(f),
        nested_left_of_right=nested_lr,
        nested_right_of_left=nested_rl,
        upper_joint=ine.upper(f),
    )

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
marginal assessments.  ``_joint_rows`` builds its integer outcome rows
(``DesirableCone.scaled_rows``): every joint entry is a marginal value or
zero, so the row at (x1, x2) is the marginal cones' cached rows at x1 and
x2, brought to one scale and masked by event membership, and no joint
``Fraction`` is converted.  ``DesirableCone.from_scaled_rows`` reads the
generators off those rows' columns, so there is one builder and the
rows and generators agree by construction.  An
``IndependentNaturalExtension`` builds its ``joint_cone`` on first read
and keeps it; only a query that falls back on the joint cone reads it.
Its marginal and conditional cones are views of it,
:class:`MarginalConeView`.  All an INE reads of its families is their
generator-event masks, ``EventFamily.masks``, built with each family, and
its product space is ``spaces.product_space``'s live one.  So an INE on
families and a product that a caller holds builds neither: it reads the
masks and derives its routes (below) from them.

Joint lower previsions are exact LP optima over this cone.  With coherent
marginals the joint is coherent, reproduces the marginals, and satisfies
factorisation and external additivity; those statements are executable
properties, exercised by the test suites.

Many queries need neither the LP nor the joint rows.  Say the left
family's generator events hold every atom (``atoms``, ``all``, or a
custom family listing each singleton); otherwise the same holds with the
sides swapped.  Then the joint cone holds g2 * I_{x1} for every right
generator g2 and left outcome x1, and g1 * 1 for every left generator g1.
So a dominating joint pmf p has each conditional p(. | x1) in the right
credal set K2 and its left marginal p1 in K1, and for a cylinder event
A x Y (A = X for an unconditional query)

    lower(f | A x Y) >= LB = min { E_v[H | A] : v a vertex of K1, v(A) > 0 },
    H(x1) = min { E_w[f(x1, .)] : w a vertex of K2 },

the marginal extension (Miranda & De Cooman 2007); a ratio of linear
maps is least over K1 at a vertex.  Such a side is a *route*.  The
``lower`` method of :class:`IndependentNaturalExtension` computes LB from
the marginal cones' cached integer ``credal_vertices``, and keeps every
vertex that attains each minimum: the candidates for p1, and for each
p2^{x1}.  For any such choice the product pmf p1(x1) p2^{x1}(x2) gives f
the conditional expectation LB.  It gives every generator g2 * I_{B1} a
non-negative expectation, because each p2^{x1} is in K2, and g1 on the
full right event too, because p1 is in K1.  What is left is checked in
ints: for every left generator g1 and every other right generator event
B2, sum_x1 p1(x1) g1(x1) p2^{x1}(B2) >= 0.  An inner vertex q tied
wherever p1 has mass in A, taken at every x1, passes them all (each sum
is q(B2) E_p1[g1]), so it is looked for first; then combinations of tied
minimisers, at most ``TIE_COMBINATIONS``.  When a choice passes, the
product pmf dominates and attains LB, so by weak duality the query's
value is LB exactly, and the query runs no LP and builds no joint row.

Only an event that no route makes its cylinder tries a second
certificate, which holds for any families and any event B.  A product
v1 (x) v2 of marginal credal vertices dominates every joint generator
(the INE contains the product of its marginals), so when it gives B
positive mass and none to the outcomes of B where f exceeds min_B f, its
conditional expectation min_B f is the query's value: no value is below
min_B f.  (On a route's cylinder LB >= min_B f, and such a product is a
tied p1 with a common q.)

When the one certificate fails, or a marginal has no vertices (its
enumeration passed ``cones.VERTEX_CAP``), a query on an INE with a route
whose inner cone is within the vertex gate (``vertex_bound`` at most
``cones.VERTEX_CAP``, the gate of ``cones._lower_value``) is answered by
a master LP, ``_master_lower``: the decomposition of De Cooman, Miranda &
Zaffalon (2011), solved by row generation as Dantzig & Wolfe (1960) do.
With mu = min_B f + nu, the joint LP asks for lambda >= 0 on the joint
generators with (f - mu) I_B - sum lambda g >= 0.  A route's generators
g2 * I_{x1} act on the section at x1 alone, and by Farkas' lemma a
section h is a non-negative combination of the inner generators plus a
non-negative gamble exactly when E_w[h] >= 0 at every inner credal vertex
w.  So the joint LP is the master over the columns lambda_{g1, B2} (an
outer generator g1 on an inner generator event B2) and nu, with one row
per outer outcome x1 and inner vertex w:

    sum lambda g1(x1) w(B2) + nu w(B_x1) <= E_w[(f - min_B f) I_B(x1, .)].

It starts from a few rows, and at each round's optimum adds, at each x1,
the vertex with the least negative slack; a round that adds none leaves
every row satisfied, so min_B f + nu is the value.  It is a relaxation
with at most n1 |V2| rows, so it terminates.  The gate bounds the vertex
ints in the rows: without it, a 6x6 INE of 12-entry marginals built a
master whose tableau integers passed 300 bits.  With no such route, no
inner vertex reaching a section of B, or an unbounded master (a
relaxation can be unbounded where the full problem is not), the query
falls back on ``lower_prevision(joint_cone, ...)``, as any cone is
queried, which raises ``SureLossError`` or ``BeyondSupportError``.  The
certified and master paths run after the same argument checks, so every
error is the joint cone's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from . import cones
from .cones import DesirableCone, _least_ratio
from .measurability import MAX_FIELD_ATOMS, FamilyTooLargeError, require_measurable
from .prevision import (
    ConditionalLowerPrevision,
    LinearPrevision,
    _query_event,
    lower_prevision,
)
from .simplex import DANTZIG, LESS_EQUAL, LinearProgram, LPStatus
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
    """A set of non-empty conditioning events on one factor space.

    ``masks`` holds the ``Event.mask`` of each event that conditions a
    joint generator.  The atoms and the all-events family give the atoms'
    unit masks, in outcome order, with no ``Event`` built.  A custom
    family gives its events' masks without repeats, in first-seen order,
    then the full event's when it does not list it, so no generator column
    is repeated.  It is built with the family and set outside the fields,
    so equality, hashing and repr read only those."""

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
        n = self.space.size
        if self.kind == CUSTOM:
            masks = dict.fromkeys(e.mask for e in self.custom_events)
            masks[(1,) * n] = None
        else:
            masks = ((0,) * k + (1,) + (0,) * (n - 1 - k) for k in range(n))
        object.__setattr__(self, "masks", tuple(masks))

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
        """The family members, materialised: 2^n - 1 of them for 'all',
        which raises ``FamilyTooLargeError`` past
        ``measurability.MAX_FIELD_ATOMS`` outcomes instead."""
        if self.kind == ATOMS:
            return self.space.atoms()
        if self.kind == ALL_NONEMPTY:
            outcomes = self.space.outcomes
            if len(outcomes) > MAX_FIELD_ATOMS:
                raise FamilyTooLargeError(
                    f"the all-events family on {self.space.name!r} has 2^{len(outcomes)} - 1 events; "
                    f"it is materialised on at most {MAX_FIELD_ATOMS} outcomes"
                )
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


def _event_masks(family: Optional[EventFamily], factor: Space) -> tuple[tuple[int, ...], ...]:
    """The ``EventFamily.masks`` of a factor's family; a missing family is
    the atoms."""
    if family is None:
        family = EventFamily.atoms(factor)
    elif family.space != factor:
        raise SpaceMismatchError("family space does not match its marginal")
    return family.masks


def _joint_rows(
    left: DesirableCone,
    right: DesirableCone,
    left_events: Sequence[tuple[int, ...]],
    right_events: Sequence[tuple[int, ...]],
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The ``scaled_rows`` of the INE joint cone, taken from the marginal
    cones' rows.

    Each joint generator is a marginal generator's values on the cylinder
    of a conditioning event and zero elsewhere: first every right
    generator on every left event, then every left generator on every
    right event.  A side whose generator events are the atoms gets no
    full-event generator: it is the sum of the atom generators.  The rows
    run over the outcomes in left-major order, and the row at outcome
    (x1, x2) holds the right generators' values at x2,
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
    # The events holding each outcome, read down the masks' columns.
    left_in = [list(itertools.compress(range(m1), column)) for column in zip(*left_events)]
    right_in = [list(itertools.compress(range(m2), column)) for column in zip(*right_events)]
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
    events = _event_masks(left_family, left.space), _event_masks(right_family, right.space)
    prod = product_space(left.space, right.space)
    return DesirableCone.from_scaled_rows(prod, _joint_rows(left, right, *events))


def _cylinder_base(event: Event, sections: Sequence[slice]) -> Optional[list[int]]:
    """The indicator of the base A, as 0/1 per outer outcome, when the
    product event is the cylinder A x Y over the outer factor whose
    outcomes have these ``sections`` of the product's outcome indices;
    None when it is not such a cylinder."""
    if event.is_full:
        return [1] * len(sections)
    mask, area = event.mask, []
    for s in sections:
        block = mask[s]
        if all(block):
            area.append(1)
        elif any(block):
            return None
        else:
            area.append(0)
    return area


#: The most combinations of tied minimisers that ``_coupled`` tries against
#: the coupling rows for one query.
TIE_COMBINATIONS = 64


def _marginal_extension(
    outer: DesirableCone,
    inner: DesirableCone,
    inner_events: Sequence[tuple[int, ...]],
    sections: Sequence[slice],
    area: list[int],
    f: Gamble,
) -> Optional[Fraction]:
    """The marginal-extension bound LB on lower(f | A x Y) from the
    marginals' credal vertices when a product pmf of tied minimisers
    certifies it as the value; None when none does, a marginal has no
    vertices or no outer vertex gives A positive mass.

    H(x1) is the least inner-vertex expectation of f(x1, .), and LB the
    least E_v[H | A] over the outer vertices v with v(A) > 0.  Both minima
    are ``cones._least_ratio`` scans, in ints: the vertices of each
    marginal share one denominator, so H is an int row over the inner one
    and each E_v[H | A] a ratio of ints.  The scans return every
    minimiser, and ``_coupled`` looks among them for p1 and the p2^{x1}.
    """
    outer_vertices, inner_vertices = outer.credal_vertices, inner.credal_vertices
    if not outer_vertices or not inner_vertices:
        return None
    scans = [_least_ratio(inner_vertices, f.nums[s]) for s in sections]
    least = _least_ratio(outer_vertices, [low for low, _, _ in scans], area)
    if least is None:
        return None
    best, mass, outer_tied = least
    tied = [ws for _, _, ws in scans]
    if not _coupled([g.nums for g in outer.generators], inner_events, area, outer_tied, tied):
        return None
    return Fraction(best, mass * sum(inner_vertices[0]) * f.den)


def _coupled(
    outer_rows: list[tuple[int, ...]],
    inner_events: Sequence[tuple[int, ...]],
    area: list[int],
    outer_tied: list[Sequence[int]],
    inner_tied: list[list[Sequence[int]]],
) -> bool:
    """Whether a tied outer minimiser p1 and, at each x1 in its support, an
    inner vertex p2^{x1} tied at x1 in ``area`` pass every coupling row:
    for every outer generator g1 (its ``nums`` in ``outer_rows``) and every
    ``inner_events`` member B2, sum_x1 p1(x1) g1(x1) p2^{x1}(B2) >= 0.

    Any such choice gives a product pmf p1(x1) p2^{x1}(x2) that attains LB
    and dominates every joint generator.  A vertex q tied wherever p1 has
    mass in the area, taken at every x1, passes (each row is
    q(B2) E_p1[g1] >= 0), so it is looked for first, with no column built.
    Otherwise each x1 contributes a column of terms p1(x1) g1(x1)
    p2^{x1}(B2), one per row, and inner minimisers with equal columns are
    one choice.  The first minimisers are tried first, then the other
    combinations in order, at most ``TIE_COMBINATIONS`` in all.
    """
    for p1 in outer_tied:
        first, *rest = (inner_tied[i] for i, w in enumerate(p1) if w and area[i])
        if set(first).intersection(*rest):
            return True
    masses: dict[Sequence[int], list[int]] = {}
    budget = TIE_COMBINATIONS
    for p1 in outer_tied:
        choices = []
        for i, w in enumerate(p1):
            if w:
                terms = [w * g[i] for g in outer_rows]
                columns = {}
                for p2 in inner_tied[i]:
                    if p2 not in masses:
                        masses[p2] = [sum(map(mul, p2, b)) for b in inner_events]
                    columns[tuple(t * m for m in masses[p2] for t in terms)] = None
                choices.append(columns)
        for combination in itertools.product(*choices):
            if all(sum(row) >= 0 for row in zip(*combination)):
                return True
            budget -= 1
            if not budget:
                return False
    return False


def _min_attained(
    left_supports: Sequence[int],
    right_supports: Sequence[int],
    event: Event,
    f: Gamble,
    minimum: Fraction,
) -> bool:
    """Whether a product v1 (x) v2 of a left and a right credal vertex gives
    the event B positive mass, all of it where f is ``minimum``, min_B f.

    Such a product gives every joint generator a non-negative expectation,
    whatever the families: v1(B1) E_v2[g2] for g2 * I_{B1}, and
    v2(B2) E_v1[g1] for g1 * I_{B2}.  So it is a dominating pmf whose
    conditional expectation of f given B is min_B f, and lower(f | B),
    which is never below min_B f, equals it.  Only supports matter, so the
    marginals' cached ``vertex_supports`` are passed: per left outcome x1,
    bit masks over the right outcomes mark where B holds with
    f = min_B f and with f > min_B f, and a pair of supports S1 x S2
    qualifies when S2 meets the first mask of some x1 in S1 and no second
    one.
    """
    low = int(minimum * f.den)
    mask, nums = event.mask, f.nums
    masks = []
    for s in event.space.sections("left"):
        row = [0, 0]
        for j, (inside, v) in enumerate(zip(mask[s], nums[s])):
            if inside:
                row[v != low] |= 1 << j
        masks.append(row)
    for support in left_supports:
        reach = barred = 0
        for k, (at_low, above) in enumerate(masks):
            if support >> k & 1:
                reach |= at_low
                barred |= above
        if reach and any(s & reach and not s & barred for s in right_supports):
            return True
    return False


def _master_lower(
    outer: DesirableCone,
    inner_vertices: Sequence[Sequence[int]],
    masses: Sequence[Sequence[int]],
    sections: Sequence[slice],
    event: Event,
    f: Gamble,
) -> Optional[Fraction]:
    """lower(f | B) by the vertex-priced master LP over a route (see the
    module docstring), or None when no inner vertex reaches a section of B
    or the master is unbounded.

    Column i * len(masses) + e is lambda for outer generator i on inner
    event e, whose mass at vertex k is ``masses[e][k]``, and the last
    column is nu.  Row (x1, w) is taken times s * den * D
    (``outer.scaled_rows[x1]`` has scale s, f has ``den``, the vertices sum
    to D), so it is ints; it is divided by its gcd, and dropped when every
    coefficient is 0.  Every right-hand side is non-negative, so each solve
    starts on its slacks, with Dantzig pricing and no phase 1.  The first
    rows are, at each x1, a vertex w with w(B_x1) > 0 that minimises
    E_w[(f - min_B f) I_B(x1, .)] / w(B_x1), and the first of those at
    every x1.  Each round reads lambda and nu off the optimum in ints, over
    one scale, and adds at each x1 the first vertex with the least slack
    E_w[h_x1] when that is negative, h_x1 the section of
    (f - min_B f - nu) I_B minus sum lambda g1(x1) I_B2.
    """
    mask, nums, den = event.mask, f.nums, f.den
    low = min(itertools.compress(nums, mask))
    # Per x1, the right-hand side and the nu coefficient of each row
    # (x1, w): E_w[(f - low) I_B(x1, .)] * s * den * D and w(B_x1) * s * D.
    rhs, reach = [], []
    zeros, total = [0] * len(inner_vertices), sum(inner_vertices[0])
    for (s, _), section in zip(outer.scaled_rows, sections):
        inside = mask[section]
        if not any(inside):
            rhs.append(zeros)
            reach.append(zeros)
            continue
        gaps = [v - low if b else 0 for v, b in zip(nums[section], inside)]
        rhs.append([s * sum(map(mul, w, gaps)) for w in inner_vertices])
        if all(inside):
            reach.append([s * total] * len(inner_vertices))
        else:
            reach.append([s * sum(map(mul, w, inside)) for w in inner_vertices])
    # Start from the least conditional expectation at each x1, and the
    # first of those vertices at every x1.
    start = []
    for x1, (rs, ms) in enumerate(zip(rhs, reach)):
        best = None
        for k, (r, m) in enumerate(zip(rs, ms)):
            if m and (best is None or r * ms[best] < rs[best] * m):
                best = k
        if best is not None:
            start.append((x1, best))
    if not start:
        return None
    width = len(masses)
    lp = LinearProgram(len(outer.generators) * width + 1, [0] * len(outer.generators) * width + [1])
    added: set[tuple[int, int]] = set()

    def add(x1: int, k: int) -> None:
        added.add((x1, k))
        row = [a * column[k] * den for a in outer.scaled_rows[x1][1] for column in masses]
        row.append(reach[x1][k] * den)
        if any(row):
            g = gcd(*row, rhs[x1][k])
            lp.add_scaled((1, [a // g for a in row]), LESS_EQUAL, (rhs[x1][k] // g, 1))

    for x1, k in [*start, *((x1, start[0][1]) for x1 in range(len(sections)))]:
        if (x1, k) not in added:
            add(x1, k)
    while True:
        result = lp.solve(DANTZIG)
        if result.status is LPStatus.UNBOUNDED:
            return None
        scale, point = result.scaled_point()
        nu = den * point.pop()
        lambdas = [(column, ls) for e, column in enumerate(masses) if any(ls := point[e::width])]
        violated = []
        for x1, ((_, ints), rs, ms) in enumerate(zip(outer.scaled_rows, rhs, reach)):
            # The slack of each row (x1, w) times s * den * D * scale.
            slacks = [r * scale - nu * m for r, m in zip(rs, ms)]
            for column, ls in lambdas:
                c = den * sum(map(mul, ints, ls))
                if c:
                    slacks = [v - c * a for v, a in zip(slacks, column)]
            least = min(slacks)
            k = slacks.index(least)
            if least < 0 and (x1, k) not in added:
                violated.append((x1, k))
        if not violated:
            value = result.value
            q = value.denominator
            return Fraction(low * q + value.numerator * den, den * q)
        for x1, k in violated:
            add(x1, k)


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

    Construction checks the marginals, reads the families' ``masks`` and
    derives the routes from them, each with its inner events short of the
    full event and its outer sections.  The product space is the live one
    from ``product_space``, built only when no caller holds it.
    ``joint_cone`` is built on first read and kept; of the queries, only a
    fallback reads it.
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
        self._events = _event_masks(left_family, left.space), _event_masks(right_family, right.space)
        self.space = product_space(left.space, right.space)
        # The marginal-extension routes, left outer first: a side whose
        # generator events hold every atom is the outer one, with the other
        # side's generator events, those of them short of the full event,
        # and each outer outcome's section of the product's outcome indices.
        self._routes = []
        for outer, side in enumerate(("left", "right")):
            if list(map(sum, self._events[outer])).count(1) == self.space.factor(side).size:
                inner = self._events[1 - outer]
                self._routes.append((
                    self._marginals[outer],
                    self._marginals[1 - outer],
                    inner,
                    [b for b in inner if not all(b)],
                    self.space.sections(side),
                ))

    @cached_property
    def joint_cone(self) -> DesirableCone:
        """The joint cone, built on first read from its integer rows."""
        return DesirableCone.from_scaled_rows(self.space, _joint_rows(*self._marginals, *self._events))

    @cached_property
    def _master(self) -> Optional[tuple]:
        """The first route whose inner cone is within the vertex gate, as
        ``_master_lower``'s first four arguments: the outer cone, the inner
        credal vertices, each vertex's masses on the inner generator events
        and the outer sections; None when there is no such route."""
        for outer, inner, events, _, sections in self._routes:
            if inner.vertex_bound <= cones.VERTEX_CAP:
                vertices = inner.credal_vertices
                return outer, vertices, [[sum(map(mul, w, b)) for w in vertices] for b in events], sections
        return None

    def lower(self, f: Gamble, event: Optional[Event] = None) -> Fraction:
        """The joint lower prevision of f given the event, by one vertex
        certificate chosen by the event's shape (see the module docstring):
        the certified marginal extension when a route makes the event its
        cylinder, otherwise the certified minimum.  When it fails, the
        master LP over a route whose inner cone is within the vertex gate,
        and otherwise, or when the master gives up, the natural extension
        of the joint cone, ``lower_prevision(self.joint_cone, f, event)``."""
        event = _query_event(self.space, f, event)
        for outer, inner, _, proper, sections in self._routes:
            area = _cylinder_base(event, sections)
            if area is not None:
                value = _marginal_extension(outer, inner, proper, sections, area, f)
                break
        else:
            minimum = f.min_over(event)
            left, right = (cone.vertex_supports for cone in self._marginals)
            value = minimum if left and right and _min_attained(left, right, event, f, minimum) else None
        if value is None and self._master is not None:
            value = _master_lower(*self._master, event, f)
        return lower_prevision(self.joint_cone, f, event) if value is None else value

    def upper(self, f: Gamble, event: Optional[Event] = None) -> Fraction:
        return -self.lower(-f, event)

    # -- lifting helpers ----------------------------------------------------

    def lift(self, f: Gamble) -> Gamble:
        """Cylindrically extend a factor gamble to the product space.  When
        both factors are f's space the side is ambiguous, and this raises
        ``SpaceMismatchError``: use ``cylindrical_extension`` with a side."""
        if f.space == self.space:
            return f
        side = self._factor_side(f.space, "gamble", "cylindrical_extension")
        return cylindrical_extension(f, self.space, side)

    def lift_event(self, event: Event) -> Event:
        """``lift`` for events; ``cylinder_event`` takes an explicit side."""
        if event.space == self.space:
            return event
        return cylinder_event(event, self.space, self._factor_side(event.space, "event", "cylinder_event"))

    def _factor_side(self, space: Space, what: str, explicit: str) -> str:
        on_left, on_right = space == self.space.left, space == self.space.right
        if on_left and on_right:
            raise SpaceMismatchError(
                f"both factors of {self.space.name!r} are {space.name!r}, so the {what} has no "
                f"single factor to lift to; use {explicit}(..., side='left' or 'right')"
            )
        if on_left:
            return "left"
        if on_right:
            return "right"
        raise SpaceMismatchError(f"{what} belongs to neither factor nor the product")


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
    factor, and symmetrically.  Each outer outcome's values of f are its
    ``ProductSpace.sections`` slice of ``f.nums``, summed against the pmf's
    ints over one denominator."""
    if f.space != prod:
        raise SpaceMismatchError("gamble is not on the product space")
    if inner.space != prod.factor(inner_side):
        raise SpaceMismatchError(f"the inner pmf is not on the {inner_side} factor")
    outer = _other_side(inner_side)
    rows = (f.nums[s] for s in prod.sections(outer))
    return Gamble.from_ints(prod.factor(outer), inner.den * f.den, [sum(map(mul, inner.nums, row)) for row in rows])


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

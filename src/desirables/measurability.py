"""Measurability of non-negative gambles with respect to an event family.

A non-negative gamble is family-measurable when it lies in the simple
cone

    { c0 * 1 + sum_i c_i * indicator(B_i) : c0 >= 0, c_i >= 0, B_i in family },

decided exactly by LP feasibility.  On a finite space this cone is
polyhedral and hence closed, so uniform limits add nothing and cone
membership is the whole story.

The constructive side builds staircase approximants from level sets: with
alpha = max(g) + 1 and levels k*alpha/n, the gamble

    g_n = (alpha/n) * sum_{k=1}^{n-1} indicator({g >= k*alpha/n})

satisfies max|g - g_n| <= alpha/n whenever every level set splits into
pairwise disjoint family events (allowing the whole space and the empty
set).  Level-set splitting is sufficient for measurability, not
necessary; a failed split at some level is reported as a witness against
that sufficient condition, and is guaranteed to exist whenever the gamble
is genuinely non-measurable.

Every function here that takes a family raises ``SpaceMismatchError``
when the family is on another space than its gamble or event.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .simplex import EQUAL, LinearProgram, LPStatus
from .spaces import Event, Gamble, Space, SpaceMismatchError

if TYPE_CHECKING:  # pragma: no cover
    from .independence import EventFamily


#: The most atoms a field may have for its sets to be listed: 2^16 sets.
#: It bounds both ``generated_field`` and the all-events family on n
#: outcomes, which is the field of its n atoms less the empty set, and
#: ``split_into_disjoint`` stops after ruling out 2^16 remainders.
MAX_FIELD_ATOMS = 16


class FamilyTooLargeError(ValueError):
    """A family's sets would pass ``MAX_FIELD_ATOMS``: the all-events family
    on more outcomes, a generated field with more atoms, or a disjoint split
    ruling out more than 2^``MAX_FIELD_ATOMS`` remainders."""


class MeasurabilityError(ValueError):
    """A gamble failed a required measurability condition; carries the first
    offending level and its level set when one exists."""

    def __init__(self, message: str, level: Optional[Fraction] = None, level_set: Optional[Event] = None):
        super().__init__(message)
        self.level = level
        self.level_set = level_set


def _require_nonneg(g: Gamble) -> None:
    if not g.is_nonneg:
        raise ValueError("measurability is defined for non-negative gambles only")


def _require_family_on(space: Space, family: "EventFamily") -> None:
    if family.space != space:
        raise SpaceMismatchError("family on a different space")


@dataclass(frozen=True)
class SimpleGambleCone:
    """The convex cone of non-negative simple combinations of family
    indicators and non-negative constants."""

    space: Space
    family: "EventFamily"

    def __post_init__(self) -> None:
        _require_family_on(self.space, self.family)

    def coefficients(
        self, g: Gamble
    ) -> Optional[tuple[Fraction, tuple[tuple[Event, Fraction], ...]]]:
        """Non-negative (c0, per-event coefficients) reconstructing g
        exactly, or None when g lies outside the cone.  The events are the
        family's generator events: for the all-events family the atoms,
        whose indicators span the same cone as those of every subset."""
        _require_nonneg(g)
        if g.space != self.space:
            raise SpaceMismatchError("gamble on a different space")
        events = self.family.generator_events()
        n = 1 + len(events)
        lp = LinearProgram(n, [0] * n)
        for v, *inside in zip(g.nums, *(e.mask for e in events)):
            lp.add_scaled((1, (1, *inside)), EQUAL, (v, g.den))
        result = lp.solve()
        if result.status is not LPStatus.OPTIMAL:
            return None
        c0 = result.point[0]
        coeffs = tuple((e, c) for e, c in zip(events, result.point[1:]))
        return c0, coeffs

    def contains(self, g: Gamble) -> bool:
        return self.coefficients(g) is not None


def is_measurable(g: Gamble, family: "EventFamily") -> bool:
    """Exact decision: does g belong to the family's simple cone?"""
    return SimpleGambleCone(g.space, family).contains(g)


def level_set(g: Gamble, level: Fraction) -> Event:
    return _level_set(g, *level.as_integer_ratio())


def _level_set(g: Gamble, p: int, q: int) -> Event:
    """{g >= p / q} for q > 0, compared in ints as nums[k] * q >= p * den."""
    bound = p * g.den
    return Event(g.space, frozenset(x for x, v in zip(g.space.outcomes, g.nums) if v * q >= bound))


def split_into_disjoint(event: Event, family: "EventFamily") -> Optional[tuple[Event, ...]]:
    """Write the event as a disjoint union of family events (the whole
    space counts; the empty event is the empty union), or None.  The
    search runs over the family's generator events: every union of atoms
    is a disjoint union of atoms, so the all-events family needs no
    other candidate.  It runs on bit masks (bit k is outcome k), in
    generator order from the lowest outcome left, looking only at the
    candidates whose lowest outcome that is, and remembers each
    remainder with no cover, so that none is searched twice: past
    2^``MAX_FIELD_ATOMS`` of them it raises ``FamilyTooLargeError``."""
    _require_family_on(event.space, family)
    if event.is_empty:
        return ()
    if event.is_full:
        return (event,)

    def bits(e: Event) -> int:
        return int("".join(map(str, reversed(e.mask))), 2)

    target = bits(event)
    # The candidates inside the event, bucketed by their lowest bit in
    # generator order: one that holds the remainder's lowest outcome and
    # lies inside the remainder has that outcome as its own lowest.
    candidates: dict[int, list[tuple[int, Event]]] = {}
    for e in family.generator_events():
        if not (b := bits(e)) & ~target:
            candidates.setdefault(b & -b, []).append((b, e))
    failed: set[int] = set()

    def cover(remaining: int) -> Optional[tuple[Event, ...]]:
        if not remaining:
            return ()
        for b, e in candidates.get(remaining & -remaining, ()):
            if not b & ~remaining and remaining ^ b not in failed:
                rest = cover(remaining ^ b)
                if rest is not None:
                    return (e,) + rest
        failed.add(remaining)
        if len(failed) > 2**MAX_FIELD_ATOMS:
            raise FamilyTooLargeError(
                f"splitting {len(event.members)} outcomes of {event.space.name!r} into disjoint family "
                f"events ruled out more than 2^{MAX_FIELD_ATOMS} remainders"
            )
        return None

    return cover(target)


def non_measurability_witness(
    g: Gamble, family: "EventFamily"
) -> Optional[tuple[Fraction, Event]]:
    """The first positive value r of g whose level set {g >= r} does not
    split into disjoint family events, scanning values in increasing
    order; None when every level splits (which makes g measurable)."""
    _require_family_on(g.space, family)
    _require_nonneg(g)
    for r in sorted(set(v for v in g.values if v > 0)):
        ls = level_set(g, r)
        if split_into_disjoint(ls, family) is None:
            return r, ls
    return None


def require_measurable(g: Gamble, family: "EventFamily") -> None:
    """Raise MeasurabilityError with a witness level set when g is not
    family-measurable."""
    if is_measurable(g, family):
        return
    witness = non_measurability_witness(g, family)
    assert witness is not None  # non-measurable gambles always fail some level
    level, ls = witness
    raise MeasurabilityError(
        f"gamble is not measurable for the conditioning family: level set at "
        f"{level} is {ls.sorted_members()}",
        level=level,
        level_set=ls,
    )


@dataclass(frozen=True)
class LevelApproximation:
    """Outcome of the staircase construction for one n."""

    alpha: Fraction
    n: int
    approximant: Optional[Gamble]
    witness_level: Optional[Fraction] = None
    witness_set: Optional[Event] = None

    @property
    def succeeded(self) -> bool:
        return self.approximant is not None

    @property
    def error_bound(self) -> Fraction:
        return self.alpha / self.n


def level_set_approximation(g: Gamble, family: "EventFamily", n: int) -> LevelApproximation:
    """Build the n-step staircase approximant of g from its level sets.

    Succeeds iff every grid level set splits into disjoint family events,
    in which case max|g - g_n| <= alpha/n with alpha = max(g) + 1; the
    first offending grid level is returned as a witness otherwise.  This
    checks the sufficient condition only: a measurable gamble can still
    fail it for a particular family.
    """
    _require_family_on(g.space, family)
    _require_nonneg(g)
    if n < 1:
        raise ValueError("the step count n must be a positive integer")
    alpha = g.maximum() + 1
    a, b = alpha.as_integer_ratio()
    q = n * b  # level k is k * alpha / n = k * a / q
    for k in range(1, n):
        ls = _level_set(g, k * a, q)
        if split_into_disjoint(ls, family) is None:
            return LevelApproximation(
                alpha=alpha, n=n, approximant=None, witness_level=Fraction(k * a, q), witness_set=ls
            )
    # g_n(x) = (alpha / n) * #{k < n : g(x) >= k * a / q}; that count is
    # floor(g(x) * q / a), at most n - 1 because g < alpha, so g_n(x) is
    # a * floor(nums[x] * q / (a * den)) / q.
    step = a * g.den
    approx = Gamble.from_ints(g.space, q, [a * (v * q // step) for v in g.nums])
    return LevelApproximation(alpha=alpha, n=n, approximant=approx)


# ---------------------------------------------------------------------------
# Finite-field audit
# ---------------------------------------------------------------------------


def generated_field(family: "EventFamily") -> frozenset[frozenset[str]]:
    """The smallest family of subsets containing the family members and
    closed under complement and intersection (hence union): every union of
    the field's atoms, the classes of outcomes that lie in the same
    members.  The atoms are counted first, and past ``MAX_FIELD_ATOMS`` of
    them this raises ``FamilyTooLargeError`` instead of listing 2^k sets."""
    space = family.space
    masks = [e.mask for e in family.events()]
    classes: dict[tuple[int, ...], list[str]] = {}
    for k, x in enumerate(space.outcomes):
        classes.setdefault(tuple(m[k] for m in masks), []).append(x)
    if len(classes) > MAX_FIELD_ATOMS:
        raise FamilyTooLargeError(
            f"the field generated on {space.name!r} has {len(classes)} atoms, so 2^{len(classes)} sets; "
            f"it is listed for at most {MAX_FIELD_ATOMS} atoms"
        )
    field = [frozenset()]
    for atom in classes.values():
        field += [s.union(atom) for s in field]
    return frozenset(field)


def family_is_field(family: "EventFamily") -> bool:
    """Whether the family members together with the empty set already form
    a field (closed under complement and intersection; closure under
    complement of the empty set puts the whole space among the members)."""
    members = {e.members for e in family.events()}
    members.add(frozenset())
    return generated_field(family) <= members


def measurable_by_field_criterion(g: Gamble, family: "EventFamily") -> bool:
    """Every level set of g belongs to the field generated by the family.

    For families that already form a field this criterion coincides with
    cone membership; for general families it need not.
    """
    _require_family_on(g.space, family)
    _require_nonneg(g)
    field = generated_field(family)
    return all(level_set(g, r).members in field for r in set(g.values))

"""Finite possibility spaces, events, gambles, and binary product spaces.

Everything is exact: gamble values are ``fractions.Fraction`` and all
pointwise operations stay in rational arithmetic.  Values are immutable
after construction, so they can be shared freely between threads.

The outcome order of a :class:`Space` is the declaration order; it fixes
the coordinate order of every gamble vector and hence the column order of
every linear program built downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str]

#: Separator used in compound outcome labels of product spaces.  It is
#: reserved: plain spaces must not use it in outcome labels.
PRODUCT_SEPARATOR = "|"


class SpaceMismatchError(ValueError):
    """Operands live on different possibility spaces."""


class EmptyEventError(ValueError):
    """A non-empty event was required (conditioning, min/max over an event)."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or canonical "p/q" string to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


@dataclass(frozen=True)
class Space:
    """A finite possibility space: an ordered tuple of distinct outcome labels."""

    name: str
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError("a possibility space needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError(f"duplicate outcomes in space {self.name!r}")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.outcomes)})

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, outcome: str) -> int:
        try:
            return self._index[outcome]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"outcome {outcome!r} not in space {self.name!r}") from None

    def event(self, members: Iterable[str]) -> "Event":
        return Event(self, frozenset(members))

    def full_event(self) -> "Event":
        return Event(self, frozenset(self.outcomes))

    def atoms(self) -> tuple["Event", ...]:
        """The singleton events, in outcome order."""
        return tuple(Event(self, frozenset([x])) for x in self.outcomes)

    def gamble(self, values: Union[Mapping[str, RationalLike], Sequence[RationalLike]]) -> "Gamble":
        if isinstance(values, Mapping):
            missing = [x for x in self.outcomes if x not in values]
            if missing:
                raise ValueError(f"gamble is missing outcomes {missing} of space {self.name!r}")
            extra = [x for x in values if x not in self._index]  # type: ignore[attr-defined]
            if extra:
                raise ValueError(f"gamble assigns unknown outcomes {extra}")
            vec = tuple(as_fraction(values[x]) for x in self.outcomes)
        else:
            if len(values) != self.size:
                raise ValueError(
                    f"gamble has {len(values)} values but space {self.name!r} has {self.size} outcomes"
                )
            vec = tuple(as_fraction(v) for v in values)
        return Gamble(self, vec)

    def constant(self, value: RationalLike) -> "Gamble":
        c = as_fraction(value)
        return Gamble(self, (c,) * self.size)

    def zero(self) -> "Gamble":
        return self.constant(0)


@dataclass(frozen=True)
class Event:
    """A subset of a space's outcomes.  May be empty, except where used to condition."""

    space: Space
    members: frozenset[str]

    def __post_init__(self) -> None:
        unknown = self.members - set(self.space.outcomes)
        if unknown:
            raise ValueError(f"event members {sorted(unknown)} not in space {self.space.name!r}")

    def __contains__(self, outcome: str) -> bool:
        return outcome in self.members

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.space.size

    def require_nonempty(self) -> "Event":
        if self.is_empty:
            raise EmptyEventError(f"conditioning event on {self.space.name!r} is empty")
        return self

    def intersect(self, other: "Event") -> "Event":
        if other.space is not self.space and other.space != self.space:
            raise SpaceMismatchError("events on different spaces")
        return Event(self.space, self.members & other.members)

    def sorted_members(self) -> list[str]:
        """Members in the space's outcome order (deterministic)."""
        return [x for x in self.space.outcomes if x in self.members]


@dataclass(frozen=True)
class Gamble:
    """A total rational-valued map on a finite space, stored in outcome order."""

    space: Space
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.space.size:
            raise ValueError("gamble vector length does not match its space")

    def __call__(self, outcome: str) -> Fraction:
        return self.values[self.space.index(outcome)]

    def _check_space(self, other: "Gamble") -> None:
        if other.space is not self.space and other.space != self.space:
            raise SpaceMismatchError(
                f"gambles on different spaces: {self.space.name!r} vs {other.space.name!r}"
            )

    def __add__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        if isinstance(other, Gamble):
            self._check_space(other)
            return Gamble(self.space, tuple(a + b for a, b in zip(self.values, other.values)))
        c = as_fraction(other)
        return Gamble(self.space, tuple(a + c for a in self.values))

    __radd__ = __add__

    def __sub__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        return self + (-other if isinstance(other, Gamble) else -as_fraction(other))

    def __rsub__(self, other: RationalLike) -> "Gamble":
        return (-self) + as_fraction(other)

    def __neg__(self) -> "Gamble":
        return Gamble(self.space, tuple(-a for a in self.values))

    def __mul__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        """Pointwise product with a gamble, or scaling by a rational."""
        if isinstance(other, Gamble):
            self._check_space(other)
            return Gamble(self.space, tuple(a * b for a, b in zip(self.values, other.values)))
        c = as_fraction(other)
        return Gamble(self.space, tuple(a * c for a in self.values))

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "Gamble":
        return self * as_fraction(factor)

    def min_over(self, event: Event) -> Fraction:
        if event.space != self.space:
            raise SpaceMismatchError("event on a different space")
        if event.is_empty:
            raise EmptyEventError("min over the empty event is undefined")
        return min(self.values[self.space.index(x)] for x in event.members)

    def max_over(self, event: Event) -> Fraction:
        if event.space != self.space:
            raise SpaceMismatchError("event on a different space")
        if event.is_empty:
            raise EmptyEventError("max over the empty event is undefined")
        return max(self.values[self.space.index(x)] for x in event.members)

    def maximum(self) -> Fraction:
        return max(self.values)

    @property
    def is_nonneg(self) -> bool:
        return all(v >= 0 for v in self.values)

    @property
    def is_nonpos(self) -> bool:
        return all(v <= 0 for v in self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def abs(self) -> "Gamble":
        return Gamble(self.space, tuple(abs(v) for v in self.values))

    def support(self) -> Event:
        return Event(self.space, frozenset(x for x, v in zip(self.space.outcomes, self.values) if v != 0))

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.space.outcomes, self.values))


def indicator(event: Event) -> Gamble:
    """The 0/1 gamble of an event (the event may be empty)."""
    one, zero = Fraction(1), Fraction(0)
    return Gamble(
        event.space,
        tuple(one if x in event.members else zero for x in event.space.outcomes),
    )


def compound_label(left_outcome: str, right_outcome: str) -> str:
    return f"{left_outcome}{PRODUCT_SEPARATOR}{right_outcome}"


@dataclass(frozen=True)
class ProductSpace(Space):
    """The binary product of two spaces, with compound outcome labels "x1|x2".

    Outcomes are ordered left-major, so the coordinate order is fixed by the
    factor declaration orders.  Every pair is present: the two variables are
    logically independent.
    """

    left: Space
    right: Space

    def __post_init__(self) -> None:
        for factor in (self.left, self.right):
            for x in factor.outcomes:
                if PRODUCT_SEPARATOR in x:
                    raise ValueError(
                        f"outcome {x!r} contains the reserved separator {PRODUCT_SEPARATOR!r}"
                    )
        expected = tuple(
            compound_label(a, b) for a in self.left.outcomes for b in self.right.outcomes
        )
        if self.outcomes != expected:
            raise ValueError("product outcomes must be the ordered Cartesian product")
        super().__post_init__()

    def factor(self, side: str) -> Space:
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def product_space(left: Space, right: Space, name: str | None = None) -> ProductSpace:
    outcomes = tuple(compound_label(a, b) for a in left.outcomes for b in right.outcomes)
    return ProductSpace(
        name=name or f"{left.name}*{right.name}",
        outcomes=outcomes,
        left=left,
        right=right,
    )


def cylindrical_extension(g: Gamble, prod: ProductSpace, side: str) -> Gamble:
    """Lift a gamble on one factor to the product: the value depends only on that factor.

    Cylindrical extension is linear, and the extension of an indicator of B1
    times the extension of an indicator of B2 is the indicator of B1 x B2.
    """
    factor = prod.factor(side)
    if g.space != factor:
        raise SpaceMismatchError(
            f"gamble lives on {g.space.name!r}, not on the {side} factor {factor.name!r}"
        )
    values = []
    for a in prod.left.outcomes:
        for b in prod.right.outcomes:
            values.append(g(a) if side == "left" else g(b))
    return Gamble(prod, tuple(values))


def cylinder_event(event: Event, prod: ProductSpace, side: str) -> Event:
    """Lift an event on one factor to the product: B1 -> B1 x X2 (resp. X1 x B2)."""
    factor = prod.factor(side)
    if event.space != factor:
        raise SpaceMismatchError(
            f"event lives on {event.space.name!r}, not on the {side} factor {factor.name!r}"
        )
    members = set()
    for a in prod.left.outcomes:
        for b in prod.right.outcomes:
            if (a if side == "left" else b) in event.members:
                members.add(compound_label(a, b))
    return Event(prod, frozenset(members))


def rectangle_event(left_event: Event, right_event: Event, prod: ProductSpace) -> Event:
    """The product event B1 x B2 as an event on the product space."""
    return cylinder_event(left_event, prod, "left").intersect(
        cylinder_event(right_event, prod, "right")
    )

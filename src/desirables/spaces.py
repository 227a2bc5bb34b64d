"""Finite possibility spaces, events, gambles, and binary product spaces.

Everything is exact.  A gamble is one integer row: a positive
denominator ``den`` and integer numerators ``nums`` in lowest terms as a
whole, the ``simplex.scaled_row`` form of its values.  Every pointwise
operation, sign test and lift runs on those ints, and a scalar result
(a minimum, a maximum, a value) is the one ``fractions.Fraction`` it
makes.  ``Gamble.values``, the values as ``Fraction``s, is derived from
the row on each read.  Gambles are immutable after construction, so they
can be shared freely between threads.

The outcome order of a :class:`Space` is the declaration order; it fixes
the coordinate order of every gamble vector and hence the column order of
every linear program built downstream.  An event's ``mask`` is its
membership in that order, one 0/1 int per outcome: the one place where an
event's labels become outcome positions, built with the event by the pass
that checks its members.

A :class:`ProductSpace` is built from its two factors alone,
``ProductSpace(name, left, right)``, and derives its outcomes: the compound
labels "x1|x2" in left-major order, so product outcome k is the pair of
left outcome k // n2 and right outcome k % n2.  This module alone formats
those labels and knows that order: the lifts here work on outcome indices,
and ``ProductSpace.sections`` gives each factor outcome's slice of them.
``product_space(left, right)`` returns the one live product of an equal
pair of factors, so callers that share a product share the object, and a
space check between them is an identity test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, index, mul, neg, sub
from typing import Iterable, Mapping, Sequence, TypeVar, Union
from weakref import WeakValueDictionary

from .simplex import scaled_row

RationalLike = Union[Fraction, int, str]
T = TypeVar("T")

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


@dataclass(frozen=True, eq=False)
class Space:
    """A finite possibility space: an ordered tuple of distinct outcome labels.

    A space equals itself with no field read; other spaces of its class
    compare and hash field by field (``_fields``), as a dataclass does."""

    name: str
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError("a possibility space needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError(f"duplicate outcomes in space {self.name!r}")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.outcomes)})

    def _fields(self) -> tuple:
        return self.name, self.outcomes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

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

    def in_order(self, values: Mapping[str, T]) -> list[T]:
        """A gamble's values, given per outcome label, in outcome order.
        Every outcome must be a key, and nothing else may be."""
        missing = [x for x in self.outcomes if x not in values]
        if missing:
            raise ValueError(f"gamble is missing outcomes {missing} of space {self.name!r}")
        extra = [x for x in values if x not in self._index]  # type: ignore[attr-defined]
        if extra:
            raise ValueError(f"gamble assigns unknown outcomes {extra}")
        return [values[x] for x in self.outcomes]

    def gamble(self, values: Union[Mapping[str, RationalLike], Sequence[RationalLike]]) -> "Gamble":
        if isinstance(values, Mapping):
            values = self.in_order(values)
        elif len(values) != self.size:
            raise ValueError(
                f"gamble has {len(values)} values but space {self.name!r} has {self.size} outcomes"
            )
        return Gamble(self, [as_fraction(v) for v in values])

    def constant(self, value: RationalLike) -> "Gamble":
        p, q = _ratio(value)
        return _gamble(self, q, (p,) * self.size)

    def zero(self) -> "Gamble":
        return self.constant(0)


@dataclass(frozen=True)
class Event:
    """A subset of a space's outcomes.  May be empty, except where used to
    condition.  ``mask``, one 0/1 int per outcome in outcome order, is set
    outside the fields, so equality, hashing and repr read only those."""

    space: Space
    members: frozenset[str]

    def __post_init__(self) -> None:
        members = self.members
        mask = tuple(1 if x in members else 0 for x in self.space.outcomes)
        if sum(mask) != len(members):
            unknown = members.difference(self.space.outcomes)
            raise ValueError(f"event members {sorted(unknown)} not in space {self.space.name!r}")
        object.__setattr__(self, "mask", mask)

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
        if other.space != self.space:
            raise SpaceMismatchError("events on different spaces")
        return Event(self.space, self.members & other.members)

    def sorted_members(self) -> list[str]:
        """Members in the space's outcome order (deterministic)."""
        return list(compress(self.space.outcomes, self.mask))


class Gamble:
    """A total rational-valued map on a finite space, stored in outcome order.

    A gamble is held as one integer row: ``den > 0`` and the ints ``nums``
    with value ``nums[k] / den`` at outcome k, in lowest terms as a whole,
    ``gcd(den, *nums) == 1``.  That is the ``simplex.scaled_row`` form of
    its values, and it is unique, so equality and hashing read
    ``(space, den, nums)``.  ``Gamble(space, values)`` takes ints or
    ``Fraction``s; ``from_ints`` takes a row directly.  Gambles are
    immutable.
    """

    __slots__ = ("space", "den", "nums")

    def __new__(cls, space: Space, values: Sequence[Union[Fraction, int]]) -> "Gamble":
        values = tuple(values)
        if len(values) != space.size:
            raise ValueError("gamble vector length does not match its space")
        return _gamble(space, *scaled_row(values))

    @staticmethod
    def from_ints(space: Space, den: int, nums: Sequence[int]) -> "Gamble":
        """The gamble with values ``nums[k] / den``, for any non-zero ``den``."""
        den, nums = index(den), tuple(map(index, nums))
        if len(nums) != space.size:
            raise ValueError("gamble vector length does not match its space")
        if den == 0:
            raise ZeroDivisionError("gamble denominator is zero")
        if den < 0:
            den, nums = -den, tuple(map(neg, nums))
        return _reduced(space, den, nums)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("gambles are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Gamble.from_ints, (self.space, self.den, self.nums)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as ``Fraction``s, built on each read."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Gamble:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and self.space == other.space

    def __hash__(self) -> int:
        return hash((self.space, self.den, self.nums))

    def __repr__(self) -> str:
        return f"Gamble(space={self.space!r}, values={self.values!r})"

    def __call__(self, outcome: str) -> Fraction:
        return Fraction(self.nums[self.space.index(outcome)], self.den)

    def _check_space(self, other: "Gamble") -> None:
        if other.space != self.space:
            raise SpaceMismatchError(
                f"gambles on different spaces: {self.space.name!r} vs {other.space.name!r}"
            )

    def _sum(self, other: "Gamble", op) -> "Gamble":
        """Pointwise ``op`` (add or sub) of two gambles, over the lcm of
        their denominators."""
        self._check_space(other)
        d, e = self.den, other.den
        if d == e:
            return _reduced(self.space, d, tuple(map(op, self.nums, other.nums)))
        den = lcm(d, e)
        m, k = den // d, den // e
        return _reduced(self.space, den, tuple(op(a * m, b * k) for a, b in zip(self.nums, other.nums)))

    def __add__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        if isinstance(other, Gamble):
            return self._sum(other, add)
        return self._shift(*_ratio(other))

    __radd__ = __add__

    def _shift(self, p: int, q: int) -> "Gamble":
        """This gamble plus the constant p / q, given in lowest terms."""
        d = self.den
        if q == 1:  # gcd(d, a + p * d) == gcd(d, a): still in lowest terms
            c = p * d
            return _gamble(self.space, d, tuple(a + c for a in self.nums))
        den = lcm(d, q)
        m, c = den // d, p * (den // q)
        return _reduced(self.space, den, tuple(a * m + c for a in self.nums))

    def __sub__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        if isinstance(other, Gamble):
            return self._sum(other, sub)
        p, q = _ratio(other)
        return self._shift(-p, q)

    def __rsub__(self, other: RationalLike) -> "Gamble":
        return (-self)._shift(*_ratio(other))

    def __neg__(self) -> "Gamble":
        return _gamble(self.space, self.den, tuple(map(neg, self.nums)))

    def __mul__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        """Pointwise product with a gamble, or scaling by a rational."""
        if isinstance(other, Gamble):
            self._check_space(other)
            return _reduced(self.space, self.den * other.den, tuple(map(mul, self.nums, other.nums)))
        p, q = _ratio(other)
        return _reduced(self.space, self.den * q, tuple(a * p for a in self.nums))

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "Gamble":
        return self * factor

    def _over(self, event: Event, pick) -> Fraction:
        if event.space != self.space:
            raise SpaceMismatchError("event on a different space")
        if event.is_empty:
            raise EmptyEventError(f"{pick.__name__} over the empty event is undefined")
        return Fraction(pick(compress(self.nums, event.mask)), self.den)

    def min_over(self, event: Event) -> Fraction:
        return self._over(event, min)

    def max_over(self, event: Event) -> Fraction:
        return self._over(event, max)

    def maximum(self) -> Fraction:
        return Fraction(max(self.nums), self.den)

    @property
    def is_nonneg(self) -> bool:
        return all(v >= 0 for v in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def abs(self) -> "Gamble":
        return _gamble(self.space, self.den, tuple(map(abs, self.nums)))

    def support(self) -> Event:
        return Event(self.space, frozenset(x for x, v in zip(self.space.outcomes, self.nums) if v))


_set_space, _set_den, _set_nums = (
    vars(Gamble)[name].__set__ for name in Gamble.__slots__
)
_new = object.__new__


def _gamble(space: Space, den: int, nums: tuple[int, ...]) -> Gamble:
    """The gamble with the row ``(den, nums)``, which must already be in
    lowest terms.  Every gamble is made here."""
    g = _new(Gamble)
    _set_space(g, space)
    _set_den(g, den)
    _set_nums(g, nums)
    return g


def _reduced(space: Space, den: int, nums: tuple[int, ...]) -> Gamble:
    """The gamble with values ``nums / den`` for ``den > 0``, brought to
    lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(a // g for a in nums)
    return _gamble(space, den, nums)


def _ratio(value: RationalLike) -> tuple[int, int]:
    """A scalar operand as (numerator, denominator) in lowest terms."""
    if isinstance(value, int):
        return value, 1
    c = as_fraction(value)
    return c.numerator, c.denominator


def indicator(event: Event) -> Gamble:
    """The 0/1 gamble of an event (the event may be empty)."""
    return _gamble(event.space, 1, event.mask)


def compound_label(left_outcome: str, right_outcome: str) -> str:
    return f"{left_outcome}{PRODUCT_SEPARATOR}{right_outcome}"


@dataclass(frozen=True, eq=False)
class ProductSpace(Space):
    """The binary product of two spaces, with compound outcome labels "x1|x2".

    Built as ``ProductSpace(name, left, right)``: the outcomes are derived,
    never passed.  They are ordered left-major, so outcome k is the pair
    (left outcome k // n2, right outcome k % n2) with n2 the right factor's
    size, and every lift below reads that index instead of a label.  Every
    pair is present: the two variables are logically independent.
    """

    outcomes: tuple[str, ...] = field(init=False)
    left: Space
    right: Space

    def __post_init__(self) -> None:
        for factor in (self.left, self.right):
            for x in factor.outcomes:
                if PRODUCT_SEPARATOR in x:
                    raise ValueError(
                        f"outcome {x!r} contains the reserved separator {PRODUCT_SEPARATOR!r}"
                    )
        outcomes = tuple(
            compound_label(a, b) for a in self.left.outcomes for b in self.right.outcomes
        )
        object.__setattr__(self, "outcomes", outcomes)
        super().__post_init__()

    def _fields(self) -> tuple:
        return self.name, self.outcomes, self.left, self.right

    def factor(self, side: str) -> Space:
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def sections(self, side: str) -> tuple[slice, ...]:
        """Each ``side`` factor outcome's slice of the outcome indices: a
        block of the left-major order on the left, a stride on the right."""
        factor, n2 = self.factor(side), self.right.size
        if side == "left":
            return tuple(slice(i * n2, (i + 1) * n2) for i in range(factor.size))
        return tuple(slice(j, None, n2) for j in range(n2))


#: The live product of each pair of factors, dropped with its last holder.
_products: "WeakValueDictionary[tuple[Space, Space], ProductSpace]" = WeakValueDictionary()


def product_space(left: Space, right: Space) -> ProductSpace:
    """The product of two factors, named "left*right".  While a product of
    an equal pair of factors is alive, it is returned rather than a new
    one, so every caller holding it shares one object; a product built
    directly with ``ProductSpace`` equals it and hashes the same.  Threads
    that race here may each build a product; those are equal too, so only
    the sharing is lost."""
    prod = _products.get((left, right))
    if prod is None:
        prod = _products[left, right] = ProductSpace(f"{left.name}*{right.name}", left, right)
    return prod


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
    if side == "left":
        n2 = prod.right.size
        return _gamble(prod, g.den, tuple(v for v in g.nums for _ in range(n2)))
    return _gamble(prod, g.den, g.nums * prod.left.size)


def cylinder_event(event: Event, prod: ProductSpace, side: str) -> Event:
    """Lift an event on one factor to the product: B1 -> B1 x X2 (resp. X1 x B2)."""
    factor = prod.factor(side)
    if event.space != factor:
        raise SpaceMismatchError(
            f"event lives on {event.space.name!r}, not on the {side} factor {factor.name!r}"
        )
    if side == "left":
        n2 = prod.right.size
        mask = tuple(b for b in event.mask for _ in range(n2))
    else:
        mask = event.mask * prod.left.size
    return Event(prod, frozenset(compress(prod.outcomes, mask)))


def rectangle_event(left_event: Event, right_event: Event, prod: ProductSpace) -> Event:
    """The product event B1 x B2 as an event on the product space."""
    return cylinder_event(left_event, prod, "left").intersect(
        cylinder_event(right_event, prod, "right")
    )

"""Finitely generated cones of desirable gambles.

A :class:`DesirableCone` with generator set A represents the natural
extension E(A): every gamble of the form

    sum_i lambda_i f_i + g,   lambda_i >= 0 not all zero, f_i in A,

or g alone, where g is non-negative and non-zero.  The non-negative part
is always included, so a cone with no generators is the vacuous model.

Membership, coherence (no non-positive element), the dual
strictly-positive-pmf witness, and the credal-set questions (is there a
dominating pmf, does one give an event positive probability) are all
decided by exact rational linear programs.  The credal-set LP
(``_pmf_side_lp``) also gives the dominating pmfs of
``ConditionalLowerPrevision.dominating_previsions``; lower-prevision
queries solve the gamble side instead (see ``prevision``).  Membership,
coherence and the credal-set questions answer with a status or a value
only, so they use Dantzig pricing; the pmf witness publishes a vertex and
keeps Bland's rule.

Every LP over a cone's outcome rows (membership, coherence and the
lower-prevision queries of ``prevision``) takes its generator entries as
``scaled_rows``: per outcome, the values g_i(x) as the integer row of
``simplex.scaled_row``.  They are computed once per cone, on first use,
and cached as tuples of ints, so later queries convert no ``Fraction``.
Code that already knows these rows hands them over with
``DesirableCone.with_scaled_rows``: the joint cone of the independent
natural extension arrives with rows assembled from the marginal cones'
rows (see ``independence``), so no joint entry is converted at all.
Cones are immutable: the cache is not a field, so it takes no part in
equality or hashing, and it never changes once built.  Queries are pure
and safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .simplex import DANTZIG, GREATER_EQUAL, LESS_EQUAL, EQUAL, LinearProgram, LPStatus, scaled_row
from .spaces import Event, Gamble, Space, SpaceMismatchError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class PmfWitness:
    """A strictly positive probability mass function giving every generator
    a strictly positive expectation; its existence certifies coherence."""

    space: Space
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.masses) != self.space.size:
            raise ValueError("witness length does not match its space")
        if any(p <= 0 for p in self.masses):
            raise ValueError("witness masses must be strictly positive")
        if sum(self.masses) != 1:
            raise ValueError("witness masses must sum to one")

    def expectation(self, g: Gamble) -> Fraction:
        if g.space != self.space:
            raise SpaceMismatchError("gamble on a different space")
        return sum((p * v for p, v in zip(self.masses, g.values)), Fraction(0))


@dataclass(frozen=True)
class DesirableCone:
    """A set of desirable gambles generated by finitely many gambles plus
    all non-negative non-zero gambles."""

    space: Space
    generators: tuple[Gamble, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.space != self.space:
                raise SpaceMismatchError("generator on a different space")

    @staticmethod
    def vacuous(space: Space) -> "DesirableCone":
        return DesirableCone(space, ())

    @staticmethod
    def from_generators(space: Space, generators: Iterable[Gamble]) -> "DesirableCone":
        return DesirableCone(space, tuple(generators))

    @staticmethod
    def with_scaled_rows(
        space: Space, generators: tuple[Gamble, ...], rows: tuple[tuple[int, tuple[int, ...]], ...]
    ) -> "DesirableCone":
        """The cone on these generators with its ``scaled_rows`` cache set
        to ``rows``, which must be exactly what that property would build."""
        cone = DesirableCone(space, generators)
        cone.__dict__["scaled_rows"] = rows
        return cone

    @cached_property
    def scaled_rows(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per outcome x, the generator values g_i(x) as a ``scaled_row``.
        Built on first use and kept, so every LP over this cone's outcome
        rows skips the ``Fraction`` layer."""
        if not self.generators:
            return tuple(map(scaled_row, [()] * self.space.size))
        return tuple(map(scaled_row, zip(*(g.values for g in self.generators))))

    # -- decision procedures ------------------------------------------------

    def contains(self, f: Gamble) -> bool:
        """Exact membership of f in the generated cone.

        True iff f is non-negative and non-zero, or some combination
        sum lambda_i f_i with lambda >= 0 and sum lambda_i > 0 satisfies
        sum lambda_i f_i <= f pointwise (the remainder is then absorbed by
        the non-negative part).  The zero gamble is handled literally: it
        belongs to the cone exactly when the cone is incoherent.
        """
        if f.space != self.space:
            raise SpaceMismatchError("gamble on a different space")
        if f.is_nonneg and not f.is_zero:
            return True
        n = len(self.generators)
        if n == 0:
            return False
        lp = LinearProgram(n, [1] * n, nonneg=True)
        for row, v in zip(self.scaled_rows, f.values):
            lp.add_scaled(row, LESS_EQUAL, v)
        result = lp.solve(DANTZIG)
        if result.status is LPStatus.UNBOUNDED:
            return True
        if result.status is LPStatus.INFEASIBLE:
            return False
        return result.value > 0

    def is_coherent(self) -> bool:
        """True iff the cone contains no gamble f <= 0.

        Only generator combinations can produce a non-positive element, so
        this is the infeasibility of {lambda >= 0, sum lambda = 1,
        sum lambda_i f_i <= 0}.
        """
        n = len(self.generators)
        if n == 0:
            return True
        lp = LinearProgram(n, [0] * n, nonneg=True)
        lp.add([1] * n, EQUAL, 1)
        for row in self.scaled_rows:
            lp.add_scaled(row, LESS_EQUAL, 0)
        return lp.solve(DANTZIG).status is LPStatus.INFEASIBLE

    def positive_pmf_witness(self) -> Optional[PmfWitness]:
        """A strictly positive pmf with positive expectation for every
        generator, or None if there is none.

        Such a witness exists iff the zero gamble lies outside the cone,
        which on finite spaces is equivalent to coherence.
        """
        n = self.space.size
        m = len(self.generators)
        # Variables: p_1..p_n >= 0, t free.  Maximize t subject to
        # p_k >= t, sum p = 1, p.f_i >= t.
        lp = LinearProgram(n + 1, [0] * n + [1], nonneg=[True] * n + [False])
        lp.add([1] * n + [0], EQUAL, 1)
        for k in range(n):
            row = [Fraction(0)] * (n + 1)
            row[k] = Fraction(1)
            row[n] = Fraction(-1)
            lp.add(row, GREATER_EQUAL, 0)
        for g in self.generators:
            lp.add(list(g.values) + [Fraction(-1)], GREATER_EQUAL, 0)
        result = lp.solve()
        assert result.status is LPStatus.OPTIMAL  # always feasible and bounded
        if result.value <= 0:
            return None
        return PmfWitness(self.space, tuple(result.point[:n]))

    # -- credal-set side ------------------------------------------------------

    def dominating_pmf_exists(self) -> bool:
        """Whether some pmf gives every generator a non-negative expectation.

        This is the (non-strict) dual cone being non-empty; it fails exactly
        when the generators incur a sure loss, making every lower-prevision
        query diverge.
        """
        lp = _pmf_side_lp(self, self.space.zero(), self.space.full_event(), sign=1)
        return lp.solve(DANTZIG).status is LPStatus.OPTIMAL

    def upper_probability_positive(self, event: Event) -> bool:
        """Whether some pmf with non-negative generator expectations gives
        the event positive probability.

        That is the feasibility of ``_pmf_side_lp`` on the event: a feasible
        r normalised by its total mass is such a pmf, and such a pmf divided
        by the probability of the event is a feasible r.
        """
        if event.space != self.space:
            raise SpaceMismatchError("event on a different space")
        event.require_nonempty()
        lp = _pmf_side_lp(self, self.space.zero(), event, sign=1)
        return lp.solve(DANTZIG).status is LPStatus.OPTIMAL


def _pmf_side_lp(cone: DesirableCone, f: Gamble, event: Event, sign: int) -> LinearProgram:
    """The credal-set LP of a query: maximize sign * sum_{x in B} f(x) r(x)
    over r >= 0 with unit mass on B and every generator expectation
    non-negative.  It is the dual of the cone-side lower-prevision LP.
    One row per generator plus one; the generator rows are written
    -g.r <= 0 so that they start on their slacks."""
    weights = [
        sign * f.values[k] if x in event.members else _ZERO
        for k, x in enumerate(cone.space.outcomes)
    ]
    lp = LinearProgram(cone.space.size, weights, nonneg=True)
    lp.add([_ONE if x in event.members else _ZERO for x in cone.space.outcomes], EQUAL, 1)
    for g in cone.generators:
        lp.add([-v if v else v for v in g.values], LESS_EQUAL, 0)  # most joint entries are 0
    return lp

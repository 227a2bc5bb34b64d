"""Finitely generated cones of desirable gambles.

A :class:`DesirableCone` with generator set A represents the natural
extension E(A): every gamble of the form

    sum_i lambda_i f_i + g,   lambda_i >= 0 not all zero, f_i in A,

or g alone, where g is non-negative and non-zero.  The non-negative part
is always included, so a cone with no generators is the vacuous model.

This module owns the lower-prevision LP of a cone,

    lower(f | B) = sup { mu : [f - mu] * indicator(B) in cone },

solved on the gamble side from its slacks (``_lower_value``); ``prevision``
builds its queries, coherence probes and certificates on it.  The solve
also returns its row prices, a vector r on the outcomes, and
``_dominating_expectations`` checks in integers whether r is dominating
(r >= 0 and every E_r[g_i] >= 0), so that it may stand as a dual bound.
Three status questions are one such solve each: f with a negative value is a
member iff lower(f) >= 0 or it diverges, a dominating pmf exists iff
lower(0) is finite, and one gives B positive mass iff lower(-I_B) is
finite and negative.  Coherence (no non-positive element) is lost exactly
when max sum lambda subject to sum lambda_i f_i <= 0 is unbounded.  None
of these runs phase 1, and as they answer with a status or a value they
use Dantzig pricing.  The strictly-positive-pmf witness publishes a
vertex, so it has its own LP on Bland's rule.  Every ``LinearProgram``
variable is non-negative, so the LPs here that need a signed unknown (mu
left free for a certificate, the witness margin t) write it as the
difference of their last two columns.

Every LP here has an ``int`` objective and integer rows.  Those over a
cone's outcome rows take the generator entries as ``scaled_rows``: per
outcome, the values g_i(x) as the integer row that ``simplex.scaled_row``
would give.  They are assembled once per cone, on first use, from the
generators' own integer rows (``Gamble.den`` and ``Gamble.nums``), and
cached as tuples of ints, so no query touches a ``Fraction``; a query's
gamble goes to its LP as its own integer row too.
Code that already knows these rows hands them over with
``DesirableCone.with_scaled_rows``: the joint cone of the independent
natural extension arrives with rows assembled from the marginal cones'
rows (see ``independence``), so no joint entry is converted at all.  The
query LP reads a cone's ``space`` and ``scaled_rows`` only, its width
included, so an ``IndependentNaturalExtension`` is queried on its joint
rows without its joint generators.
A cone also caches ``credal_vertices``: the vertices of its dominating
credal set {p >= 0, sum p = 1, E_p[g_i] >= 0}, enumerated once by double
description in ints over the generators' integer rows and held as int
tuples over one common denominator.  ``independence`` answers some INE
queries from the marginals' vertices alone.  The enumeration gives up
when more than ``VERTEX_CAP`` rays are kept at some step; the property
is then None, and callers answer by LP.
Cones are immutable: the caches are not fields, so they take no part in
equality or hashing, and they never change once built.  Queries are pure
and safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .simplex import DANTZIG, EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram, LPResult, LPStatus, scaled_row
from .spaces import Event, Gamble, Space, SpaceMismatchError, indicator

#: The most extreme rays that ``DesirableCone.credal_vertices`` keeps at any
#: step of its enumeration; past it the property is None, and callers
#: answer by LP instead.
VERTEX_CAP = 64


@dataclass(frozen=True)
class PmfWitness:
    """A strictly positive probability mass function giving every generator
    a strictly positive expectation; its existence certifies coherence."""

    space: Space
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        """Derive and validate the masses' integer row ``(den, nums)``, as
        ``LinearPrevision`` does: mass ``nums[k] / den`` at outcome k."""
        if len(self.masses) != self.space.size:
            raise ValueError("witness length does not match its space")
        den, nums = scaled_row(self.masses)
        if any(n <= 0 for n in nums):
            raise ValueError("witness masses must be strictly positive")
        if sum(nums) != den:
            raise ValueError("witness masses must sum to one")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def expectation(self, g: Gamble) -> Fraction:
        if g.space != self.space:
            raise SpaceMismatchError("gamble on a different space")
        return Fraction(sum(map(mul, self.nums, g.nums)), self.den * g.den)


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
        return _outcome_rows(self.space, self.generators)

    @cached_property
    def credal_vertices(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """The vertices of the dominating credal set {p >= 0, sum p = 1,
        E_p[g_i] >= 0 for every generator}, as int tuples over one common
        denominator (the sum of any of them), in the order the enumeration
        finds them; empty when the cone incurs a sure loss, and None when
        the enumeration keeps more than ``VERTEX_CAP`` rays at some step.
        Built on first use from the generators' ``nums`` and kept, like
        ``scaled_rows``; see ``_credal_vertices``."""
        return _credal_vertices(self.space.size, [g.nums for g in self.generators])

    # -- decision procedures ------------------------------------------------

    def contains(self, f: Gamble) -> bool:
        """Exact membership of f in the generated cone.

        True iff f is non-negative and non-zero, or some combination
        sum lambda_i f_i with lambda >= 0 and sum lambda_i > 0 satisfies
        sum lambda_i f_i <= f pointwise (the remainder is then absorbed by
        the non-negative part).  The zero gamble is handled literally: it
        belongs to the cone exactly when the cone is incoherent.  For any
        other f, lambda = 0 cannot serve, so f is a member iff
        lower(f) >= 0 or it diverges.
        """
        if f.space != self.space:
            raise SpaceMismatchError("gamble on a different space")
        if f.is_zero:
            return not self.is_coherent()
        if f.is_nonneg:
            return True
        if not self.generators:
            return False
        value, _ = _lower_value(self, f, self.space.full_event())
        return value is None or value >= 0

    def is_coherent(self) -> bool:
        """True iff the cone contains no gamble f <= 0.

        Only generator combinations can produce a non-positive element, and
        such a lambda scales without bound, so the cone is incoherent iff
        max sum lambda subject to sum lambda_i f_i <= 0 is unbounded.
        """
        n = len(self.generators)
        if n == 0:
            return True
        lp = LinearProgram(n, [1] * n)
        for row in self.scaled_rows:
            lp.add_scaled(row, LESS_EQUAL, (0, 1))
        return lp.solve(DANTZIG).status is not LPStatus.UNBOUNDED

    def positive_pmf_witness(self) -> Optional[PmfWitness]:
        """A strictly positive pmf with positive expectation for every
        generator, or None if there is none.

        Such a witness exists iff the zero gamble lies outside the cone,
        which on finite spaces is equivalent to coherence.
        """
        n = self.space.size
        m = len(self.generators)
        # Variables: p_1..p_n >= 0 and the margin t = t+ - t-.  Maximize t
        # subject to p_k >= t, sum p = 1, p.f_i >= t.
        lp = LinearProgram(n + 2, [0] * n + [1, -1])
        lp.add_scaled((1, (1,) * n), EQUAL, (1, 1), last=(0, 0))
        for k in range(n):
            lp.add_scaled((1, tuple(int(j == k) for j in range(n))), GREATER_EQUAL, (0, 1), last=(-1, 1))
        for g in self.generators:
            lp.add_scaled((g.den, g.nums), GREATER_EQUAL, (0, 1), last=(-1, 1))
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
        query diverge.  By duality, it holds iff lower(0) is finite.
        """
        return _lower_value(self, self.space.zero(), self.space.full_event())[0] is not None

    def upper_probability_positive(self, event: Event) -> bool:
        """Whether some pmf with non-negative generator expectations gives
        the event positive probability.

        The lower prevision of -I_B is minus the largest probability a
        dominating pmf gives B: it diverges when there is no dominating pmf
        and is negative exactly when one reaches B.
        """
        if event.space != self.space:
            raise SpaceMismatchError("event on a different space")
        event.require_nonempty()
        value, _ = _lower_value(self, -indicator(event), self.space.full_event())
        return value is not None and value < 0


def _outcome_rows(space: Space, generators: Sequence[Gamble]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The ``scaled_row`` of each outcome's generator values, read from the
    generators' integer rows: g_i(x) = nums_i[x] / den_i, whose denominator
    in lowest terms is den_i / gcd(nums_i[x], den_i), so the row's scale is
    the lcm of those and no ``Fraction`` is made."""
    columns = list(zip(*(g.nums for g in generators))) or [()] * space.size
    dens = [g.den for g in generators]
    if all(d == 1 for d in dens):
        return tuple((1, column) for column in columns)
    rows = []
    for column in columns:
        scale = lcm(*[d // gcd(v, d) for v, d in zip(column, dens)])
        rows.append((scale, tuple(v * scale // d for v, d in zip(column, dens))))
    return tuple(rows)


def _credal_vertices(n: int, rows: Sequence[Sequence[int]]) -> Optional[tuple[tuple[int, ...], ...]]:
    """The vertices of {p >= 0, sum p = 1, a . p >= 0 for each row a}, by
    double description in ints (Motzkin et al. 1953; Fukuda & Prodon 1996).

    The extreme rays of the cone {p >= 0, a . p >= 0} start as the unit
    vectors of p >= 0, and each row a is added in turn.  A ray with
    a . r >= 0 stays; every pair r+, r- with a . r+ > 0 > a . r- that is
    adjacent gives the ray (a . r+) r- - (a . r-) r+ on the hyperplane
    a . p = 0, divided by the gcd of its ints; the rays with a . r < 0 go.
    Each ray carries the bit set of the constraints it makes tight (bit k
    for p_k >= 0, bit n + i for row i).  Two rays are adjacent iff no other
    ray is tight on every constraint that both are (the combinatorial
    test); they must share at least n - 2 such constraints first, because
    the face they span has dimension two.  Every step is exact, and the
    vertices are the final rays, brought to the lcm of their sums.  None
    when more than ``VERTEX_CAP`` rays are kept at some step.
    """
    if n > VERTEX_CAP:
        return None
    everything = (1 << n) - 1
    rays = [(tuple(int(j == k) for j in range(n)), everything ^ (1 << k)) for k in range(n)]
    for i, a in enumerate(rows):
        bit = 1 << (n + i)
        kept, plus, minus = [], [], []
        for ray in rays:
            side = sum(map(mul, a, ray[0]))
            if side > 0:
                plus.append((ray, side))
                kept.append(ray)
            elif side < 0:
                minus.append((ray, side))
            else:
                kept.append((ray[0], ray[1] | bit))
        if not minus:
            rays = kept
            continue
        for (r1, z1), s1 in plus:
            for (r2, z2), s2 in minus:
                common = z1 & z2
                if common.bit_count() < n - 2:
                    continue
                if any(common & z == common for _, z in rays if z != z1 and z != z2):
                    continue
                ints = [s1 * v2 - s2 * v1 for v1, v2 in zip(r1, r2)]
                g = gcd(*ints)
                kept.append((tuple(v // g for v in ints), common | bit))
        if len(kept) > VERTEX_CAP:
            return None
        rays = kept
    den = lcm(*(sum(r) for r, _ in rays))
    return tuple(tuple(v * (den // sum(r)) for v in r) for r, _ in rays)


# ---------------------------------------------------------------------------
# The lower-prevision LP
# ---------------------------------------------------------------------------


def _gamble_side_lp(
    cone: DesirableCone, f_row: tuple[int, tuple[int, ...]], event: Event, floor: Optional[int] = None
) -> LinearProgram:
    """LP for sup{mu : [f - mu] * indicator(B) in cone}.

    Variables are the generator coefficients followed by mu; one row per
    outcome:  sum_i lambda_i g_i(x) + I_B(x) mu <= I_B(x) f(x).  Every
    variable of a ``LinearProgram`` is non-negative, so mu, which has no
    sign, is written mu+ - mu- in the last two columns.  With a ``floor``,
    the last variable is instead the single column mu - floor >= 0, and each
    right-hand side is I_B(x) (f(x) - floor).

    The generator part of each row is the cone's cached integer row
    (``DesirableCone.scaled_rows``), so no ``Fraction`` is converted per
    query, and the number of generators is the width of those rows; the
    mu coefficients are appended to it: (1, -1), or 1 with a
    floor, on B and zeros off it.  f arrives as ``f_row``, the gamble's
    own integer row (``Gamble.den``, ``Gamble.nums``), and the floor as an
    int over the same denominator, so each right-hand side goes to the LP
    as the integer ratio (nums[x] - floor, den), with no ``Fraction``
    arithmetic.
    """
    n = len(cone.scaled_rows[0][1])
    if floor is None:
        objective, on, off, floor = [0] * n + [1, -1], (1, -1), (0, 0), 0
    else:
        objective, on, off = [0] * n + [1], (1,), (0,)
    lp = LinearProgram(len(objective), objective)
    den, nums = f_row
    members = event.members
    for x, row, v in zip(cone.space.outcomes, cone.scaled_rows, nums):
        if x in members:
            lp.add_scaled(row, LESS_EQUAL, (v - floor, den), last=on)
        else:
            lp.add_scaled(row, LESS_EQUAL, (0, 1), last=off)
    return lp


def _raw_lower(cone: DesirableCone, f: Gamble, event: Event) -> LPResult:
    """The gamble-side LP with mu free (mu+ - mu-), on Bland's rule:
    coherence certificates publish the generator part of its optimal point
    or improving ray."""
    return _gamble_side_lp(cone, (f.den, f.nums), event).solve()


def _lower_value(
    cone: DesirableCone, f: Gamble, event: Event
) -> tuple[Optional[Fraction], tuple[int, ...]]:
    """sup{mu : [f - mu] * indicator(B) in cone}, or None when it is infinite,
    with the solve's row prices (``LPResult.prices``; empty when infinite).

    The LP is solved with mu = min_B f + nu, nu >= 0.  That is exact:
    lambda = 0, mu = min_B f is feasible, because [f - min_B f] * I_B is
    non-negative, so the supremum is at least min_B f and restricting mu to
    that range keeps both the optimum and unboundedness.  Every right-hand
    side I_B(x) (f(x) - min_B f) is then non-negative, so the solve starts
    on its slack basis (lambda = nu = 0) with no phase 1 and no mu+ - mu-
    column pair.  The value is the same at every optimal vertex, so the
    solve uses Dantzig pricing.  f goes in as its integer row, min_B f is
    taken over its ints, and the value is the one ``Fraction`` made.

    The rows are the outcomes, so the prices r are a vector on the space.
    Its dual says r >= 0, E_r[g_i] >= 0 for every generator and r(B) >= 1:
    a dominating pmf up to scale, which ``_dominating_expectations`` checks
    exactly before anything relies on it.
    """
    den, nums = f.den, f.nums
    members = event.members
    floor = min(v for x, v in zip(cone.space.outcomes, nums) if x in members)
    result = _gamble_side_lp(cone, (den, nums), event, floor).solve(DANTZIG)
    if result.status is LPStatus.UNBOUNDED:
        return None, ()
    nu = result.value
    q = nu.denominator
    return Fraction(floor * q + nu.numerator * den, den * q), result.prices


def _dominating_expectations(cone: DesirableCone, prices: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The exact expectation E_r[g_i] of every generator under the vector
    r = ``prices`` on the outcomes, times one positive integer scale, or
    None when r is not dominating: some r(x) < 0 or some E_r[g_i] < 0.

    Only ints are used: every outcome row with r(x) > 0 is brought to the
    lcm of those rows' scales.  The check trusts nothing about where r came
    from, so a vector it accepts is a dominating pmf once normalised (when
    it is not zero), and by weak duality lower(f | B) <= E_r[f | B] for
    every f and every B with r(B) > 0.
    """
    if len(prices) != cone.space.size:
        raise ValueError("price vector length does not match the space")
    if any(r < 0 for r in prices):
        return None
    support = [(r, row) for r, row in zip(prices, cone.scaled_rows) if r]
    scale = lcm(*(s for _, (s, _) in support))
    totals = [0] * len(cone.generators)
    for r, (s, ints) in support:
        m = r * (scale // s)
        totals = [t + m * v for t, v in zip(totals, ints)]
    if any(t < 0 for t in totals):
        return None
    return tuple(totals)

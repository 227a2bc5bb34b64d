"""Conditional lower previsions from assessment tables.

An :class:`Assessment` is a finite table of entries "the lower prevision of
gamble f contingent on event B is at least v"; a self-conjugate (linear)
entry also imposes the matching upper bound.  The induced model is the
natural extension: the least-committal coherent extension of the table,
realised as lower-prevision queries over the cone generated by the gambles
[f - v] * indicator(B).

On a finite space the query

    lower(f | B) = sup { mu : [f - mu] * indicator(B) in cone }

is an exact rational LP whose dual ranges over the probability mass
functions that dominate the assessment, so query values are lower
envelopes of dominating expectations.  A query diverges in exactly two
situations, reported as distinct errors: the assessment incurs a sure loss
(no dominating pmf at all), or the conditioning event is given probability
zero by every dominating pmf ("conditioning beyond support"); in the
latter case finite mass functions cannot represent the conditional model
and the engine refuses to guess.

Queries go through ``cones._lower_value``.  On a cone within its vertex
gate (``DesirableCone.vertex_bound`` at most ``cones.VERTEX_CAP``) it reads
the value off the cone's cached credal vertices, with no LP; the value is
the same, and so is the meaning of its prices.  Every other query solves
the gamble side, with mu = min_B f + nu and nu >= 0.  The substitution is
exact because lower(f | B) >= min_B f (the point lambda = 0,
mu = min_B f is feasible), and it makes every right-hand side
non-negative, so the solve starts at a feasible vertex and runs no
phase 1.  Queries, the value-first
coherence probes and the dominating pmfs use Dantzig pricing: they read
the optimal value, and the prices of whichever optimal basis the solve
reaches, which are checked exactly before use.  Every solve whose vertex
or ray is published keeps Bland's rule: a probe that fails is re-solved
with mu free for its certificate, and certificate polishing is a Bland
solve too.

The dual of a query ranges over dominating pmfs, and a query hands back
the dual prices, a vector r on the outcomes (on the vertex path, the
minimising vertex); normalised, r is a dominating pmf that attains the
query value.  ``dominating_previsions`` returns those of the queries of f
and -f, once each is checked exactly.

A coherence check probes each entry's assessed direction once, and never
a linear entry's conjugate: once lower(f | B) = v is finite, some
dominating pmf reaches B, so lower(-f | B) <= -v.  A passing probe also
hands back its prices r.  When
``cones._dominating_expectations`` finds in integers that r is
dominating, r proves every later probe passes whose generator has
expectation 0 under r and whose event r reaches, so those probes run no
LP.  The prices only ever save a solve: a vector that fails
the check is dropped, and a verdict never rests on one.  The first
failing probe's violation, whatever its kind, is built on one path: one
Bland re-solve and one polishing search over its support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .cones import DesirableCone, _dominating_expectations, _lower_value, _raw_lower
from .simplex import LESS_EQUAL, LinearProgram, LPStatus, scaled_row
from .spaces import (
    Event,
    Gamble,
    RationalLike,
    Space,
    SpaceMismatchError,
    as_fraction,
    indicator,
)

_ZERO = Fraction(0)


class SureLossError(ValueError):
    """The model admits no dominating pmf: every query value diverges."""


class BeyondSupportError(ValueError):
    """Every dominating pmf gives the conditioning event probability zero;
    the conditional value is not representable by mass functions."""

    def __init__(self, event: Event):
        self.event = event
        super().__init__(
            f"conditioning beyond support: event {event.sorted_members()} has upper probability zero"
        )


# ---------------------------------------------------------------------------
# Cone-level queries
# ---------------------------------------------------------------------------


def _divergence(cone: DesirableCone, event: Event) -> ValueError:
    """The error for a query whose supremum is infinite (equivalently, for
    which no dominating pmf gives the event positive mass)."""
    if not cone.dominating_pmf_exists():
        return SureLossError("the cone incurs a sure loss; lower previsions diverge")
    return BeyondSupportError(event)


def lower_prevision(cone: DesirableCone, f: Gamble, event: Optional[Event] = None) -> Fraction:
    """The exact lower prevision of f contingent on the event, derived from
    the cone.  Raises SureLossError or BeyondSupportError when the supremum
    is infinite.

    There is one LP for every cone shape: the gamble-side LP (one row per
    outcome), started at its feasible vertex mu = min_B f and priced by
    Dantzig's rule (see ``_lower_value``).  By duality its optimum is the
    lower envelope of the dominating conditional expectations, and it is
    unbounded exactly when no dominating pmf gives the event positive mass.
    A cone within the vertex gate takes that envelope over its cached
    credal vertices instead, with no LP.
    """
    event = _query_event(cone.space, f, event)
    value, _ = _lower_value(cone, f, event)
    if value is None:
        raise _divergence(cone, event)
    return value


def _query_event(space: Space, f: Gamble, event: Optional[Event]) -> Event:
    """The conditioning event of a query of f on ``space``: the full event
    for None.  Raises ``SpaceMismatchError`` when f or the event is on
    another space and ``EmptyEventError`` when the event is empty."""
    if f.space != space:
        raise SpaceMismatchError("gamble on a different space")
    if event is None:
        return space.full_event()
    if event.space != space:
        raise SpaceMismatchError("event on a different space")
    return event.require_nonempty()


def upper_prevision(cone: DesirableCone, f: Gamble, event: Optional[Event] = None) -> Fraction:
    """Conjugate value: upper(f|B) = -lower(-f|B)."""
    return -lower_prevision(cone, -f, event)


# ---------------------------------------------------------------------------
# Assessments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssessmentEntry:
    gamble: Gamble
    event: Event
    lower: Fraction
    #: Self-conjugate entries also impose lower(-f|B) = -value.
    linear: bool = False

    def __post_init__(self) -> None:
        if self.event.space != self.gamble.space:
            raise SpaceMismatchError("entry event and gamble on different spaces")
        self.event.require_nonempty()

    def boundary_gamble(self) -> Gamble:
        """The generator [f - v] * I_B of this entry, built as one integer
        row: over L = lcm(den, q) for f = nums / den and v = p / q, its
        numerators are (a * L/den - p * L/q) * mask, reduced once."""
        f, p, q = self.gamble, self.lower.numerator, self.lower.denominator
        den = lcm(f.den, q)
        m, c = den // f.den, p * (den // q)
        return Gamble.from_ints(
            f.space, den, [(a * m - c) * b for a, b in zip(f.nums, self.event.mask)]
        )


@dataclass(frozen=True)
class Assessment:
    space: Space
    entries: tuple[AssessmentEntry, ...]

    def __post_init__(self) -> None:
        seen: dict[tuple, Fraction] = {}
        for e in self.entries:
            if e.gamble.space != self.space:
                raise SpaceMismatchError("entry on a different space")
            key = (e.gamble, e.event.members)
            if key in seen and seen[key] != e.lower:
                raise ValueError(
                    f"duplicate assessment of the same (gamble, event) pair with "
                    f"values {seen[key]} and {e.lower}"
                )
            seen[key] = e.lower

    @staticmethod
    def build(
        space: Space,
        entries: Iterable[tuple[Gamble, Optional[Event], RationalLike] | tuple[Gamble, Optional[Event], RationalLike, bool]],
    ) -> "Assessment":
        built = []
        for item in entries:
            gamble, event, lower = item[0], item[1], item[2]
            linear = bool(item[3]) if len(item) > 3 else False
            built.append(
                AssessmentEntry(
                    gamble=gamble,
                    event=event if event is not None else space.full_event(),
                    lower=as_fraction(lower),
                    linear=linear,
                )
            )
        return Assessment(space, tuple(built))

    def restricted(self, indices: Sequence[int]) -> "Assessment":
        return Assessment(self.space, tuple(self.entries[i] for i in indices))


@dataclass(frozen=True)
class CoherenceViolation:
    """A certificate against Williams coherence.

    ``lambdas`` are the non-negative coefficients on assessed directions
    used in the positive slot, as (entry index, sign, coefficient)
    triples; sign -1 marks the conjugate direction of a self-conjugate
    entry.  ``entry_index`` (with coefficient one) is the entry tested in
    the negative slot, or None for a pure sure-loss combination.
    ``sup_value`` is the exact maximum of the combined called-off gamble
    over the union of the involved conditioning events; a negative value is
    a genuine finite-combination violation.  ``kind`` is 'sure-loss',
    'gap' (an assessed value strictly below its natural extension), or
    'beyond-support' (a conditioning event unreachable by every dominating
    pmf, where mass functions cannot settle the verdict).
    """

    kind: str
    entry_index: Optional[int]
    lambdas: tuple[tuple[int, int, Fraction], ...]
    sup_value: Optional[Fraction]
    assessed: Optional[Fraction] = None
    extension: Optional[Fraction] = None


@dataclass(frozen=True)
class CoherenceVerdict:
    coherent: bool
    violation: Optional[CoherenceViolation] = None


class ConditionalLowerPrevision:
    """An assessment together with its induced natural extension.

    The cone is generated by one boundary gamble [f - v] * I_B per entry
    (plus the conjugate twin for linear entries); queries are exact LP
    optima over it.  Instances are immutable and queries are pure.
    """

    def __init__(self, assessment: Assessment):
        self.assessment = assessment
        self.space = assessment.space
        generators = []
        owners = []  # generator index -> (entry index, sign)
        for k, e in enumerate(assessment.entries):
            generator = e.boundary_gamble()
            generators.append(generator)
            owners.append((k, 1))
            if e.linear:
                generators.append(-generator)
                owners.append((k, -1))
        self.cone = DesirableCone(self.space, tuple(generators))
        self._owners = tuple(owners)

    @staticmethod
    def from_entries(space, entries) -> "ConditionalLowerPrevision":
        return ConditionalLowerPrevision(Assessment.build(space, entries))

    # -- queries -----------------------------------------------------------

    def lower(self, f: Gamble, event: Optional[Event] = None) -> Fraction:
        """The natural extension of the assessment at (f, event)."""
        return lower_prevision(self.cone, f, event)

    def upper(self, f: Gamble, event: Optional[Event] = None) -> Fraction:
        return -self.lower(-f, event)

    # -- coherence ---------------------------------------------------------

    @cached_property
    def coherence(self) -> CoherenceVerdict:
        return self._check_coherence()

    def is_coherent(self) -> bool:
        return self.coherence.coherent

    def _entry_lambdas(
        self, point_or_ray: Sequence[Fraction]
    ) -> tuple[tuple[int, int, Fraction], ...]:
        """Fold generator coefficients back onto assessed directions.

        A linear entry's twin generator is its own conjugate assessment,
        reported under the same entry index with sign -1, so the published
        coefficients reconstruct the combination exactly.
        """
        per_direction: dict[tuple[int, int], Fraction] = {}
        for coeff, owner in zip(point_or_ray, self._owners):
            if coeff:
                per_direction[owner] = per_direction.get(owner, _ZERO) + coeff
        return tuple((k, sign, coeff) for (k, sign), coeff in sorted(per_direction.items()))

    def _combination_sup(
        self, lambdas_by_gen: Sequence[Fraction], minus_entry: Optional[int]
    ) -> Optional[Fraction]:
        """Max over the union of involved conditioning events of
        sum lambda_i [f_i - v_i] I_{B_i}  ( - [f_k - v_k] I_{B_k} )."""
        combo = self.space.zero()
        for coeff, g in zip(lambdas_by_gen, self.cone.generators):
            if coeff:
                combo = combo + g * coeff
        if minus_entry is not None:
            combo = combo - self.assessment.entries[minus_entry].boundary_gamble()
        region = self._region([gi for gi, coeff in enumerate(lambdas_by_gen) if coeff], minus_entry)
        if not any(region):
            return None
        return Fraction(max(itertools.compress(combo.nums, region)), combo.den)

    def _region(self, gens: Sequence[int], minus_entry: Optional[int]) -> list[bool]:
        """The union of the conditioning events of these generators' entries
        and of the minus entry, as one flag per outcome in outcome order:
        the OR of their masks."""
        entries = self.assessment.entries
        masks = [entries[self._owners[gi][0]].event.mask for gi in gens]
        if minus_entry is not None:
            masks.append(entries[minus_entry].event.mask)
        return [any(bits) for bits in zip(*masks)]

    def _polish_certificate(
        self, support: Sequence[int], minus_entry: Optional[int]
    ) -> Optional[tuple[tuple[Fraction, ...], Fraction]]:
        """Search, over generator support sets, for coefficients making the
        finite combination strictly negative on the union of its
        conditioning events.  Returns (per-generator lambdas, sup value)."""
        gens = self.cone.generators
        minus = (
            self.assessment.entries[minus_entry].boundary_gamble()
            if minus_entry is not None
            else self.space.zero()
        )
        for size in range(len(support), 0, -1):
            for subset in itertools.combinations(support, size):
                region = self._region(subset, minus_entry)
                if not any(region):
                    continue
                # Variables: lambda_i for i in subset, then eps; maximize eps.
                nv = len(subset) + 1
                lp = LinearProgram(nv, [0] * len(subset) + [1])
                for xi in itertools.compress(range(self.space.size), region):
                    scale, ints = self.cone.scaled_rows[xi]
                    row = (scale, tuple(ints[gi] for gi in subset))
                    lp.add_scaled(row, LESS_EQUAL, (minus.nums[xi], minus.den), last=(1,))
                lp.add_scaled((1, (0,) * len(subset)), LESS_EQUAL, (1, 1), last=(1,))
                result = lp.solve()
                if result.status is LPStatus.OPTIMAL and result.value > 0:
                    lambdas = [_ZERO] * len(gens)
                    for j, gi in enumerate(subset):
                        lambdas[gi] = result.point[j]
                    sup = self._combination_sup(lambdas, minus_entry)
                    if sup is not None and sup < 0:
                        return tuple(lambdas), sup
        return None

    def _check_coherence(self) -> CoherenceVerdict:
        """Coherent iff every assessed value is reproduced exactly by its
        own natural-extension query with a finite optimum.

        Each entry's assessed direction (f, B, v) is probed once, in entry
        order; it passes when lower(f | B) <= v, and its generator is
        [f - v] * I_B.  A linear entry's conjugate direction is not probed:
        once (f, B, v) passes, lower(f | B) = v is finite, so some dominating
        pmf reaches B and lower(-f | B) = -upper(f | B) <= -v.  Each passing
        probe also yields the prices r of its query (an optimal basis's, or
        a credal vertex on the vertex path); once
        ``_dominating_expectations`` has checked exactly that r is
        dominating, r settles every later probe whose generator it makes
        tight and whose event it gives positive mass: E_r[(f - v) I_B] = 0
        with r(B) > 0 gives lower(f | B) <= E_r[f | B] = v.  Such a probe
        passes without its LP.  Only passing probes are skipped, so the
        first failing probe, and with it the verdict and certificate, is
        the same as when every direction is solved.

        The first failing probe's violation is built on one path: one
        re-solve with mu free on Bland's rule, whose ray (the value
        diverges) or point (a gap) gives the generator support, and one
        polishing search over it, with no minus entry when the value
        diverges.  A polished divergence is a sure loss; an unpolished one
        is beyond support at the entry, and publishes the ray.
        """
        entries = self.assessment.entries
        n = len(self.cone.generators)
        # (the prices r, E_r[g_i] per generator) of each dominating r.
        dominating: list[tuple[Sequence[int], tuple[int, ...]]] = []
        for gi, (k, sign) in enumerate(self._owners):
            if sign < 0:  # a conjugate direction passes with its entry's
                continue
            entry = entries[k]
            # r >= 0 was checked, so r gives B positive mass iff some r(x) I_B(x) != 0.
            if any(expectations[gi] == 0 and any(map(mul, r, entry.event.mask)) for r, expectations in dominating):
                continue
            value, prices = _lower_value(self.cone, entry.gamble, entry.event)
            if value is not None and value <= entry.lower:
                expectations = _dominating_expectations(self.cone, prices)
                if expectations is not None:
                    dominating.append((prices, expectations))
                continue
            # The probe fails: the value diverges or exceeds the
            # assessment, and the re-solve finds the same status and value.
            result = _raw_lower(self.cone, entry.gamble, entry.event)
            gap = result.status is not LPStatus.UNBOUNDED
            coeffs = (result.point if gap else result.ray)[:n]
            polished = self._polish_certificate([i for i, c in enumerate(coeffs) if c > 0], k if gap else None)
            if polished is not None:
                lambdas, sup = polished
            else:
                lambdas, sup = coeffs, None if gap else self._combination_sup(coeffs, None)
            kind = "gap" if gap else "beyond-support" if polished is None else "sure-loss"
            return CoherenceVerdict(
                False,
                CoherenceViolation(
                    kind=kind,
                    entry_index=None if kind == "sure-loss" else k,
                    lambdas=self._entry_lambdas(lambdas),
                    sup_value=sup,
                    assessed=entry.lower if gap else None,
                    extension=result.value,
                ),
            )
        return CoherenceVerdict(True)

    # -- dominating linear previsions ---------------------------------------

    def dominating_previsions(
        self, f: Gamble, event: Optional[Event] = None
    ) -> tuple["LinearPrevision", "LinearPrevision"]:
        """Mass functions from the dominating set attaining the minimum and
        maximum of the conditional expectation of f given the event.

        Each is priced by one query, ``_lower_value`` on f and on -f: its
        row prices r are dominating up to scale and give the event positive
        mass (see ``_lower_value``), so r / sum(r) is a dominating pmf whose
        conditional expectation is the query value.  Both facts are checked
        exactly before the pmf is returned, and a failed check raises
        ``RuntimeError``, under ``python -O`` too.  On a cone within the vertex
        gate r is a credal vertex, and neither query solves an LP.  Errors
        are those of ``lower``.
        """
        event = _query_event(self.space, f, event)
        pmfs = []
        for h, sign in ((f, 1), (-f, -1)):  # minimize first, then maximize
            value, prices = _lower_value(self.cone, h, event)
            if value is None:
                raise _divergence(self.cone, event)
            if _dominating_expectations(self.cone, prices) is None:
                raise RuntimeError(f"the query's prices {prices} are not a dominating pmf up to scale")
            total = sum(prices)
            pmf = LinearPrevision(self.space, tuple(Fraction(r, total) for r in prices))
            if pmf.conditional(f, event) != sign * value:
                raise RuntimeError(f"the priced pmf does not attain the query value {sign * value}")
            pmfs.append(pmf)
        return pmfs[0], pmfs[1]

    def dominates(self, pmf: "LinearPrevision") -> bool:
        """Whether the pmf gives every boundary generator non-negative expectation."""
        if pmf.space != self.space:
            raise SpaceMismatchError("pmf on a different space")
        return _dominating_expectations(self.cone, pmf.nums) is not None


# ---------------------------------------------------------------------------
# Linear previsions (expectation operators from mass functions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearPrevision:
    """A pmf-induced expectation operator; conditioning follows Bayes rule
    and is refused on events of probability zero.

    ``masses`` are the public field, ints or ``Fraction``s.  Construction
    derives their ``scaled_row``, ``den`` and ``nums`` with mass
    ``nums[k] / den`` at outcome k, as a gamble holds its values, and
    validates it: every num non-negative and their sum
    ``den``.  Expectations, probabilities and conditional expectations are
    integer sums over the two rows, each made into one ``Fraction``.
    """

    space: Space
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.masses) != self.space.size:
            raise ValueError("mass vector length does not match its space")
        den, nums = scaled_row(self.masses)
        if any(n < 0 for n in nums):
            raise ValueError("masses must be non-negative")
        if sum(nums) != den:
            raise ValueError("masses must sum to one")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    @staticmethod
    def from_masses(space: Space, masses) -> "LinearPrevision":
        """From a sequence in outcome order, or a mapping of outcome labels
        to masses in which a missing outcome has mass zero."""
        if isinstance(masses, Mapping):
            unknown = [x for x in masses if x not in space.outcomes]
            if unknown:
                raise ValueError(f"masses assign unknown outcomes {unknown} of space {space.name!r}")
            vec = tuple(as_fraction(masses.get(x, 0)) for x in space.outcomes)
        else:
            vec = tuple(as_fraction(v) for v in masses)
        return LinearPrevision(space, vec)

    @staticmethod
    def uniform(space: Space) -> "LinearPrevision":
        share = Fraction(1, space.size)
        return LinearPrevision(space, (share,) * space.size)

    def mass(self, outcome: str) -> Fraction:
        return self.masses[self.space.index(outcome)]

    def probability(self, event: Event) -> Fraction:
        if event.space != self.space:
            raise SpaceMismatchError("event on a different space")
        return Fraction(sum(map(mul, self.nums, event.mask)), self.den)

    def expectation(self, f: Gamble) -> Fraction:
        if f.space != self.space:
            raise SpaceMismatchError("gamble on a different space")
        return Fraction(sum(map(mul, self.nums, f.nums)), self.den * f.den)

    def conditional(self, f: Gamble, event: Event) -> Fraction:
        """Renormalised expectation; defined only when the event has
        positive probability."""
        return Fraction(*self._conditional_ratio(f, event))

    def _conditional_ratio(self, f: Gamble, event: Event) -> tuple[int, int]:
        """The conditional expectation of f on the event as two ints, the
        second positive, with ``conditional``'s checks in its order."""
        if f.space != self.space:
            raise SpaceMismatchError("gamble on a different space")
        if event.space != self.space:
            raise SpaceMismatchError("event on a different space")
        event.require_nonempty()
        inside = list(map(mul, self.nums, event.mask))
        mass = sum(inside)
        if mass == 0:
            raise BeyondSupportError(event)
        return sum(map(mul, inside, f.nums)), mass * f.den

    def __call__(self, f: Gamble, event: Optional[Event] = None) -> Fraction:
        """The expectation of f, or its conditional expectation on the event
        (on the full event the two are equal)."""
        return self.expectation(f) if event is None else self.conditional(f, event)

    def as_assessment(self) -> Assessment:
        """Self-conjugate singleton-indicator entries pinning this pmf as the
        unique dominating mass function."""
        entries = tuple(
            AssessmentEntry(
                gamble=indicator(atom),
                event=self.space.full_event(),
                lower=self.probability(atom),
                linear=True,
            )
            for atom in self.space.atoms()
        )
        return Assessment(self.space, entries)

    def as_lower_prevision(self) -> ConditionalLowerPrevision:
        return ConditionalLowerPrevision(self.as_assessment())


def envelope_assessment(
    space: Space,
    pmfs: Sequence[LinearPrevision],
    pairs: Sequence[tuple[Gamble, Optional[Event]]],
) -> Assessment:
    """Assess each (gamble, event) pair at the lower envelope of the given
    pmfs; every event must have positive probability under each pmf.  The
    result is coherent by construction.  The pmfs' conditional
    expectations are compared as integer ratios, by cross-multiplying, and
    each entry makes one ``Fraction``, its least."""
    entries = []
    for f, event in pairs:
        ev = event if event is not None else space.full_event()
        least = None
        for p in pmfs:
            num, den = p._conditional_ratio(f, ev)
            if least is None or num * least[1] < least[0] * den:
                least = num, den
        if least is None:
            raise ValueError("the lower envelope of no pmfs is undefined")
        entries.append(AssessmentEntry(gamble=f, event=ev, lower=Fraction(*least)))
    return Assessment(space, tuple(entries))


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    description: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class AxiomSample:
    """Inputs for one round of axiom checks; events must be non-empty and
    representable (positive upper probability) for the conditional values
    to be defined."""

    f: Gamble
    g: Gamble
    event_a: Event
    event_b: Event
    scale: Fraction
    shift: Fraction


def check_axioms(prev: ConditionalLowerPrevision, samples: Sequence[AxiomSample]) -> AxiomReport:
    """Evaluate the standard coherence properties of the natural extension
    on the given samples, exactly.

    Covered: lower bound by the conditional infimum, non-negative
    homogeneity, superadditivity, the generalised Bayes rule, the uniform
    continuity bound in its finite-space form, constant additivity,
    monotonicity, and lower <= upper conjugacy.
    """
    checks: list[AxiomCheck] = []

    def add(axiom: str, description: str, passed: bool, detail: str = "") -> None:
        checks.append(AxiomCheck(axiom, description, passed, detail))

    for s in samples:
        f, g, a, b = s.f, s.g, s.event_a, s.event_b
        lam, mu = s.scale, s.shift
        lf_b = prev.lower(f, b)

        add("LP1", "lower(f|B) >= min of f over B", lf_b >= f.min_over(b), f"value {lf_b}")
        add(
            "LP2",
            "lower(scale*f|B) = scale*lower(f|B) for scale >= 0",
            prev.lower(f * lam, b) == lam * lf_b,
        )
        add(
            "LP3",
            "lower(f+g|B) >= lower(f|B) + lower(g|B)",
            prev.lower(f + g, b) >= lf_b + prev.lower(g, b),
        )
        ab = a.intersect(b)
        if not ab.is_empty:
            inner = prev.lower(f, ab)
            gbr = prev.lower((f - inner) * indicator(b), a)
            add("LP4", "generalised Bayes rule: lower(I_B[f - lower(f|A&B)] | A) = 0", gbr == 0, f"value {gbr}")
        bound = (f - g).abs().max_over(b)
        add(
            "LP5",
            "|lower(f|B) - lower(g|B)| <= max |f-g| over B",
            abs(lf_b - prev.lower(g, b)) <= bound,
        )
        add("LP6", "lower(f + mu|B) = lower(f|B) + mu", prev.lower(f + mu, b) == lf_b + mu)
        margin = (f - g).min_over(b)
        if margin >= 0:
            add("LP7", "f >= g on B implies lower(f|B) >= lower(g|B)", lf_b >= prev.lower(g, b))
        else:
            h = g + margin  # h <= f on B by construction
            add("LP7", "f >= g on B implies lower(f|B) >= lower(g|B)", lf_b >= prev.lower(h, b))
        add("LP8", "lower(f|B) <= upper(f|B)", lf_b <= prev.upper(f, b))

    return AxiomReport(tuple(checks))

"""Independent verification routes for the tests.

Nothing here touches the engine's simplex except the reference coherence
loop at the end: credal sets are handled by brute-force vertex
enumeration over exact Gaussian elimination, and joint lower previsions
are recomputed through sympy's exact LP solver on the dual (credal-set)
formulation.  Both routes work entirely in rational arithmetic, so every
comparison with engine output is an equality check.  The coherence
reference solves the engine's own query LP for every probe, skipping
none, so a verdict that differs from it comes from a skipped probe.
The disjoint-split reference searches label sets, with no memo.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from sympy import Eq
from sympy import Rational as SymRational
from sympy import symbols
from sympy.solvers.simplex import InfeasibleLPError, UnboundedLPError, lpmax, lpmin

from desirables.cones import _lower_value, _raw_lower
from desirables.prevision import CoherenceVerdict, CoherenceViolation, ConditionalLowerPrevision
from desirables.simplex import LPStatus
from desirables.spaces import Event, Gamble, Space

if TYPE_CHECKING:  # pragma: no cover
    from desirables.independence import EventFamily

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_linear_system(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> Optional[list[Fraction]]:
    """Unique exact solution of a square system, or None if singular."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def credal_vertices(space: Space, generators: Sequence[Gamble]) -> list[tuple[Fraction, ...]]:
    """All vertices of {p >= 0, sum p = 1, p . g >= 0 for each generator},
    by exhaustive tight-set enumeration."""
    n = space.size
    # Homogeneous constraint normals (the simplex equality is always tight).
    normals: list[list[Fraction]] = []
    for i in range(n):
        normals.append([ONE if j == i else ZERO for j in range(n)])
    for g in generators:
        normals.append(list(g.values))

    vertices: set[tuple[Fraction, ...]] = set()
    for tight in itertools.combinations(range(len(normals)), n - 1):
        rows = [[ONE] * n] + [normals[t] for t in tight]
        rhs = [ONE] + [ZERO] * (n - 1)
        point = solve_linear_system(rows, rhs)
        if point is None:
            continue
        if any(v < 0 for v in point):
            continue
        if any(
            sum((p * gv for p, gv in zip(point, g.values)), ZERO) < 0 for g in generators
        ):
            continue
        vertices.add(tuple(point))
    return sorted(vertices)


def conditional_expectation(
    pmf: Sequence[Fraction], f: Gamble, event: Event
) -> Optional[Fraction]:
    space = f.space
    num = ZERO
    den = ZERO
    for k, x in enumerate(space.outcomes):
        if x in event.members:
            num += pmf[k] * f.values[k]
            den += pmf[k]
    if den == 0:
        return None
    return num / den


def envelope_bounds_by_vertices(
    space: Space, generators: Sequence[Gamble], f: Gamble, event: Event
) -> Optional[tuple[Fraction, Fraction]]:
    """Min and max of the conditional expectation of f over the vertices of
    the dominating credal set that give the event positive probability;
    None when the set is empty or the event has upper probability zero."""
    values = []
    for vertex in credal_vertices(space, generators):
        value = conditional_expectation(vertex, f, event)
        if value is not None:
            values.append(value)
    if not values:
        return None
    return min(values), max(values)


# ---------------------------------------------------------------------------
# sympy route for lower previsions (dual / credal formulation)
# ---------------------------------------------------------------------------


def _sym(value: Fraction):
    return SymRational(value.numerator, value.denominator)


def _from_sym(value) -> Fraction:
    """sympy results may be Rational, Integer, or plain int/str forms."""
    return Fraction(str(value))


def sympy_lower_prevision(
    space: Space, generators: Sequence[Gamble], f: Gamble, event: Event
) -> Optional[Fraction]:
    """min of sum_{x in B} r(x) f(x) over r >= 0 with r(B) = 1 and
    r . g >= 0 per generator; None when that region is empty (the engine
    signals sure loss or conditioning beyond support there).

    sympy 1.14 sometimes reports an optimum with an infeasible point
    instead of raising on empty regions, and sometimes raises
    ``InfeasibleLPError`` on regions that are not empty.  So every claimed
    point is re-validated in exact arithmetic, and whenever sympy's answer
    fails that check or claims emptiness, the answer comes from
    independent vertex enumeration instead: the minimum over the
    dominating pmfs that give the event positive probability, or None when
    there are none.
    """
    names = symbols(f"r0:{space.size}")
    constraints = [v >= 0 for v in names]
    constraints.append(
        Eq(sum(names[k] for k, x in enumerate(space.outcomes) if x in event.members), 1)
    )
    for g in generators:
        constraints.append(
            sum(_sym(g.values[k]) * names[k] for k in range(space.size)) >= 0
        )
    objective = sum(
        _sym(f.values[k]) * names[k]
        for k, x in enumerate(space.outcomes)
        if x in event.members
    )

    def _by_vertices() -> Optional[Fraction]:
        bounds = envelope_bounds_by_vertices(space, generators, f, event)
        return None if bounds is None else bounds[0]

    try:
        value, point = lpmin(objective, constraints)
    except InfeasibleLPError:
        return _by_vertices()
    except UnboundedLPError:  # pragma: no cover - objective is event-bounded
        raise AssertionError("the credal objective cannot be unbounded")

    r = [_from_sym(point[n]) for n in names]
    if any(v < 0 for v in r):
        return _by_vertices()
    mass = sum(
        (r[k] for k, x in enumerate(space.outcomes) if x in event.members), ZERO
    )
    if mass != 1:
        return _by_vertices()
    for g in generators:
        if sum((a * b for a, b in zip(r, g.values)), ZERO) < 0:
            return _by_vertices()
    return _from_sym(value)


def sympy_lp_max(
    objective: Sequence[Fraction],
    constraints: Sequence[tuple[Sequence[Fraction], str, Fraction]],
    nonneg: Sequence[bool],
) -> tuple[str, Optional[Fraction]]:
    """Generic exact LP through sympy, mirroring the engine's interface."""
    n = len(objective)
    names = symbols(f"v0:{n}") if n != 1 else (symbols("v0"),)
    sym_constraints = []
    for j, flag in enumerate(nonneg):
        if flag:
            sym_constraints.append(names[j] >= 0)
    for coeffs, rel, rhs in constraints:
        lhs = sum(_sym(c) * names[j] for j, c in enumerate(coeffs))
        if rel == "<=":
            sym_constraints.append(lhs <= _sym(rhs))
        elif rel == ">=":
            sym_constraints.append(lhs >= _sym(rhs))
        else:
            sym_constraints.append(lhs <= _sym(rhs))
            sym_constraints.append(lhs >= _sym(rhs))
    goal = sum(_sym(c) * names[j] for j, c in enumerate(objective))
    try:
        value, _ = lpmax(goal, sym_constraints)
    except InfeasibleLPError:
        return "infeasible", None
    except UnboundedLPError:
        return "unbounded", None
    return "optimal", _from_sym(value)


# ---------------------------------------------------------------------------
# Coherence, probing every entry
# ---------------------------------------------------------------------------


def coherence_probing_every_entry(model: ConditionalLowerPrevision) -> CoherenceVerdict:
    """The verdict of ``model.coherence`` from one query LP per probe, in
    entry order (a linear entry's conjugate right after it), with nothing
    skipped; the first failing probe gets the engine's certificate."""
    entries = model.assessment.entries
    n = len(model.cone.generators)
    for k, e in enumerate(entries):
        probes = [(e.gamble, e.event, e.lower)]
        if e.linear:
            probes.append((-e.gamble, e.event, -e.lower))
        for gamble, event, assessed in probes:
            value, _ = _lower_value(model.cone, gamble, event)
            if value is not None and value <= assessed:
                continue
            result = _raw_lower(model.cone, gamble, event)
            if result.status is LPStatus.UNBOUNDED:
                ray = result.ray[:n]
                support = [i for i, c in enumerate(ray) if c > 0]
                polished = model._polish_certificate(support, minus_entry=None)
                if polished is not None:
                    lambdas, sup = polished
                    return CoherenceVerdict(
                        False, CoherenceViolation("sure-loss", None, model._entry_lambdas(lambdas), sup)
                    )
                return CoherenceVerdict(
                    False,
                    CoherenceViolation(
                        "beyond-support", k, model._entry_lambdas(ray), model._combination_sup(ray, None)
                    ),
                )
            point = result.point[:n]
            support = [i for i, c in enumerate(point) if c > 0]
            polished = model._polish_certificate(support, minus_entry=k)
            lambdas, sup = polished if polished is not None else (tuple(point), None)
            return CoherenceVerdict(
                False,
                CoherenceViolation("gap", k, model._entry_lambdas(lambdas), sup, assessed, result.value),
            )
    return CoherenceVerdict(True)


# ---------------------------------------------------------------------------
# Disjoint splits, over label sets
# ---------------------------------------------------------------------------


def split_into_disjoint_by_labels(event: Event, family: "EventFamily") -> Optional[tuple[Event, ...]]:
    """``measurability.split_into_disjoint`` as a plain search over label
    sets: the first outcome left, in outcome order, picks the next
    generator event inside the remainder, tried in generator order, and
    nothing is remembered between branches."""
    if event.is_empty:
        return ()
    if event.is_full:
        return (event,)
    space = event.space
    candidates = [e for e in family.generator_events() if e.members <= event.members]

    def cover(remaining: frozenset[str]) -> Optional[tuple[Event, ...]]:
        if not remaining:
            return ()
        first = next(x for x in space.outcomes if x in remaining)
        for e in candidates:
            if first in e.members and e.members <= remaining:
                rest = cover(remaining - e.members)
                if rest is not None:
                    return (e,) + rest
        return None

    return cover(event.members)

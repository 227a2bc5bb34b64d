"""Exact rational linear programming via a two-phase dense simplex.

Problems go in and answers come out as ``fractions.Fraction``, but the
tableau is fraction-free.  Each row is scaled once, by the lcm of its
denominators, to a coprime ``int`` vector, and stays one: its basic column
holds a positive scale ``d``, so the rational row it stands for is
``row / d``.  A pivot on ``p = prow[c]`` replaces every other row by
``p*row - row[c]*prow`` and divides out the row gcd (integer-preserving
elimination as in Bareiss 1968 and Avis's lrs), so no rational is
normalised inside the pivot loop.  The cost row is an ``int`` vector with
an implicit positive scale, reduced the same way.

Because every scale is positive, each sign in the integer tableau is the
sign of the rational entry, and each ratio ``rhs / a`` is the rational
ratio (the row scale cancels), compared by cross-multiplying.  Bland's
rule (smallest-index entering column, smallest-index basic variable on
ratio ties) therefore takes the same pivot path as over ``Fraction`` and
returns the same vertex or ray, and it still guarantees termination.
There is no floating point anywhere, so feasibility, optimality, and
unboundedness are decided exactly.

Two entering rules are offered.  ``BLAND`` is the default, and every
solve whose vertex or ray is published (coherence certificates, pmf
witnesses, dominating pmfs, measurability coefficients) uses it, because
another rule may end at another optimal vertex and so change those
answers.  ``DANTZIG`` enters the column with the largest reduced cost,
which takes far fewer pivots; the cost row's implicit scale is positive,
so the largest integer entry is the largest rational one.  Dantzig's rule
alone can cycle on degenerate vertices, so after ``DEGENERATE_RUN``
consecutive pivots that leave the objective unchanged the phase finishes
on Bland's rule, which still guarantees termination.  Solves whose answer
is the optimal value or the status alone use it, because those are the
same whichever optimal vertex the pivots reach: lower-prevision queries,
the value-first coherence probes, cone membership, the strict cone check
and the credal-set feasibility questions.

A ``<=`` row with a non-negative right-hand side (or a ``>=`` row with a
negative one) starts on its slack; only the other rows get an artificial,
and a solve with none runs no phase 1.  Lower-prevision queries are
written that way (see ``prevision``), so each is a single phase-2 run.

The solver reports exactly one of three outcomes: an optimum together
with a point that satisfies every constraint exactly, infeasibility, or
unboundedness together with an improving ray.  Each solve owns private
tableau state, so concurrent solves over shared problem data are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .spaces import RationalLike, as_fraction

_ZERO = Fraction(0)

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="

BLAND = "bland"
DANTZIG = "dantzig"

#: Consecutive degenerate pivots after which a Dantzig phase switches to
#: Bland's rule for the rest of that phase.
DEGENERATE_RUN = 8


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None
    #: On UNBOUNDED: a direction d with A-feasibility preserved along x + t*d
    #: and strictly increasing objective.
    ray: Optional[tuple[Fraction, ...]] = None


class LinearProgram:
    """maximize c.x subject to rows (a.x <= / == / >= b), with per-variable
    non-negativity flags (free variables are split internally)."""

    def __init__(
        self,
        num_vars: int,
        objective: Sequence[RationalLike],
        nonneg: Sequence[bool] | bool = True,
    ):
        if len(objective) != num_vars:
            raise ValueError("objective length does not match variable count")
        self.num_vars = num_vars
        self.objective = [as_fraction(c) for c in objective]
        if isinstance(nonneg, bool):
            self.nonneg = [nonneg] * num_vars
        else:
            if len(nonneg) != num_vars:
                raise ValueError("nonneg flags length does not match variable count")
            self.nonneg = list(nonneg)
        self.rows: list[tuple[list[Fraction], str, Fraction]] = []

    def add(self, coeffs: Sequence[RationalLike], rel: str, rhs: RationalLike) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length does not match variable count")
        if rel not in (LESS_EQUAL, EQUAL, GREATER_EQUAL):
            raise ValueError(f"unknown relation {rel!r}")
        # Callers mostly pass Fractions already; coerce only the rest.
        row = [a if isinstance(a, Fraction) else as_fraction(a) for a in coeffs]
        self.rows.append((row, rel, as_fraction(rhs)))

    # -- internal ---------------------------------------------------------

    def _split_columns(self) -> tuple[list[tuple[int, int]], int]:
        """Map each original variable to (plus_col, minus_col); minus_col is -1
        for non-negative variables.  Returns the map and the column count."""
        colmap: list[tuple[int, int]] = []
        ncols = 0
        for j in range(self.num_vars):
            if self.nonneg[j]:
                colmap.append((ncols, -1))
                ncols += 1
            else:
                colmap.append((ncols, ncols + 1))
                ncols += 2
        return colmap, ncols

    def solve(self, pricing: str = BLAND) -> LPResult:
        """Solve the program; ``pricing`` selects the entering rule."""
        if pricing not in (BLAND, DANTZIG):
            raise ValueError(f"unknown pricing {pricing!r}")
        colmap, nstruct = self._split_columns()

        # Expand rows over split columns, with one slack column per
        # inequality.  Each row is scaled by the lcm of its denominators,
        # negated if need be so that its right-hand side is non-negative;
        # its slack's and its artificial's coefficient is then that scale
        # up to sign, which also makes the int row coprime.
        nslack = sum(1 for _, rel, _ in self.rows if rel != EQUAL)
        width = nstruct + nslack
        tableau: list[list[int]] = []
        basis: list[int] = []
        pending: list[tuple[int, int]] = []  # (row, scale) of each row needing an artificial
        slack_at = 0
        for coeffs, rel, b in self.rows:
            scale = lcm(b.denominator, *(a.denominator for a in coeffs))
            k = -scale if b < 0 else scale
            row = [0] * (width + 1)
            for j, a in enumerate(coeffs):
                if a == 0:
                    continue
                v = a.numerator * (k // a.denominator)
                plus, minus = colmap[j]
                row[plus] = v
                if minus >= 0:
                    row[minus] = -v
            row[-1] = b.numerator * (k // b.denominator)
            slack_col = -1
            if rel != EQUAL:
                slack_col = nstruct + slack_at
                slack_at += 1
                row[slack_col] = k if rel == LESS_EQUAL else -k
            # A positive slack with the (now non-negative) rhs can start in
            # the basis; otherwise the row needs an artificial.
            if slack_col >= 0 and row[slack_col] > 0:
                basis.append(slack_col)
            else:
                basis.append(-1)
                pending.append((len(tableau), scale))
            tableau.append(row)

        nart = len(pending)
        total_cols = width + nart
        art_cols = list(range(width, total_cols))
        if nart:
            for row in tableau:
                row[-1:-1] = [0] * nart
            for col, (i, scale) in zip(art_cols, pending):
                tableau[i][col] = scale
                basis[i] = col

        # Phase 1: maximize -(sum of artificials).
        if nart:
            cost = [0] * (total_cols + 1)
            for col in art_cols:
                cost[col] = -1
            self._reduce_cost_row(cost, tableau, basis)
            status, _ = self._iterate(tableau, basis, cost, total_cols, (), pricing)
            assert status is LPStatus.OPTIMAL  # phase 1 is always bounded
            if cost[-1] != 0:  # cost[-1] holds -z; z* < 0 means infeasible
                return LPResult(status=LPStatus.INFEASIBLE)
            self._expel_artificials(tableau, basis, art_cols, width)

        # Phase 2 over the structural objective, scaled to ints.
        cost = [0] * (total_cols + 1)
        scale = lcm(*(c.denominator for c in self.objective))
        for j, c in enumerate(self.objective):
            if c == 0:
                continue
            v = c.numerator * (scale // c.denominator)
            plus, minus = colmap[j]
            cost[plus] = v
            if minus >= 0:
                cost[minus] = -v
        self._reduce_cost_row(cost, tableau, basis)
        status, entering = self._iterate(tableau, basis, cost, total_cols, tuple(art_cols), pricing)

        if status is LPStatus.UNBOUNDED:
            ray = self._extract_ray(tableau, basis, entering, colmap)
            return LPResult(status=LPStatus.UNBOUNDED, ray=ray)

        point = self._extract_point(tableau, basis, colmap)
        value = sum((c * x for c, x in zip(self.objective, point)), _ZERO)
        return LPResult(status=LPStatus.OPTIMAL, value=value, point=point)

    @staticmethod
    def _reduce_cost_row(cost: list[int], tableau: list[list[int]], basis: list[int]) -> None:
        """Zero the cost of every basic column; the implicit scale of the
        cost row stays positive because each row's basic entry is."""
        for row, b in zip(tableau, basis):
            cb = cost[b]
            if cb != 0:
                cost[:] = _coprime([row[b] * v - cb * a for v, a in zip(cost, row)])

    @staticmethod
    def _pivot(tableau: list[list[int]], cost: list[int], basis: list[int], r: int, c: int) -> None:
        prow = tableau[r]
        piv = prow[c]
        if piv < 0:  # keep the new basic entry, and so every row scale, positive
            tableau[r] = prow = [-v for v in prow]
            piv = -piv
        for i, row in enumerate(tableau):
            f = row[c]
            if f == 0 or i == r:
                continue
            tableau[i] = _coprime([piv * v - f * a for v, a in zip(row, prow)])
        f = cost[c]
        if f != 0:
            cost[:] = _coprime([piv * v - f * a for v, a in zip(cost, prow)])
        basis[r] = c

    @classmethod
    def _iterate(
        cls,
        tableau: list[list[int]],
        basis: list[int],
        cost: list[int],
        total_cols: int,
        block_cols: tuple[int, ...],
        pricing: str,
    ) -> tuple[LPStatus, int]:
        """Pivot to optimality; on unboundedness, also return the entering
        column whose ray escapes."""
        blocked = set(block_cols)
        open_cols = [j for j in range(total_cols) if j not in blocked]
        bland = pricing == BLAND
        degenerate = 0
        while True:
            enter = -1
            if bland:  # smallest improving index
                for j in open_cols:
                    if cost[j] > 0:
                        enter = j
                        break
            else:  # largest reduced cost, smallest index on ties
                best = 0
                for j in open_cols:
                    if cost[j] > best:
                        best, enter = cost[j], j
            if enter < 0:
                return LPStatus.OPTIMAL, -1
            # Ratio test: rhs / a, with the row scale cancelled, compared
            # as rhs_i * a_best < rhs_best * a_i (both a positive).
            leave = -1
            best_rhs = best_a = 0
            for i, row in enumerate(tableau):
                a = row[enter]
                if a <= 0:
                    continue
                if leave >= 0:
                    lhs = row[-1] * best_a
                    rhs = best_rhs * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                best_rhs, best_a = row[-1], a
                leave = i
            if leave < 0:
                return LPStatus.UNBOUNDED, enter
            if not bland:
                degenerate = degenerate + 1 if best_rhs == 0 else 0
                bland = degenerate >= DEGENERATE_RUN
            cls._pivot(tableau, cost, basis, leave, enter)

    @staticmethod
    def _expel_artificials(
        tableau: list[list[int]], basis: list[int], art_cols: list[int], width: int
    ) -> None:
        """Pivot artificial variables out of the basis; drop redundant rows.
        The pivot element may be negative here; ``_pivot`` negates its row."""
        art = set(art_cols)
        drop: list[int] = []
        for i in range(len(tableau)):
            if basis[i] not in art:
                continue
            row = tableau[i]
            pivot_col = -1
            for j in range(width):
                if row[j] != 0:
                    pivot_col = j
                    break
            if pivot_col < 0:
                drop.append(i)  # all-zero structural row: redundant constraint
                continue
            LinearProgram._pivot(tableau, [0] * len(row), basis, i, pivot_col)
        for i in reversed(drop):
            del tableau[i]
            del basis[i]

    def _extract_point(
        self, tableau: list[list[int]], basis: list[int], colmap: list[tuple[int, int]]
    ) -> tuple[Fraction, ...]:
        col_values: dict[int, Fraction] = {b: Fraction(row[-1], row[b]) for row, b in zip(tableau, basis)}
        point = []
        for plus, minus in colmap:
            v = col_values.get(plus, _ZERO)
            if minus >= 0:
                v -= col_values.get(minus, _ZERO)
            point.append(v)
        return tuple(point)

    @staticmethod
    def _extract_ray(
        tableau: list[list[int]],
        basis: list[int],
        enter: int,
        colmap: list[tuple[int, int]],
    ) -> tuple[Fraction, ...]:
        """Improving direction from the entering column that had no blocking row."""
        direction: dict[int, Fraction] = {enter: Fraction(1)}
        for row, b in zip(tableau, basis):
            a = row[enter]
            if a != 0:
                direction[b] = Fraction(-a, row[b])
        ray = []
        for plus, minus in colmap:
            v = direction.get(plus, _ZERO)
            if minus >= 0:
                v -= direction.get(minus, _ZERO)
            ray.append(v)
        return tuple(ray)


def _coprime(row: list[int]) -> list[int]:
    """The row divided by the (positive) gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve_lp(
    objective: Sequence[RationalLike],
    constraints: Sequence[tuple[Sequence[RationalLike], str, RationalLike]],
    nonneg: Sequence[bool] | bool = True,
) -> LPResult:
    """One-shot helper: maximize objective subject to (coeffs, rel, rhs) rows."""
    lp = LinearProgram(len(objective), objective, nonneg=nonneg)
    for coeffs, rel, rhs in constraints:
        lp.add(coeffs, rel, rhs)
    return lp.solve()

"""Exact rational linear programming via a two-phase dense simplex.

``LinearProgram`` maximises c.x subject to its rows over x >= 0: every
variable is non-negative, so each one is a tableau column as it stands.
The few quantities in this package that have no sign (the price mu of a
lower-prevision query, the margin of the pmf witness) are written by
their callers as differences of two such columns.

Problems go in as ints and answers come out as ``fractions.Fraction``;
the tableau is fraction-free.  The objective is an ``int`` vector, and
each row goes in through ``LinearProgram.add_scaled`` as ``(scale,
ints)``, the ``scaled_row`` form, with an integer-ratio right-hand side;
the scale becomes the row's positive scale ``d`` in the tableau, so the
rational row it stands for is ``row / d``.

The tableau is a compact exchange tableau (a dictionary): it stores the
non-basic columns only.  Each row is ``[d, entries..., rhs]``, ``labels``
names the variable in each non-basic position, and ``basis`` names each
row's basic variable, whose column is the unit vector times ``d`` and so
is never stored.  A pivot on ``p = prow[c]`` exchanges the entering
variable ``labels[c]`` with the leaving one ``basis[r]``.  The pivot row
is first divided by the gcd of its entries.  With ``s`` the sign of
``p``, it then becomes ``s * prow`` with scale ``|p|`` and ``s * d_r`` in
position ``c``.  Every other row becomes ``|p| * row - f * s * prow``
with ``f = row[c]``, scale ``|p| * d_i`` and ``-f * s * d_r`` in position
``c`` (integer-preserving elimination as in Bareiss 1968 and Avis's lrs),
so no rational is normalised inside the pivot loop.  The common factor
``g = gcd(|p|, f)`` is cancelled from both multipliers before the
products are formed.  An eliminated row is not divided by its gcd until
its scale passes 256 bits: a row's size reaches other rows only through
the multipliers it gives as the pivot row, and it is reduced then.  So
each row is a positive multiple of the row that the exchange tableau
holds with every row divided by its gcd, and equal to it when it pivots.
Between two of its own pivots a row gains about one pivot row's bit
length per elimination, without bound over the hundred-odd pivots of a
rich independent natural extension (7251 bits on a 6x6 one), hence the
reduction.  256 bits is far above the rows of the small LPs that make
most solves, so these pay no gcd per elimination, and it held the rich
queries to 261 bits; a 64-bit bound reduces far more often and measured
slower.
The elimination is sparse: each pivot lists once the positions where
``s * prow`` (with position ``c`` set as above and the scale slot 0) is
non-zero, often fewer than half of them, and each other row is updated
in place: multiplied by ``|p|``, or left as it is when ``|p|`` cancelled
to 1, with ``f * s * prow`` subtracted at the listed positions only.
That is the dense update at every position.  Tableau rows are lists that
the solve builds for itself, so ``LinearProgram.rows`` and the cached
rows of a cone are never written.  The cost row is an ``int`` vector
with an implicit positive scale, kept in the same layout with a 0 in the
scale slot, updated the same way and divided by its gcd after every
elimination.

Because every scale is positive, each sign in the integer tableau is the
sign of the rational entry, and each ratio ``rhs / a`` is the rational
ratio (the row scale cancels), compared by cross-multiplying.  A row's
positive factor decides nothing either: it keeps every sign, cancels
from the ratio within its row, and leaves the ``rhs == 0`` test of a
degenerate pivot alone, while the cost row, from which the entering
variable and the prices are read, is divided by its gcd and so is the
same whatever the rows' factors.  Bland's rule (smallest entering label,
smallest basic label on ratio ties) therefore takes the same pivot path
as over ``Fraction``, or over the full-width tableau, and returns the
same vertex or ray; it still guarantees termination.  There is no
floating point anywhere, so feasibility, optimality, and unboundedness
are decided exactly.

Two entering rules are offered.  ``BLAND`` is the default, and every
solve whose vertex or ray is published (coherence certificates, pmf
witnesses, measurability coefficients) uses it, because
another rule may end at another optimal vertex and so change those
answers.  ``DANTZIG`` enters the variable with the largest reduced cost,
smallest label on ties, which takes far fewer pivots; the cost row's
implicit scale is positive, so the largest integer entry is the largest
rational one.  Dantzig's rule alone can cycle on degenerate vertices, so
after ``DEGENERATE_RUN`` consecutive pivots that leave the objective
unchanged the phase finishes on Bland's rule, which still guarantees
termination.  Solves whose answer is the optimal value or the status
alone use it, because those are the same whichever optimal vertex the
pivots reach: lower-prevision queries, the value-first coherence probes,
cone membership and the credal-set questions.
Dominating pmfs are read off the prices of two such query solves, so
they may change with the basis reached, but every one is checked to be
dominating and to attain the query value.

Under ``DANTZIG`` a tie in the ratio test goes to the row whose pivot
entry ``a_i / d_i`` is largest, compared as ``a_i * d_j > a_j * d_i``
(the classical choice of Harris 1973), and to the smallest basic label
when those are equal too; like the ratio, that entry does not depend on
a row's positive factor.  Most ties are degenerate (rhs 0): on the
coherence probes of 12-entry models three in four pivots were, under the
smallest-label tie-break, and this rule took away about a quarter of
all pivots.
Bland's rule keeps its smallest-label tie-break, because its termination
rests on it and because the published vertices and rays come from its
path; so does a Dantzig phase once it has switched to Bland's rule.  A
Dantzig solve may therefore end at another optimal basis than it did
with the smallest-label tie-break, and its point and prices may differ,
but its status and value may not.

A ``<=`` row with a non-negative right-hand side (or a ``>=`` row with a
negative one) starts on its slack; only the other rows get an artificial,
and a solve with none runs no phase 1.  Lower-prevision queries and every
cone status question are written that way (see ``cones``), so each is a
single phase-2 run.
Artificial columns leave the tableau once phase 1 ends.

The solver reports exactly one of three outcomes: an optimum together
with a point that satisfies every constraint exactly, infeasibility, or
unboundedness together with an improving ray.  An optimum keeps the
basic rows' ``(label, rhs, scale)`` ints, and its value is summed from
them in ints and made one ``Fraction``; ``LPResult.point`` is built from
them the first time it is read, so a solve read for its value or prices
alone (``cones._lower_value``) makes no point, and ``LPResult.scaled_point``
gives the point as ints over one scale (the INE master LP of
``independence`` prices its rows so).  An optimum also carries one
integer price per row, read in one pass over the final non-basic labels:
minus the cost-row entry of the row's slack when that slack is non-basic,
and 0 when it is basic or the row is an equality.  A slack's reduced cost
does not depend on how its row was scaled or negated, so for an inequality
row written as ``<=`` the price is its optimal dual value, and all prices
share the cost row's implicit positive scale.  Callers that use them as a
dual check them first (see ``cones._dominating_expectations``).

Each solve owns private tableau state, so concurrent solves over shared
problem data are safe.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Optional, Sequence

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


class LPResult:
    """The outcome of a solve.  ``LPResult(status, value, point, ray,
    prices)`` builds one directly; a solve hands over its optimum as the
    basic rows' ints instead of a point, and ``point`` is built from them
    the first time it is read, so a caller that reads only the value or
    the prices makes no ``Fraction`` point.  Results are immutable, and
    equal when their status, value, point, ray and prices are."""

    __slots__ = ("status", "value", "ray", "prices", "_point", "_basic")

    status: LPStatus
    value: Optional[Fraction]
    #: On UNBOUNDED: a direction d with A-feasibility preserved along x + t*d
    #: and strictly increasing objective.
    ray: Optional[tuple[Fraction, ...]]
    #: On OPTIMAL: one integer price per row, the dual value of an
    #: inequality row written as ``<=``, times one positive scale shared by
    #: all rows (0 for a row whose slack is basic, and for an ``==`` row).
    prices: Optional[tuple[int, ...]]

    def __init__(
        self,
        status: LPStatus,
        value: Optional[Fraction] = None,
        point: Optional[tuple[Fraction, ...]] = None,
        ray: Optional[tuple[Fraction, ...]] = None,
        prices: Optional[tuple[int, ...]] = None,
    ) -> None:
        for name, v in zip(self.__slots__, (status, value, ray, prices, point, None)):
            object.__setattr__(self, name, v)

    @classmethod
    def _optimum(
        cls, nstruct: int, basic: tuple[tuple[int, int, int], ...], value: Fraction, prices: tuple[int, ...]
    ) -> "LPResult":
        """An optimum whose point has ``nstruct`` entries: ``rhs / scale``
        for each ``(label, rhs, scale)`` in ``basic``, and 0 elsewhere."""
        result = cls(LPStatus.OPTIMAL, value, prices=prices)
        object.__setattr__(result, "_basic", (nstruct, basic))
        return result

    @property
    def point(self) -> Optional[tuple[Fraction, ...]]:
        """On OPTIMAL: the optimal vertex's structural part."""
        if self._point is None and self._basic is not None:
            nstruct, basic = self._basic
            point = [_ZERO] * nstruct
            for label, rhs, scale in basic:
                point[label] = Fraction(rhs, scale)
            object.__setattr__(self, "_point", tuple(point))
        return self._point

    def scaled_point(self) -> tuple[int, list[int]]:
        """A solve's optimal vertex as ``(scale, ints)``: entry k is
        ``ints[k] / scale``, over the lcm of the basic rows' scales, with no
        ``Fraction`` made."""
        nstruct, basic = self._basic
        scale = lcm(*(d for _, _, d in basic))
        ints = [0] * nstruct
        for label, rhs, d in basic:
            ints[label] = rhs * (scale // d)
        return scale, ints

    def _fields(self) -> tuple:
        return self.status, self.value, self.point, self.ray, self.prices

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LPResult:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = zip(("status", "value", "point", "ray", "prices"), self._fields())
        return f"LPResult({', '.join(f'{name}={v!r}' for name, v in fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LP results are immutable")

    __delattr__ = __setattr__


def scaled_row(values: Sequence[Fraction | int]) -> tuple[int, tuple[int, ...]]:
    """The ints and ``Fraction``s ``values`` as ``(scale, ints)``: ``scale``
    is the lcm of their denominators and ``ints`` are the values times
    ``scale``.  This is the integer row form that ``LinearProgram.add_scaled``
    takes, and every value that becomes one is converted here; anything else,
    a float or a ``Decimal`` too, raises ``TypeError``."""
    try:
        ratios = [(a.numerator, a.denominator) for a in values]
    except AttributeError:
        raise TypeError(f"values must be ints or Fractions, got {values!r}") from None
    scale = lcm(*{d for _, d in ratios})
    return scale, tuple(n * (scale // d) for n, d in ratios)


class LinearProgram:
    """maximize c.x subject to rows (a.x <= / == / >= b) and x >= 0.

    The objective c is ints, and rows go in as integer rows (``add_scaled``).
    A caller with a free variable y writes it as y+ - y-, two non-negative
    columns, and reads y back as their difference."""

    def __init__(self, num_vars: int, objective: Sequence[int]):
        if len(objective) != num_vars:
            raise ValueError("objective length does not match variable count")
        self.num_vars = num_vars
        self.objective = list(map(index, objective))
        #: (scale, coefficients * scale, relation, rhs * scale), all ints.
        self.rows: list[tuple[int, Sequence[int], str, int]] = []

    def add_scaled(
        self,
        row: tuple[int, Sequence[int]],
        rel: str,
        rhs: tuple[int, int],
        last: tuple[int, ...] = (),
    ) -> None:
        """Add a row given as ``scaled_row`` returns it, followed by the
        ints ``last`` as its trailing coefficients.  The right-hand side is
        the ratio ``rhs = (numerator, denominator)`` of two ints, the
        denominator positive but not necessarily coprime to the numerator,
        so a caller whose values share one scale passes them over it.  The
        row scale is raised, and the coefficients with it, only when it is
        not a multiple of the ratio's denominator in lowest terms."""
        scale, coeffs = row
        if last:
            coeffs = (*coeffs, *(v * scale for v in last))
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length does not match variable count")
        if rel not in (LESS_EQUAL, EQUAL, GREATER_EQUAL):
            raise ValueError(f"unknown relation {rel!r}")
        b, q = rhs
        if scale % q:
            g = gcd(b, q)
            b //= g
            q //= g
            if scale % q:
                m = q // gcd(scale, q)
                scale *= m
                coeffs = [a * m for a in coeffs]
        self.rows.append((scale, coeffs, rel, b * (scale // q)))

    # -- internal ---------------------------------------------------------

    def solve(self, pricing: str = BLAND) -> LPResult:
        """Solve the program; ``pricing`` selects the entering rule."""
        if pricing not in (BLAND, DANTZIG):
            raise ValueError(f"unknown pricing {pricing!r}")
        nstruct = self.num_vars

        # Variables are labelled as the full-width tableau's columns:
        # structural, then one slack per inequality, then one artificial per
        # row that cannot start on its slack.  A row is negated if need be so
        # that its right-hand side is non-negative; a positive slack then
        # starts in the basis, and otherwise the row's slack (if any) is
        # non-basic at -scale and an artificial at +scale is basic.
        slack_label: list[int] = []
        starts_on_slack: list[bool] = []
        width = nstruct
        for _, _, rel, b in self.rows:
            if rel == EQUAL:
                slack_label.append(-1)
                starts_on_slack.append(False)
            else:
                slack_label.append(width)
                width += 1
                starts_on_slack.append((rel == LESS_EQUAL) == (b >= 0))
        labels = [-1, *range(nstruct)]  # labels[0] stands for the scale slot
        slack_pos: dict[int, int] = {}
        for i, s in enumerate(slack_label):
            if s >= 0 and not starts_on_slack[i]:
                slack_pos[i] = len(labels)
                labels.append(s)
        pad = [0] * len(slack_pos)

        tableau: list[list[int]] = []
        basis: list[int] = []
        nart = 0
        for i, (scale, coeffs, rel, b) in enumerate(self.rows):
            if b < 0:
                row = [scale, *(-v for v in coeffs), *pad, -b]
            else:
                row = [scale, *coeffs, *pad, b]
            if starts_on_slack[i]:
                basis.append(slack_label[i])
            else:
                basis.append(width + nart)
                nart += 1
                if i in slack_pos:
                    row[slack_pos[i]] = -scale
            tableau.append(row)

        # Phase 1: maximize -(sum of artificials).
        if nart:
            cost = self._cost_row([-1 if v >= width else 0 for v in basis], tableau, labels, {})
            status, _ = self._iterate(tableau, basis, labels, cost, pricing)
            assert status is LPStatus.OPTIMAL  # phase 1 is always bounded
            if cost[-1] != 0:  # cost[-1] holds -z; z* < 0 means infeasible
                return LPResult(status=LPStatus.INFEASIBLE)
            self._expel_artificials(tableau, basis, labels, width)
            keep = [j for j in range(1, len(labels)) if labels[j] < width]
            if len(keep) < len(labels) - 1:
                labels = [-1, *(labels[j] for j in keep)]
                tableau[:] = [[row[0], *(row[j] for j in keep), row[-1]] for row in tableau]

        # Phase 2 over the structural objective.
        costs = {j: c for j, c in enumerate(self.objective) if c}
        cost = self._cost_row([costs.get(v, 0) for v in basis], tableau, labels, costs)
        status, entering = self._iterate(tableau, basis, labels, cost, pricing)

        if status is LPStatus.UNBOUNDED:
            ray = self._extract_ray(tableau, basis, labels[entering], entering, nstruct)
            return LPResult(status=LPStatus.UNBOUNDED, ray=ray)

        # The value sum(c_b * rhs_b / d_b) over the basic structural rows,
        # summed over the product of their scales and made one Fraction.
        objective = self.objective
        basic = tuple((b, row[-1], row[0]) for row, b in zip(tableau, basis) if b < nstruct)
        num, den = 0, 1
        for b, rhs, d in basic:
            c = objective[b]
            if c:
                num = num * d + c * rhs * den
                den *= d
        prices = [0] * len(self.rows)
        slack_row = [i for i, s in enumerate(slack_label) if s >= 0]
        for v, c in zip(labels[1:], cost[1:-1]):
            if v >= nstruct:
                prices[slack_row[v - nstruct]] = -c
        return LPResult._optimum(nstruct, basic, Fraction(num, den), tuple(prices))

    @staticmethod
    def _cost_row(
        pending: list[int], tableau: list[list[int]], labels: list[int], costs: dict[int, int]
    ) -> list[int]:
        """The cost row over the non-basic positions, with the cost of every
        basic variable priced out.  ``costs`` gives the non-basic costs by
        label and ``pending`` each row's basic cost.  Pricing out row i
        multiplies the whole cost row by its scale, so the costs still
        pending scale with it, and the gcd divides them too; the implicit
        scale of the cost row stays positive because each row scale is."""
        cost = [0, *(costs.get(v, 0) for v in labels[1:]), 0]
        for i, row in enumerate(tableau):
            cb = pending[i]
            if cb == 0:
                continue
            d = row[0]
            cost = [d * v - cb * a for v, a in zip(cost, row)]
            cost[0] = 0
            pending = [d * v for v in pending]
            pending[i] = 0
            g = gcd(*cost, *pending)
            if g > 1:
                cost = [v // g for v in cost]
                pending = [v // g for v in pending]
        return cost

    @staticmethod
    def _pivot(
        tableau: list[list[int]],
        cost: list[int],
        basis: list[int],
        labels: list[int],
        r: int,
        c: int,
    ) -> None:
        """Exchange the non-basic variable in position ``c`` with the basic
        variable of row ``r``.  The pivot row is divided by its gcd first and
        stored so.  Every other row with a non-zero entry in position ``c``,
        and the cost row, becomes ``(piv * row - f * elim) / g`` in place,
        with ``f`` its entry, g = gcd(piv, f) cancelled from both multipliers
        before the products are formed, and ``elim`` the pivot row with the
        scale slot 0 and ``piv + s * d_r`` in position ``c``.  ``f * elim``
        is subtracted where ``elim`` is non-zero only; a row whose multiplier
        cancelled to 1 is not otherwise touched.  An eliminated row is not
        divided by its gcd: no decision depends on a row's positive factor,
        and it is reduced when it pivots, or as soon as its scale passes 256
        bits.  The cost row is divided by its gcd after its elimination."""
        prow = _coprime(tableau[r])
        piv = prow[c]
        if piv < 0:  # keep the new row scale positive
            prow = [-v for v in prow]
            piv = -piv
        d = prow[0]  # s * d_r
        # Eliminating with ``elim`` gives every other row scale piv * d_i
        # (elim[0] = 0) and -f * s * d_r in position c.  Only its non-zero
        # positions are listed, once per pivot, for the elimination to visit.
        elim = prow.copy()
        elim[0] = 0
        elim[c] = piv + d
        nonzero = [(j, a) for j, a in enumerate(elim) if a]
        rows = [row for i, row in enumerate(tableau) if row[c] and i != r]
        reduce_cost = cost[c] != 0
        if reduce_cost:
            rows.append(cost)
        for row in rows:
            f = row[c]
            g = gcd(piv, f)
            p, f = piv // g, f // g
            if p != 1:
                row[:] = [p * v for v in row]
            for j, a in nonzero:
                row[j] -= f * a
            if row[0].bit_length() > 256:
                row[:] = _coprime(row)
        if reduce_cost:
            cost[:] = _coprime(cost)
        prow[0] = piv
        prow[c] = d
        tableau[r] = prow
        basis[r], labels[c] = labels[c], basis[r]

    @classmethod
    def _iterate(
        cls,
        tableau: list[list[int]],
        basis: list[int],
        labels: list[int],
        cost: list[int],
        pricing: str,
    ) -> tuple[LPStatus, int]:
        """Pivot to optimality; on unboundedness, also return the entering
        position whose ray escapes."""
        positions = range(1, len(labels))
        bland = pricing == BLAND
        degenerate = 0
        while True:
            enter = -1
            if bland:  # smallest improving label
                for j in positions:
                    if cost[j] > 0 and (enter < 0 or labels[j] < labels[enter]):
                        enter = j
            else:  # largest reduced cost, smallest label on ties
                reduced = cost[1:-1]
                best = max(reduced, default=0)
                if best > 0:
                    enter = reduced.index(best) + 1
                    if reduced.count(best) > 1:
                        enter = min((j for j in positions if cost[j] == best), key=labels.__getitem__)
            if enter < 0:
                return LPStatus.OPTIMAL, -1
            # Ratio test: rhs / a, with the row scale cancelled, compared
            # as rhs_i * a_best < rhs_best * a_i (both a positive).  A tie
            # goes to the smallest basic label under Bland's rule, and
            # otherwise to the largest pivot entry a / d, compared as
            # a_i * d_best > a_best * d_i, then to the smallest label.
            leave = -1
            best_rhs = best_a = best_d = 0
            for i, row in enumerate(tableau):
                a = row[enter]
                if a <= 0:
                    continue
                if leave >= 0:
                    lhs = row[-1] * best_a
                    rhs = best_rhs * a
                    if lhs > rhs:
                        continue
                    if lhs == rhs:
                        if not bland:
                            lhs = a * best_d
                            rhs = best_a * row[0]
                        if lhs < rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                best_rhs, best_a, best_d = row[-1], a, row[0]
                leave = i
            if leave < 0:
                return LPStatus.UNBOUNDED, enter
            if not bland:
                degenerate = degenerate + 1 if best_rhs == 0 else 0
                bland = degenerate >= DEGENERATE_RUN
            cls._pivot(tableau, cost, basis, labels, leave, enter)

    @staticmethod
    def _expel_artificials(
        tableau: list[list[int]], basis: list[int], labels: list[int], width: int
    ) -> None:
        """Pivot artificial variables out of the basis, each on its row's
        smallest-labelled non-artificial entry; drop redundant rows.  The
        pivot element may be negative here; ``_pivot`` negates its row."""
        drop: list[int] = []
        for i in range(len(tableau)):
            if basis[i] < width:
                continue
            row = tableau[i]
            pivot_pos = -1
            for j in range(1, len(labels)):
                if row[j] != 0 and labels[j] < width and (pivot_pos < 0 or labels[j] < labels[pivot_pos]):
                    pivot_pos = j
            if pivot_pos < 0:
                drop.append(i)  # all-zero structural row: redundant constraint
                continue
            LinearProgram._pivot(tableau, [0] * len(row), basis, labels, i, pivot_pos)
        for i in reversed(drop):
            del tableau[i]
            del basis[i]

    @staticmethod
    def _extract_ray(
        tableau: list[list[int]],
        basis: list[int],
        enter: int,
        pos: int,
        nstruct: int,
    ) -> tuple[Fraction, ...]:
        """Improving direction from the entering variable ``enter``, in
        position ``pos``, that had no blocking row; slacks are not read."""
        ray = [_ZERO] * nstruct
        if enter < nstruct:
            ray[enter] = Fraction(1)
        for row, b in zip(tableau, basis):
            a = row[pos]
            if a != 0 and b < nstruct:
                ray[b] = Fraction(-a, row[0])
        return tuple(ray)


def _coprime(row: list[int]) -> list[int]:
    """The row divided by the (positive) gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row

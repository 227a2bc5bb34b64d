"""The exact rational LP core, cross-checked against independent routes."""

import ast
import itertools
import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from desirables import simplex
from desirables.cones import _lower_value
from desirables.independence import EventFamily, IndependentNaturalExtension
from desirables.simplex import BLAND, DANTZIG, LinearProgram, LPResult, LPStatus, _coprime, scaled_row
from desirables.spaces import Space
from desirables.suites import random_envelope_model, random_gamble, random_nonempty_event

from oracles import solve_linear_system, sympy_lp_max


class TestCannedPrograms:
    def test_bounded_optimum(self):
        result = solve_priced(BLAND, [1, 1], [([1, 2], "<=", 4), ([1, 0], "<=", 1)])
        assert result.status is LPStatus.OPTIMAL
        assert result.value == Fraction(5, 2)
        assert result.point == (Fraction(1), Fraction(3, 2))

    def test_infeasible(self):
        result = solve_priced(BLAND, [1], [([1], ">=", 1), ([1], "<=", 0)])
        assert result.status is LPStatus.INFEASIBLE

    def test_unbounded_with_ray(self):
        result = solve_priced(BLAND, [1, 0], [([0, 1], "<=", 3)])
        assert result.status is LPStatus.UNBOUNDED
        assert result.ray is not None and result.ray[0] > 0

    def test_free_variable(self):
        result = solve_priced(BLAND, [-1], [([1], ">=", -3)], nonneg=[False])
        assert result.status is LPStatus.OPTIMAL
        assert result.value == 3 and result.point == (Fraction(-3),)

    def test_equality_constraint(self):
        result = solve_priced(BLAND, [1, 1], [([1, 1], "==", 2), ([1, 0], "<=", 1)])
        assert result.status is LPStatus.OPTIMAL and result.value == 2

    @pytest.mark.parametrize("pricing", [BLAND, DANTZIG])
    def test_beale_cycling_example_terminates(self, pricing, monkeypatch):
        # A classic degenerate instance that cycles without an anti-cycling
        # rule: Dantzig's rule alone returns to its starting basis, and only
        # the switch to Bland's rule after a run of degenerate pivots ends
        # the cycle.  A pivot budget turns a cycle into a failure.
        pivots = []
        original = LinearProgram._pivot

        def counted(*args):
            pivots.append(args[-1])
            assert len(pivots) <= 200, "the simplex is cycling"
            return original(*args)

        monkeypatch.setattr(LinearProgram, "_pivot", staticmethod(counted))
        result = solve_priced(
            pricing,
            [Fraction(3, 4), -150, Fraction(1, 50), -6],
            [
                ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
                ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
                ([0, 0, 1, 0], "<=", 1),
            ],
        )
        assert result.status is LPStatus.OPTIMAL
        assert result.value == Fraction(1, 20)

    def test_redundant_equalities(self):
        result = solve_priced(
            BLAND,
            [1, 1],
            [([1, 1], "==", 1), ([2, 2], "==", 2), ([1, 0], "<=", Fraction(1, 3))],
        )
        assert result.status is LPStatus.OPTIMAL and result.value == 1

    def test_point_satisfies_all_constraints_exactly(self):
        rows = [([3, -2, 5], "<=", 7), ([1, 1, 1], ">=", 2), ([0, 1, -1], "==", 0)]
        result = solve_priced(BLAND, [2, -1, 1], rows, nonneg=[True, True, False])
        assert result.status is LPStatus.OPTIMAL
        assert_satisfies(rows, [True, True, False], result.point)

    @pytest.mark.parametrize(
        "objective, rows, value",
        [
            ([0, 3, -2], [([-3, -1, 0], "==", 0), ([0, 1, 1], "==", 1)], -2),
            ([3, -1, 2], [([-3, -1, 0], "==", 0), ([0, -1, 1], "<=", 3)], 6),
        ],
        ids=["two-equalities", "equality-and-inequality"],
    )
    def test_artificial_expelled_by_negative_pivot(self, objective, rows, value):
        # Phase 1 ends with the artificial of -3x - y == 0 basic at level 0,
        # and the first non-zero entry of its row is -3, so the expulsion
        # pivots on a negative element.  The pivot row must be negated so
        # that its basic entry, the row scale, stays positive; otherwise the
        # signs the later pivots read are wrong and so is the vertex.
        result = solve_priced(BLAND, objective, rows)
        assert result.status is LPStatus.OPTIMAL
        assert result.value == value
        assert_satisfies(rows, True, result.point)


def split_program(objective, rows, nonneg):
    """The ``LinearProgram`` that maximizes the rational objective subject
    to rational (coeffs, rel, rhs) rows, and the function that folds its
    result back.  The objective goes in times the lcm k of its
    denominators, each row as its ``scaled_row``, and the folded result's
    value is divided by k.  ``nonneg`` flags each variable (or all of
    them) as non-negative; a free variable x is written x+ - x-, with the
    x- column right after the x+ one, and its point and ray entries are
    read back as the difference."""
    if isinstance(nonneg, bool):
        nonneg = [nonneg] * len(objective)
    # Per variable, its column and, when free, the column of its negation.
    columns = []
    width = 0
    for flag in nonneg:
        columns.append((width, -1 if flag else width + 1))
        width += 1 if flag else 2

    def split(values):
        out = [0] * width
        for (plus, minus), v in zip(columns, values):
            out[plus] = v
            if minus >= 0:
                out[minus] = -v
        return out

    def fold(values):
        if values is None:
            return None
        return tuple(values[plus] - (values[minus] if minus >= 0 else 0) for plus, minus in columns)

    k = lcm(*(Fraction(c).denominator for c in objective))
    lp = LinearProgram(width, [int(c * k) for c in split(objective)])
    for coeffs, rel, rhs in rows:
        lp.add_scaled(scaled_row([Fraction(a) for a in split(coeffs)]), rel, Fraction(rhs).as_integer_ratio())

    def unsplit(result):
        value = None if result.value is None else result.value / k
        return LPResult(result.status, value, fold(result.point), fold(result.ray))

    return lp, unsplit


def solve_priced(pricing, objective, rows, nonneg=True):
    """Solve ``split_program`` with the given entering rule; the value is
    the rational objective's, and the point and ray are folded back to
    the free variables."""
    lp, unsplit = split_program(objective, rows, nonneg)
    return unsplit(lp.solve(pricing))


def assert_satisfies(rows, nonneg, point):
    """Every row and every non-negativity flag holds exactly at the point."""
    if isinstance(nonneg, bool):
        nonneg = [nonneg] * len(point)
    assert all(x >= 0 for x, flag in zip(point, nonneg) if flag)
    for coeffs, rel, rhs in rows:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        assert (
            (rel == "<=" and lhs <= rhs)
            or (rel == ">=" and lhs >= rhs)
            or (rel == "==" and lhs == rhs)
        )


GOLDEN = json.loads((Path(__file__).parent / "data" / "simplex_golden.json").read_text())


def fractions_or_none(values):
    return None if values is None else tuple(Fraction(v) for v in values)


class TestPivotPathGolden:
    """Answers recorded from the rational (``Fraction``) tableau that the
    integer tableau replaced, on seeded random LPs with mixed relations,
    free variables, scaled duplicate rows, and infeasible and unbounded
    cases.  Which optimal vertex or improving ray comes back depends on the
    pivot path, so exact equality pins Bland's path and its tie-breaks."""

    @pytest.mark.parametrize("case", GOLDEN, ids=[f"lp{k:03d}" for k in range(len(GOLDEN))])
    def test_recorded_answer(self, case):
        objective = [Fraction(c) for c in case["objective"]]
        rows = [([Fraction(a) for a in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in case["rows"]]
        result = solve_priced(BLAND, objective, rows, nonneg=case["nonneg"])
        assert result.status.value == case["status"]
        assert result.value == (None if case["value"] is None else Fraction(case["value"]))
        assert result.point == fractions_or_none(case["point"])
        assert result.ray == fractions_or_none(case["ray"])


class TestDantzigPricing:
    """Dantzig pricing may end at another optimal vertex, so on the
    recorded LPs only the status and the value must agree.  The point it
    returns must still satisfy every constraint exactly, and a ray must
    improve the objective and keep every constraint's homogeneous part."""

    @pytest.mark.parametrize("case", GOLDEN, ids=[f"lp{k:03d}" for k in range(len(GOLDEN))])
    def test_recorded_status_and_value(self, case):
        objective = [Fraction(c) for c in case["objective"]]
        rows = [([Fraction(a) for a in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in case["rows"]]
        result = solve_priced(DANTZIG, objective, rows, nonneg=case["nonneg"])
        assert result.status.value == case["status"]
        assert result.value == (None if case["value"] is None else Fraction(case["value"]))
        if result.point is not None:
            assert_satisfies(rows, case["nonneg"], result.point)
        if result.ray is not None:
            assert sum(c * d for c, d in zip(objective, result.ray)) > 0
            assert_satisfies([(coeffs, rel, 0) for coeffs, rel, _ in rows], case["nonneg"], result.ray)

    def test_unknown_pricing_rejected(self):
        with pytest.raises(ValueError):
            solve_priced("steepest", [1], [([1], "<=", 1)])


def brute_force_box_lp(objective, rows, box):
    """Exact optimum of maximize c.x over 0 <= x <= box intersected with the
    rows, by enumerating all vertex candidates (n-subsets of tight
    constraints).  The box keeps the region bounded so a nonempty region
    always has a vertex."""
    n = len(objective)
    normals = []
    offsets = []
    for coeffs, rel, rhs in rows:
        if rel in ("<=", "=="):
            normals.append([Fraction(c) for c in coeffs])
            offsets.append(Fraction(rhs))
        if rel in (">=", "=="):
            normals.append([-Fraction(c) for c in coeffs])
            offsets.append(-Fraction(rhs))
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(-1)
        normals.append(list(row))
        offsets.append(Fraction(0))
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        normals.append(row)
        offsets.append(Fraction(box))

    def feasible(x):
        return all(
            sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(normals, offsets)
        )

    best = None
    for subset in itertools.combinations(range(len(normals)), n):
        point = solve_linear_system(
            [normals[i] for i in subset], [offsets[i] for i in subset]
        )
        if point is None or not feasible(point):
            continue
        value = sum(c * v for c, v in zip(objective, point))
        if best is None or value > best:
            best = value
    return best


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_boxed_lps(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        objective = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(0, 4)):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            rel = rng.choice(["<=", ">=", "=="])
            rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            rows.append((coeffs, rel, rhs))
        box = 10
        boxed_rows = rows + [
            (
                [Fraction(1) if j == k else Fraction(0) for j in range(n)],
                "<=",
                Fraction(box),
            )
            for k in range(n)
        ]
        result = solve_priced(BLAND, objective, boxed_rows)
        expected = brute_force_box_lp(objective, rows, box)
        if expected is None:
            assert result.status is LPStatus.INFEASIBLE
        else:
            assert result.status is LPStatus.OPTIMAL
            assert result.value == expected


class TestAgainstSympy:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_lps_match_sympy(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 4)
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rel = rng.choice(["<=", ">=", "=="])
            rhs = Fraction(rng.randint(-3, 3))
            rows.append((coeffs, rel, rhs))
        nonneg = [True] * n
        result = solve_priced(BLAND, objective, rows, nonneg=nonneg)
        status, value = sympy_lp_max(objective, rows, nonneg)
        assert result.status.value == status
        if status == "optimal":
            assert result.value == value


class TestScaledRows:
    """``add_scaled`` with a ``scaled_row`` stores the rationals' row over
    the lcm of every denominator, the rhs one included, whether the rhs
    ratio comes in lowest terms or not."""

    @pytest.mark.parametrize("seed", range(20))
    def test_add_scaled_stores_the_lowest_terms_row(self, seed):
        rng = random.Random(3300 + seed)
        n = rng.randint(0, 5)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        last = rng.choice([(0,), (1,)])
        rhs = Fraction(rng.randint(-9, 9), rng.randint(1, 10))
        rel = rng.choice(["<=", ">=", "=="])
        scale, ints = scaled_row(coeffs)
        assert scale > 0 and all(Fraction(a, scale) == c for a, c in zip(ints, coeffs))
        scaled = LinearProgram(n + 1, [0] * (n + 1))
        scaled.add_scaled((scale, ints), rel, rhs.as_integer_ratio(), last=last)
        k = rng.randint(2, 12)
        scaled.add_scaled((scale, ints), rel, (rhs.numerator * k, rhs.denominator * k), last=last)
        want = lcm(scale, rhs.denominator)
        expected = (want, [int(c * want) for c in [*coeffs, *last]], rel, int(rhs * want))
        (s2, c2, r2, b2), (s3, c3, r3, b3) = scaled.rows
        assert (s2, list(c2), r2, b2) == (s3, list(c3), r3, b3) == expected

    def test_add_scaled_checks_length_and_relation(self):
        lp = LinearProgram(2, [0, 0])
        with pytest.raises(ValueError):
            lp.add_scaled(scaled_row([Fraction(1, 2)]), "<=", (0, 1))
        with pytest.raises(ValueError):
            lp.add_scaled(scaled_row([Fraction(1, 2)]), "<", (0, 1), last=(1,))
        lp.add_scaled(scaled_row([Fraction(1, 2)]), "<=", (2, 6), last=(1,))
        [(scale, coeffs, rel, rhs)] = lp.rows
        assert (scale, list(coeffs), rel, rhs) == (6, [3, 6], "<=", 2)


# Entries that often share factors, so that gcd(pivot, multiplier) > 1.
_entries = st.one_of(st.integers(-30, 30), st.integers(-6, 6).map(lambda v: 12 * v))


# The same entries, about three in four of them 0, as in the cone LPs'
# tableaux: a row then meets the pivot row's non-zeros at a few positions.
_sparse_entries = st.tuples(st.integers(0, 3), _entries).map(lambda t: t[1] if t[0] == 0 else 0)


@st.composite
def pivot_cases(draw, entries=_entries):
    """A random compact tableau with positive row scales, a cost row, and a
    non-zero pivot position."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    tableau = [
        [draw(st.integers(1, 36)), *draw(st.lists(entries, min_size=k + 1, max_size=k + 1))] for _ in range(m)
    ]
    cost = [0, *draw(st.lists(entries, min_size=k + 1, max_size=k + 1))]
    r, c = draw(st.integers(0, m - 1)), draw(st.integers(1, k))
    if tableau[r][c] == 0:
        tableau[r][c] = draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 36))
    return tableau, cost, r, c


def dense_pivot(tableau, cost, basis, labels, r, c):
    """The reference pivot: ``LinearProgram._pivot``'s exchange with every
    entry of every other row formed as ``piv * v - f * a``, zeros of the
    pivot row included, and the row divided by its gcd."""
    prow = tableau[r] if tableau[r][c] > 0 else [-v for v in tableau[r]]
    piv, d = prow[c], prow[0]
    elim = [0, *prow[1:]]
    elim[c] = piv + d
    for i, row in enumerate(tableau):
        if i != r and row[c] != 0:
            tableau[i] = _coprime([piv * v - row[c] * a for v, a in zip(row, elim)])
    if cost[c] != 0:
        cost[:] = _coprime([piv * v - cost[c] * a for v, a in zip(cost, elim)])
    prow = [piv, *prow[1:]]
    prow[c] = d
    tableau[r] = prow
    basis[r], labels[c] = labels[c], basis[r]


class TestCancelledPivot:
    """``_pivot`` divides the pivot row by its gcd, cancels gcd(pivot,
    multiplier) before eliminating, and subtracts only where the pivot row
    is non-zero.  The reference is the dense ``_coprime(piv * row - f *
    elim)`` on the same tableau with every row divided by its gcd: the
    pivot row and the cost row must be its rows exactly, and every other
    row a positive multiple of its row."""

    @staticmethod
    def assert_dense_rows(case):
        tableau, cost, r, c = case
        # The reference rows are copies: ``_pivot`` writes the rows it is given.
        expected, expected_cost = [_coprime(row.copy()) for row in tableau], cost.copy()
        assert not any(a is b for a in expected for b in tableau)
        basis, labels = list(range(10, 10 + len(tableau))), [-1, *range(len(cost) - 2)]
        dense_pivot(expected, expected_cost, basis.copy(), labels.copy(), r, c)
        LinearProgram._pivot(tableau, cost, basis, labels, r, c)
        assert tableau[r] == expected[r]
        assert cost == expected_cost
        for i, (row, want) in enumerate(zip(tableau, expected)):
            if i != r:
                assert row[0] > 0 and _coprime(row) == want

    @given(pivot_cases())
    def test_same_rows_as_the_uncancelled_elimination(self, case):
        self.assert_dense_rows(case)

    # Each example has rows off the pivot row's zeros and on them; in turn
    # the multipliers cancel to piv = 1 (3 against 6 and 9), stay above 1
    # (4 against 6), and the pivot is negative.
    @example(([[1, 3, 0, 5], [2, 6, 0, 0], [4, 0, 7, 1]], [0, 9, 0, 2], 0, 1))
    @example(([[1, 4, 0, 0, 7], [5, 6, 0, 2, 0]], [0, 2, 0, 1, 0], 0, 1))
    @example(([[2, 0, -3, 0, 1], [1, 0, 5, 0, 0], [3, 1, 0, 0, 2]], [0, 0, 6, 0, 0], 0, 2))
    @given(pivot_cases(_sparse_entries))
    def test_sparse_rows_same_as_the_dense_elimination(self, case):
        self.assert_dense_rows(case)


class TestSparseEliminationDifferential:
    """On every recorded LP, under both entering rules, the solve must give
    the same ``LPResult``, prices included, as one whose pivots use the
    dense reference elimination: the integers are the same, so the pivot
    path is.  The recorded answers pin neither prices nor Dantzig points."""

    @pytest.mark.parametrize("pricing", [BLAND, DANTZIG])
    @pytest.mark.parametrize("case", GOLDEN, ids=[f"lp{k:03d}" for k in range(len(GOLDEN))])
    def test_same_result_as_dense_pivots(self, case, pricing, monkeypatch):
        objective = [Fraction(c) for c in case["objective"]]
        rows = [([Fraction(a) for a in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in case["rows"]]
        lp, _ = split_program(objective, rows, case["nonneg"])
        result = lp.solve(pricing)
        monkeypatch.setattr(LinearProgram, "_pivot", staticmethod(dense_pivot))
        assert result == lp.solve(pricing)


class TestInPlacePivots:
    """``_pivot`` updates the rows it eliminates in place, so the tableau
    must be the solve's own: on every recorded LP, under both entering
    rules, a solve leaves ``LinearProgram.rows`` as they were, and a second
    solve of the same program gives an equal ``LPResult``."""

    @pytest.mark.parametrize("pricing", [BLAND, DANTZIG])
    @pytest.mark.parametrize("case", GOLDEN, ids=[f"lp{k:03d}" for k in range(len(GOLDEN))])
    def test_rows_unchanged_and_solve_repeats(self, case, pricing):
        objective = [Fraction(c) for c in case["objective"]]
        rows = [([Fraction(a) for a in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in case["rows"]]
        lp, _ = split_program(objective, rows, case["nonneg"])
        before = [(s, tuple(ints), rel, b) for s, ints, rel, b in lp.rows]
        first = lp.solve(pricing)
        assert [(s, tuple(ints), rel, b) for s, ints, rel, b in lp.rows] == before
        assert lp.solve(pricing) == first

    def test_eliminated_rows_are_updated_in_place(self):
        # Row 1's multiplier cancels to 1 against the pivot 3 (f = 6), row
        # 2's does not (f = 2); both keep their list, and so does the cost.
        tableau = [[1, 3, 1, 2], [1, 6, 0, 1], [1, 2, 5, 4]]
        cost = [0, 3, 1, 0]
        kept = [tableau[1], tableau[2], cost]
        LinearProgram._pivot(tableau, cost, [10, 11, 12], [-1, 0, 1], 0, 1)
        assert all(a is b for a, b in zip([tableau[1], tableau[2], cost], kept))
        assert tableau[1] == [1, -2, -2, -3]
        assert tableau[2] == [3, -2, 13, 8]


class TestRowScaleInvariance:
    """Rows are divided by their gcd only when they pivot, so a row's
    positive scale must decide nothing: each recorded LP, re-added with
    every row multiplied by a seeded positive int, must give the same
    ``LPResult``, prices included, under both entering rules."""

    @pytest.mark.parametrize("pricing", [BLAND, DANTZIG])
    @pytest.mark.parametrize("index", range(len(GOLDEN)), ids=[f"lp{k:03d}" for k in range(len(GOLDEN))])
    def test_scaled_rows_give_the_same_result(self, index, pricing):
        case = GOLDEN[index]
        objective = [Fraction(c) for c in case["objective"]]
        rows = [([Fraction(a) for a in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in case["rows"]]
        lp, _ = split_program(objective, rows, case["nonneg"])
        rng = random.Random(5100 + index)
        scaled = LinearProgram(lp.num_vars, lp.objective)
        for s, ints, rel, rhs in lp.rows:
            k = rng.randint(2, 60)
            scaled.add_scaled((k * s, [k * a for a in ints]), rel, (rhs, s))
        assert scaled.solve(pricing) == lp.solve(pricing)

    def test_pivot_stores_the_pivot_row_primitive(self):
        # Both rows have the common factor 2.  The first pivot leaves row 1
        # alone (it is 0 in the pivot column), so row 1 keeps its factor
        # until it pivots; each row is stored primitive once it does.
        tableau = [[6, 4, -2, 8], [2, 0, 2, 4]]
        cost = [0, 1, 1, 0]
        basis, labels = [10, 11], [-1, 0, 1]
        LinearProgram._pivot(tableau, cost, basis, labels, 0, 1)
        assert tableau == [[2, 3, -1, 4], [2, 0, 2, 4]]
        LinearProgram._pivot(tableau, cost, basis, labels, 1, 2)
        assert tableau[1] == [1, 0, 1, 2]
        assert tableau[0] == [2, 3, 1, 6]


def rich_ine_query(seed):
    """A 6x6 independent natural extension of two 12-entry marginals, with
    a query gamble: each of its queries takes about a hundred pivots."""
    rng = random.Random(f"rich-ine:{seed}")
    x = Space("X", tuple(f"x{i}" for i in range(6)))
    y = Space("Y", tuple(f"y{i}" for i in range(6)))
    left, _ = random_envelope_model(rng, x, n_pmfs=3, n_entries=12)
    right, _ = random_envelope_model(rng, y, n_pmfs=3, n_entries=12)
    family = EventFamily.custom(y, [random_nonempty_event(rng, y) for _ in range(2)])
    ine = IndependentNaturalExtension(left, right, EventFamily.atoms(x), family)
    return ine, random_gamble(rng, ine.space, span=3)


class TestTableauBitBound:
    """A row whose scale passes 256 bits is divided by its gcd after its
    elimination, so on rich INE queries no tableau integer passes 300
    bits (without the reduction they reach 1800-7300 bits), and the
    values are those of the dense pivots, which reduce every row."""

    BITS = 300

    @pytest.mark.parametrize("seed", range(3))
    def test_largest_tableau_integer_is_bounded(self, seed, monkeypatch):
        ine, f = rich_ine_query(seed)
        bits = []
        original = LinearProgram._pivot

        def spy(tableau, cost, basis, labels, r, c):
            original(tableau, cost, basis, labels, r, c)
            bits.append(max(abs(v).bit_length() for row in (*tableau, cost) for v in row))

        monkeypatch.setattr(LinearProgram, "_pivot", staticmethod(spy))
        values = ine.lower(f), ine.upper(f)
        assert len(bits) > 50 and max(bits) <= self.BITS
        monkeypatch.setattr(LinearProgram, "_pivot", staticmethod(dense_pivot))
        assert (ine.lower(f), ine.upper(f)) == values


class TestRatioTieRule:
    """Under Dantzig pricing a ratio-test tie leaves on the row with the
    largest pivot entry a / d, then on the smallest basic label; under
    Bland's rule it leaves on the smallest basic label."""

    @staticmethod
    def tied_program():
        # max x over four rows whose ratios all tie at 2.  As rationals the
        # pivot entries are 1, 5/8, 2 and 2: row 1 is stored as [8, 5, 10]
        # and row 3 as [3, 6, 12], so their largest ints are not their
        # largest entries, and rows 2 and 3 tie on the entry too.
        lp = LinearProgram(1, [1])
        lp.add_scaled((1, (1,)), "<=", (2, 1))
        lp.add_scaled((8, (5,)), "<=", (10, 8))
        lp.add_scaled((1, (2,)), "<=", (4, 1))
        lp.add_scaled((3, (6,)), "<=", (12, 3))
        return lp

    @pytest.mark.parametrize("pricing, leaving", [(BLAND, 0), (DANTZIG, 2)])
    def test_tied_rows(self, pricing, leaving, monkeypatch):
        pivots = []
        original = LinearProgram._pivot

        def spy(tableau, cost, basis, labels, r, c):
            pivots.append(r)
            original(tableau, cost, basis, labels, r, c)

        monkeypatch.setattr(LinearProgram, "_pivot", staticmethod(spy))
        result = self.tied_program().solve(pricing)
        assert pivots == [leaving]
        assert result.value == 2 and result.point == (Fraction(2),)
        assert [i for i, p in enumerate(result.prices) if p] == [leaving]


class TestDegeneratePivotBudget:
    """The coherence checks of fixed 12-entry envelope models on 6-8
    outcomes are value-only Dantzig solves, and three in four of their
    pivots were degenerate under the smallest-label tie-break.  Leaving on
    the largest pivot entry, they take at most 700 pivots in all (606
    measured, 990 with the smallest-label tie-break)."""

    PIVOTS = 700

    def test_coherence_checks_stay_within_the_budget(self, monkeypatch):
        pivots = []
        original = LinearProgram._pivot

        def counted(*args):
            pivots.append(args[-1])
            return original(*args)

        monkeypatch.setattr(LinearProgram, "_pivot", staticmethod(counted))
        for seed in range(20):
            rng = random.Random(f"pivot-budget:{seed}")
            space = Space("X", tuple(f"x{i}" for i in range(6 + seed % 3)))
            model, _ = random_envelope_model(rng, space, n_pmfs=3, n_entries=12)
            assert model.is_coherent()
        assert len(pivots) <= self.PIVOTS


def eager_point(tableau, basis, nstruct):
    """The point as every optimum once built it from the final tableau."""
    point = [Fraction(0)] * nstruct
    for row, b in zip(tableau, basis):
        if b < nstruct:
            point[b] = Fraction(row[-1], row[0])
    return tuple(point)


class TestLazyPoint:
    """An optimum keeps its basic rows' ints and builds ``point`` on first
    read, or ``scaled_point`` as ints; value-only callers never read it, so
    they build none."""

    @pytest.mark.parametrize("pricing", [BLAND, DANTZIG])
    @pytest.mark.parametrize("case", GOLDEN, ids=[f"lp{k:03d}" for k in range(len(GOLDEN))])
    def test_point_and_value_as_eager_extraction(self, case, pricing, monkeypatch):
        objective = [Fraction(c) for c in case["objective"]]
        rows = [([Fraction(a) for a in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in case["rows"]]
        lp, _ = split_program(objective, rows, case["nonneg"])
        phases = []
        original = LinearProgram._iterate

        def spy(tableau, basis, labels, cost, pricing):
            phases.append((tableau, basis))
            return original(tableau, basis, labels, cost, pricing)

        monkeypatch.setattr(LinearProgram, "_iterate", staticmethod(spy))
        result = lp.solve(pricing)
        if result.status is not LPStatus.OPTIMAL:
            assert result.point is None
            return
        tableau, basis = phases[-1]  # the final tableau of phase 2
        point = eager_point(tableau, basis, lp.num_vars)
        assert result.point == point
        assert result.value == sum((c * x for c, x in zip(lp.objective, point)), Fraction(0))
        scale, ints = result.scaled_point()  # the same point as ints over one scale
        assert tuple(Fraction(v, scale) for v in ints) == point

    def test_value_only_solves_build_no_point(self, monkeypatch):
        results = []
        original = LinearProgram.solve

        def spy(lp, pricing=BLAND):
            results.append(original(lp, pricing))
            return results[-1]

        monkeypatch.setattr(LinearProgram, "solve", spy)
        rng = random.Random("lazy-point")
        space = Space("X", tuple(f"x{i}" for i in range(7)))
        model, _ = random_envelope_model(rng, space, n_pmfs=3, n_entries=12)
        assert model.is_coherent()
        for _ in range(10):
            _lower_value(model.cone, random_gamble(rng, space), random_nonempty_event(rng, space))
        assert len(results) > 10
        assert all(result._point is None for result in results)
        optimum = next(r for r in results if r.status is LPStatus.OPTIMAL)
        assert optimum.point is not None and optimum._point is optimum.point

    def test_results_compare_by_their_answers(self):
        result = solve_priced(BLAND, [1, 1], [([1, 2], "<=", 4), ([1, 0], "<=", 1)])
        assert result == LPResult(LPStatus.OPTIMAL, Fraction(5, 2), (Fraction(1), Fraction(3, 2)), None)
        lp, _ = split_program([1, 1], [([1, 2], "<=", 4), ([1, 0], "<=", 1)], True)
        solved = lp.solve()
        assert solved == LPResult(LPStatus.OPTIMAL, solved.value, solved.point, None, solved.prices)
        assert hash(solved) == hash(LPResult(LPStatus.OPTIMAL, solved.value, solved.point, None, solved.prices))
        assert solved != LPResult(LPStatus.OPTIMAL, solved.value, solved.point, None, None)
        with pytest.raises(AttributeError):
            solved.value = Fraction(0)


def assert_prices_certify(objective, rows, result):
    """``result.prices`` is an optimal dual of the program up to one positive
    scale K: with every row written as ``<=`` (a . x <= b), the prices u
    are non-negative, u . b = K * value, and the sum of u_i a_i is at least
    K * c in every column.  Together with the point that is weak duality's
    proof that the value is the optimum."""
    prices = result.prices
    assert len(prices) == len(rows) and all(p >= 0 for p in prices)
    le = [(coeffs, rhs) if rel == "<=" else ([-a for a in coeffs], -rhs) for coeffs, rel, rhs in rows]
    priced = [sum((p * coeffs[j] for p, (coeffs, _) in zip(prices, le)), Fraction(0)) for j in range(len(objective))]
    dual_value = sum((p * rhs for p, (_, rhs) in zip(prices, le)), Fraction(0))
    if result.value != 0:
        scale = dual_value / result.value
    else:
        assert dual_value == 0
        # Any K > 0 with K * c_j <= priced_j in every column will do: the
        # largest one the positive costs allow, or else one the negative
        # costs allow.
        floor = max((q / c for q, c in zip(priced, objective) if c < 0), default=Fraction(0))
        scale = min((q / c for q, c in zip(priced, objective) if c > 0), default=floor + 1)
    assert scale > 0
    assert all(q >= scale * c for q, c in zip(priced, objective))


class TestPrices:
    """An optimal solve carries one integer price per row, read off the
    slack columns of the cost row; both entering rules end at an optimal
    dual."""

    @pytest.mark.parametrize("pricing", [BLAND, DANTZIG])
    @pytest.mark.parametrize("seed", range(60))
    def test_random_inequality_programs(self, pricing, seed):
        rng = random.Random(4400 + seed)
        n = rng.randint(1, 4)
        objective = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            rows.append((coeffs, rng.choice(["<=", ">="]), Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
        rows += [([Fraction(int(j == k)) for j in range(n)], "<=", Fraction(6)) for k in range(n)]  # bounded
        k = lcm(*(c.denominator for c in objective))
        objective = [int(c * k) for c in objective]
        lp = LinearProgram(n, objective)
        for coeffs, rel, rhs in rows:
            lp.add_scaled(scaled_row(coeffs), rel, rhs.as_integer_ratio())
        result = lp.solve(pricing)
        if result.status is LPStatus.OPTIMAL:
            assert_prices_certify(objective, rows, result)
        else:
            assert result.prices is None

    def test_canned_prices(self):
        # max x + y s.t. x + 2y <= 4, x <= 1: y = 3/2, duals 1/2 and 1/2.
        lp = LinearProgram(2, [1, 1])
        lp.add_scaled((1, (1, 2)), "<=", (4, 1))
        lp.add_scaled((1, (1, 0)), "<=", (1, 1))
        lp.add_scaled((1, (0, 1)), "<=", (5, 1))
        prices = lp.solve().prices
        assert prices[0] == prices[1] > 0 and prices[2] == 0

    def test_equality_rows_are_priced_zero(self):
        lp = LinearProgram(2, [1, 1])
        lp.add_scaled((1, (1, 1)), "==", (2, 1))
        lp.add_scaled((1, (1, 0)), "<=", (1, 1))
        result = lp.solve()
        assert result.value == 2 and result.prices[0] == 0


def test_simplex_imports_no_package_module():
    """The LP core takes ints and knows nothing of gambles or spaces."""
    modules = []
    for node in ast.walk(ast.parse(Path(simplex.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert modules and not [m for m in modules if m.startswith((".", "desirables"))]


def test_objective_must_be_ints():
    with pytest.raises(TypeError):
        LinearProgram(2, [Fraction(1, 2), 0])
    with pytest.raises(TypeError):
        LinearProgram(1, [Fraction(2)])
    assert LinearProgram(2, [3, -1]).objective == [3, -1]

"""Answer checks that do not go through the engine.

Float checks solve the same linear programs with SciPy's HiGHS and compare
within ``REL_TOL``; exact checks recompute a published certificate with
``fractions.Fraction``.  SciPy is imported on first use, so a run's peak
memory is read before the oracle loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

#: Float tolerance, relative to max(1, |exact|), for HiGHS against the engine.
REL_TOL = 1e-6

_HIGHS_OPTIMAL = 0
_HIGHS_INFEASIBLE = 2


def _linprog(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    import numpy as np
    from scipy.optimize import linprog

    def arr(x):
        return None if x is None else np.array(x, dtype=float)

    return linprog(
        arr(c), A_ub=arr(a_ub), b_ub=arr(b_ub), A_eq=arr(a_eq), b_eq=arr(b_eq),
        bounds=bounds, method="highs",
    )


def close(exact: Fraction, approx: Optional[float]) -> bool:
    if approx is None or math.isinf(approx):
        return False
    return abs(float(exact) - approx) <= REL_TOL * max(1.0, abs(float(exact)))


def cone_lower(
    gens: Sequence[Sequence[Fraction]], f: Sequence[Fraction], event: Sequence[bool]
) -> Optional[float]:
    """sup { mu : [f - mu] * I_B  in the cone of gens plus the non-negative
    gambles }, or None when the supremum is not finite."""
    k = len(gens)
    rows = [
        [float(g[x]) for g in gens] + [1.0 if event[x] else 0.0] for x in range(len(f))
    ]
    rhs = [float(f[x]) if event[x] else 0.0 for x in range(len(f))]
    cost = [0.0] * k + [-1.0]
    res = _linprog(cost, rows, rhs, bounds=[(0, None)] * k + [(None, None)])
    if res.status != _HIGHS_OPTIMAL:
        return None
    return -res.fun


def cone_upper(gens, f, event) -> Optional[float]:
    low = cone_lower(gens, [-v for v in f], event)
    return None if low is None else -low


def cone_coherent(gens: Sequence[Sequence[Fraction]]) -> bool:
    """No convex combination of the generators is pointwise <= 0."""
    if not gens:
        return True
    k, n = len(gens), len(gens[0])
    rows = [[float(g[x]) for g in gens] for x in range(n)]
    res = _linprog([0.0] * k, rows, [0.0] * n, [[1.0] * k], [1.0], bounds=[(0, None)] * k)
    return res.status == _HIGHS_INFEASIBLE


def cone_contains(gens: Sequence[Sequence[Fraction]], f: Sequence[Fraction]) -> bool:
    """f is non-negative and non-zero, or sum l_i g_i <= f with l >= 0 and
    sum l_i > 0 (the remainder is absorbed by the non-negative gambles)."""
    if all(v >= 0 for v in f) and any(v != 0 for v in f):
        return True
    if not gens:
        return False
    k, n = len(gens), len(f)
    rows = [[float(g[x]) for g in gens] for x in range(n)]
    rhs = [float(v) for v in f]
    bounds = [(0, None)] * k
    # HiGHS's presolve may call an unbounded problem infeasible, so decide
    # feasibility on its own first.
    if _linprog([0.0] * k, rows, rhs, bounds=bounds).status == _HIGHS_INFEASIBLE:
        return False
    res = _linprog([-1.0] * k, rows, rhs, bounds=bounds)
    if res.status != _HIGHS_OPTIMAL:
        return True
    return -res.fun > REL_TOL


def simple_cone_member(g: Sequence[Fraction], events: Sequence[Sequence[bool]]) -> bool:
    """g = c0 + sum c_i I_{E_i} for some c >= 0."""
    n = len(g)
    rows = [[1.0] + [1.0 if e[x] else 0.0 for e in events] for x in range(n)]
    res = _linprog([0.0] * (1 + len(events)), a_eq=rows, b_eq=[float(v) for v in g],
                   bounds=[(0, None)] * (1 + len(events)))
    return res.status == _HIGHS_OPTIMAL


# ---------------------------------------------------------------------------
# Exact certificate checks
# ---------------------------------------------------------------------------


def boundary(f: Sequence[Fraction], event: Sequence[bool], lower: Fraction) -> list[Fraction]:
    """The assessment generator [f - lower] * I_B."""
    return [(v - lower) if inside else Fraction(0) for v, inside in zip(f, event)]


def certificate_sup(
    entries: Sequence[tuple[Sequence[Fraction], Sequence[bool], Fraction]],
    lambdas: Sequence[tuple[int, bool, Fraction]],
    minus_entry: Optional[int],
) -> Optional[Fraction]:
    """Max, over the union of the involved conditioning events, of
    sum lambda * (+/-)[f_i - v_i] I_{B_i}  minus  [f_k - v_k] I_{B_k}."""
    n = len(entries[0][0])
    combo = [Fraction(0)] * n
    region = [False] * n
    for index, conjugate, coeff in lambdas:
        f, event, lower = entries[index]
        sign = -1 if conjugate else 1
        for x, v in enumerate(boundary(f, event, lower)):
            combo[x] += sign * coeff * v
        region = [r or e for r, e in zip(region, event)]
    if minus_entry is not None:
        f, event, lower = entries[minus_entry]
        for x, v in enumerate(boundary(f, event, lower)):
            combo[x] -= v
        region = [r or e for r, e in zip(region, event)]
    inside = [v for v, r in zip(combo, region) if r]
    return max(inside) if inside else None

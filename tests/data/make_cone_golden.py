"""Record ``cone_golden.json``: the status answers of seeded random cones.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_cone_golden.py > tests/data/cone_golden.json

Each case is a cone on 2-8 outcomes with 0-8 generators, of one of five
kinds: boundary gambles of a lower envelope of random pmfs (some sharing
a zero block, so that some events are unreachable, and some with a
generator's negation added, incoherent without a sure loss), the same
with some values moved up (incoherent, often a sure loss), random
gambles, a sure loss built in, and no generators at all.  Per cone it records
``is_coherent``, ``dominating_pmf_exists``, ``contains`` of a mixed-sign
gamble, of the zero gamble and of the first generator, and
``upper_probability_positive`` on three events, and the masses of
``positive_pmf_witness`` (null when there is none).  The status answers
were taken with the cone LPs that ran phase 1 (own membership LP,
unit-mass rows), so the test pins that the phase-1-free forms decide the
same facts.  The witness masses were taken while the simplex still split
the witness margin t into two columns itself; the witness is a Bland
vertex, so they pin that writing t = t+ - t- in the caller moves no mass.
"""

import json
import random
import sys
from fractions import Fraction

from desirables.cones import DesirableCone
from desirables.spaces import Space

KINDS = ("envelope", "moved", "random", "sure-loss", "none")


def _value(rng, span=3, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _pmf(rng, n, zeros):
    weights = [0 if k in zeros else rng.randint(1, 5) for k in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _generators(rng, kind, n):
    """The generators, and the outcomes every pmf behind them leaves at zero."""
    if kind == "none":
        return [], []
    m = rng.randint(1, 8 if kind in ("random", "moved") else 7)
    if kind == "random":
        return [[_value(rng) for _ in range(n)] for _ in range(m)], []
    zeros = rng.sample(range(n), rng.randint(1, n - 1)) if rng.random() < 0.5 else []
    pmfs = [_pmf(rng, n, zeros) for _ in range(rng.randint(1, 3))]
    gens = []
    for _ in range(m):
        f = [_value(rng) for _ in range(n)]
        low = min(sum(p * v for p, v in zip(q, f)) for q in pmfs)
        if kind == "moved" and rng.random() < 0.5:
            low += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        gens.append([v - low for v in f])
    if kind == "envelope" and len(pmfs) == 1 and rng.random() < 0.5:
        gens.append([-v for v in gens[0]])  # a linear entry: incoherent, no sure loss
    if kind == "sure-loss":
        k = rng.randrange(len(gens))
        gens.append([-v - Fraction(rng.randint(1, 3), 2) for v in gens[k]])
    return gens, zeros


def _mixed(rng, gens, n):
    if gens and rng.random() < 0.5:  # near a generator multiple, either side of it
        g = rng.choice(gens)
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        h = [scale * v + Fraction(rng.randint(-1, 2), 4) for v in g]
    else:
        h = [_value(rng) for _ in range(n)]
    if min(h) >= 0 or max(h) <= 0:
        lo, hi = rng.sample(range(n), 2)
        h[lo] = -abs(h[lo]) or Fraction(-1)
        h[hi] = abs(h[hi]) or Fraction(1)
    return h


def record(k: int) -> dict:
    rng = random.Random(9100 + k)
    n = rng.randint(2, 8)
    kind = KINDS[k % len(KINDS)]
    gens, zeros = _generators(rng, kind, n)
    events = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)]
    if zeros:  # an event no dominating pmf reaches
        events[0] = sorted(rng.sample(zeros, rng.randint(1, len(zeros))))
    mixed = _mixed(rng, gens, n)

    space = Space("K", tuple(f"k{i}" for i in range(n)))
    cone = DesirableCone(space, tuple(space.gamble(g) for g in gens))
    witness = cone.positive_pmf_witness()
    return {
        "kind": kind,
        "outcomes": n,
        "generators": [[str(v) for v in g] for g in gens],
        "mixed": [str(v) for v in mixed],
        "events": events,
        "is_coherent": cone.is_coherent(),
        "dominating_pmf_exists": cone.dominating_pmf_exists(),
        "contains_mixed": cone.contains(space.gamble(mixed)),
        "contains_zero": cone.contains(space.zero()),
        "contains_generator": cone.contains(cone.generators[0]) if gens else None,
        "upper_probability_positive": [
            cone.upper_probability_positive(space.event(space.outcomes[i] for i in e))
            for e in events
        ],
        "positive_pmf_witness": None if witness is None else [str(p) for p in witness.masses],
    }


if __name__ == "__main__":
    cases = [record(k) for k in range(300)]
    sys.stdout.write(json.dumps(cases, indent=1) + "\n")

"""Record ``vertex_golden.json``: the credal-set vertices of the 300 cones
of ``cone_golden.json``, by the brute-force oracle.

Run from the repository root:

    PYTHONPATH=src:tests python tests/data/make_vertex_golden.py > tests/data/vertex_golden.json

Per cone it records ``oracles.credal_vertices``: every vertex of
{p >= 0, sum p = 1, E_p[g] >= 0 for each generator}, found by solving each
set of n - 1 tight constraints exactly, as lists of "p/q" masses in the
oracle's sorted order (an empty list for a sure loss).  The enumeration
takes minutes on the 8-outcome cones, which is why the test reads this
file instead of running it.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from desirables.spaces import Space
from oracles import credal_vertices


def main() -> None:
    cases = json.loads((Path(__file__).parent / "cone_golden.json").read_text())
    out = []
    for case in cases:
        space = Space("K", tuple(f"k{i}" for i in range(case["outcomes"])))
        generators = [space.gamble([Fraction(v) for v in g]) for g in case["generators"]]
        out.append([[str(p) for p in vertex] for vertex in credal_vertices(space, generators)])
    json.dump(out, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

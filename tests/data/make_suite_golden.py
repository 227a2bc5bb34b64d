"""Record ``suite_golden.json``: the JSON reports of the five property suites.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_suite_golden.py > tests/data/suite_golden.json

Each case is one ``desirables suite --suite NAME --seed SEED --trials 6
--output json`` run, for every suite at seeds 0-3: its argument list, its
exit code and its exact standard output.  The suites draw their models,
families and gambles from a seeded ``random.Random``, so the bytes pin
every draw as well as every verdict and check count: a change to how a
suite draws, or to an answer it checks, shows up here.
"""

import contextlib
import io
import json
import sys

from desirables.cli import main
from desirables.suites import SUITES

SEEDS = (0, 1, 2, 3)
TRIALS = 6


def record(suite: str, seed: int) -> dict:
    argv = ["suite", "--suite", suite, "--seed", str(seed), "--trials", str(TRIALS), "--output", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


if __name__ == "__main__":
    cases = [record(suite, seed) for suite in SUITES for seed in SEEDS]
    sys.stdout.write(json.dumps(cases, indent=1) + "\n")

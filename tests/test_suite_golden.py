"""The property suites' JSON reports, pinned byte for byte.

``make_suite_golden.py`` in the data directory recorded the ``desirables
suite --output json`` output of all five suites at seeds 0-3 with six
trials each.  The suites draw every model, family and gamble from a seeded
``random.Random``, so the recorded bytes pin those draws together with
each verdict and check count.
"""

import json
from pathlib import Path

import pytest

from desirables.cli import main

SUITE_GOLDEN = json.loads((Path(__file__).parent / "data" / "suite_golden.json").read_text())


@pytest.mark.parametrize(
    "case", SUITE_GOLDEN, ids=[f"{c['argv'][2]}-seed{c['argv'][4]}" for c in SUITE_GOLDEN]
)
def test_recorded_report(case, capsys):
    assert main(case["argv"]) == case["exit_code"]
    assert capsys.readouterr().out == case["stdout"]

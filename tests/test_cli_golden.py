"""The command-line answers on seeded model files, pinned byte for byte.

``make_cli_golden.py`` in the data directory wrote 44 model files (24
single-space models on 3-8 outcomes, coherent or with a gap, a sure loss
or conditioning beyond support, and 8 pairs of marginal models with their
product-space gambles) and recorded ``check``, ``natex`` (lower,
``--upper``, ``--event``), ``ine`` (lower, ``--upper``, ``--event``) and
``measurable --levels 8`` on them, each with ``--output text`` and
``--output json``.  Every case must give the recorded exit code, standard
output and standard error.
"""

import json
from pathlib import Path

import pytest

from desirables.cli import main

CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
FILES = CLI_GOLDEN["files"]


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def _case_id(case):
    argv = case["argv"]
    flags = [a for a in argv if a in ("--upper", "--event", "--levels")]
    return "-".join([argv[0], argv[2].removesuffix(".json"), *(f[2:] for f in flags), argv[-1]])


@pytest.mark.parametrize("case", CLI_GOLDEN["cases"], ids=[_case_id(c) for c in CLI_GOLDEN["cases"]])
def test_recorded_output(case, model_dir, capsys):
    argv = [str(model_dir / a) if a in FILES else a for a in case["argv"]]
    assert main(argv) == case["exit_code"]
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]

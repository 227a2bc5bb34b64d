"""The exactness contract, read off the source: no engine module can make a
float.

Every module of the package but ``suites`` is parsed, and its syntax tree
must hold no float literal, no use of the name ``float`` and no import
from ``math`` beyond the integer functions ``gcd``, ``lcm`` and ``comb``.
``suites`` is left out because its float literals are thresholds for the
random draws that pick its inputs (``rng.random() < 0.5``), not values.
"""

import ast
from pathlib import Path

import pytest

import desirables

PACKAGE = Path(desirables.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "suites.py")
INTEGER_MATH = {"gcd", "lcm", "comb"}


def inexact_nodes(tree: ast.AST) -> list[str]:
    """Each float literal, ``float`` name and non-integer ``math`` import in
    the tree, as ``line: what``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: name float")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and not node.level:
            found += [f"{node.lineno}: from math import {a.name}" for a in node.names if a.name not in INTEGER_MATH]
    return found


def test_every_engine_module_is_scanned():
    assert {"cones.py", "independence.py", "prevision.py", "simplex.py", "spaces.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_float_in_the_engine(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert inexact_nodes(tree) == []


def test_the_scan_sees_each_kind():
    source = "from math import gcd, sqrt\nimport math\nx = 0.5 + float(1)\n"
    assert inexact_nodes(ast.parse(source)) == [
        "1: from math import sqrt",
        "2: import math",
        "3: literal 0.5",
        "3: name float",
    ]

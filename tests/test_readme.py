"""The README's "Quick tour" runs, and prints what its comments say.

The block is executed statement by statement.  Each expression statement
whose line carries a comment is evaluated, and the comment's value is
compared with the result, so the tour's product-label example
(``"a|u"``) and its stated answers stay current.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _run(block: str) -> dict[str, tuple[object, str]]:
    """Execute ``block``; map each commented expression to (value, comment)."""
    lines = block.splitlines()
    namespace: dict = {}
    results = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "<readme>", "eval"), namespace)
            line = lines[stmt.end_lineno - 1]
            if "#" in line:
                results[ast.get_source_segment(block, stmt)] = (value, line.split("#", 1)[1].strip())
        else:
            exec(compile(ast.Module([stmt], []), "<readme>", "exec"), namespace)
    return results


@pytest.fixture(scope="module")
def tour():
    return _run(_quick_tour())


@pytest.mark.parametrize(
    "expr, shown",
    [
        ("credal.is_coherent()", True),
        ("credal.lower(x.gamble([1, 0]))", Fraction(1, 4)),
        ("credal.upper(x.gamble([1, 0]))", Fraction(3, 4)),
    ],
)
def test_stated_value(tour, expr, shown):
    value, comment = tour[expr]
    assert value == shown
    assert comment == repr(shown)


def test_attaining_pmf(tour):
    masses, comment = tour["lo.masses"]
    assert masses == (Fraction(1, 4), Fraction(3, 4))
    assert comment.startswith("(1/4, 3/4)")


def test_joint_lower_on_product_labels(tour):
    # f is the indicator of {a|u, b|v}; P(a) ranges over [1/4, 3/4] and
    # P(u) = 1/3, so the lower value is min_p p/3 + (1 - p) * 2/3 = 5/12.
    value, _comment = tour["joint.lower(f)"]
    assert value == Fraction(5, 12)

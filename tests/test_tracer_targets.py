"""The names a traced benchmark run wraps must exist on the engine.

``bench/tracing.py`` looks every layer's functions up by name, so removing
or renaming one breaks ``bench/run.py --trace 1`` while the engine's own
tests still pass.  This module loads the tracer's target list (the file is
only read) and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from desirables.independence import IndependentNaturalExtension
from desirables.prevision import LinearPrevision
from desirables.spaces import Space

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "module, owner, attr",
    [(m, o, a) for _layer, m, o, a in TARGETS],
    ids=[f"{m}.{o}.{a}" if o else f"{m}.{a}" for _layer, m, o, a in TARGETS],
)
def test_target_resolves(module, owner, attr):
    mod = importlib.import_module(f"desirables.{module}")
    if owner is None:
        assert callable(getattr(mod, attr))
    else:
        # The tracer patches the attribute on the class that defines it.
        assert attr in vars(getattr(mod, owner))


def test_ine_exposes_joint_generators():
    # Read after every traced IndependentNaturalExtension.__init__.
    left = LinearPrevision.uniform(Space("A", ("a", "b"))).as_lower_prevision()
    right = LinearPrevision.uniform(Space("U", ("u", "v"))).as_lower_prevision()
    ine = IndependentNaturalExtension(left, right)
    assert len(ine.joint_cone.generators) > 0

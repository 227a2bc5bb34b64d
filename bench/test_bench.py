"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench

Each workload runs a couple of ops in both modes: the metrics printed must
be exactly the ones BENCHMARK.json names, with their units, and a corrupted
recorded answer must count as a failed op.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True, scope="module")
def engine_on_path():
    sys.path.insert(0, run.SRC)
    yield
    sys.path.remove(run.SRC)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_named_metric_appears(name, trace):
    outcome = run.run_workload(name, seed=7, seconds=0.1, trace=trace, limit=2)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in outcome["result"]["metrics"].items()}
    assert got == want
    assert outcome["result"]["failed"] == 0, outcome["problems"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_recorded_answer_fails_its_op(name):
    expected = run.load_expected(name)
    clean = run.run_workload(name, run.DEFAULT_SEED, seconds=0.1, trace=False, limit=2)
    assert clean["result"]["failed"] == 0, clean["problems"]

    first = next(iter(expected))
    corrupted = {**expected, first: "corrupted"}
    outcome = run.run_workload(name, run.DEFAULT_SEED, seconds=0.1, trace=False,
                               expected=corrupted, limit=2)
    assert outcome["result"]["failed"] == 1
    assert not outcome["result"]["correct"]
    assert outcome["problems"][0].startswith(f"{first}: ")

"""Benchmark of the desirables engine: seeded workloads, checked answers,
end-to-end metrics, and a traced run that times every layer.

    python3 bench/run.py --workload ine-joint --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --workload all            # every workload, one process
    python3 bench/run.py --workload ine-joint --record   # rewrite expected/

The engine is imported from ``src/`` next to this directory and driven in
this one process and thread, through its Python API and
``desirables.cli.main``.  With ``--trace 0`` the ops run on the unmodified
engine until ``--seconds`` have passed and the end-to-end metrics are
printed; with ``--trace 1`` a fixed prefix of the ops runs once plain and
once with spans installed, and the per-layer metrics are printed.  Every
answer is checked after timing; the last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Only this
process is measured: caches, cgroups and CPU frequency are left as the
machine has them.

All reported times are reference seconds from :mod:`refclock`: this
process's CPU time, scaled by the speed of a fixed reference loop sampled
every 25 ms, so that the host's swings in CPU speed cancel.  ``--seconds``
is plain CPU time of this process, so a run lasts about that long.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import process_time
from typing import Optional

import refclock
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(BENCH_DIR, "_run")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

#: The seed whose answers are recorded in ``expected/``.
DEFAULT_SEED = 0
#: Set-up (import, input generation, model files) is repeated at least this
#: often and for at least SETUP_MIN_S reference seconds, and its median
#: reported.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
#: Ops in the fixed prefix a traced run executes, per workload.
TRACE_OPS = {"ine-joint": 60, "single-model": 150, "suite-trials": 250}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Execution:
    index: int
    latency: float
    answer: Optional[str]
    error: Optional[str]


def _import_engine():
    """Import ``desirables`` afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "desirables" or n.startswith("desirables.")]:
        del sys.modules[name]
    module = importlib.import_module("desirables")
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"desirables was imported from {module.__file__}, not from {SRC}")
    return module


def setup(name: str, seed: int, workdir: str, clock: refclock.RefClock):
    """Time fresh set-ups, at least SETUP_REPEATS of them and for at least
    SETUP_MIN_S in all; the last one's ops are used."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = clock.now()
        _import_engine()
        workload = workloads.WORKLOADS[name](seed, workdir)
        times.append(clock.now() - start)
    return statistics.median(times), workload


def run_ops(workload, clock: refclock.RefClock, seconds: Optional[float] = None,
            limit: Optional[int] = None, tracer=None):
    """Run ops in order, cycling the list, until ``seconds`` of CPU time
    have passed (at least one op) or ``limit`` ops are done.  Returns the
    executions and the elapsed time in reference seconds."""
    ops = workload.ops
    executions = []
    start = clock.now()
    deadline = None if seconds is None else process_time() + seconds
    i = 0
    while (limit is None or i < limit) and (deadline is None or i == 0 or process_time() < deadline):
        k = i % len(ops)
        if tracer is not None:
            tracer.begin_op(ops[k].id)
        t0 = clock.now()
        try:
            answer, error = ops[k].run(), None
        except Exception:  # an op that raises is a failed op, not a crash
            answer, error = None, traceback.format_exc(limit=-3)
        t1 = clock.now()
        if tracer is not None:
            tracer.end_op()
        executions.append(Execution(k, t1 - t0, answer, error))
        i += 1
    return executions, clock.now() - start


def recorded_form(answer: str) -> str:
    """Answers are stored as is when short, otherwise as a digest."""
    if len(answer) <= 64:
        return answer
    return "sha256:" + hashlib.sha256(answer.encode("utf-8")).hexdigest()[:16]


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def check(workload, executions, expected: Optional[dict]) -> list[str]:
    """One message per failed execution: it raised, its answer failed its
    check, changed between passes, or differs from the recorded answer."""
    verdicts: dict[int, Optional[str]] = {}
    first: dict[int, str] = {}
    problems = []
    for e in executions:
        op = workload.ops[e.index]
        problem = e.error
        if problem is None and first.setdefault(e.index, e.answer) != e.answer:
            problem = "answer changed between passes"
        if problem is None:
            if e.index not in verdicts:
                try:
                    verdicts[e.index] = op.verify(e.answer)
                except Exception:  # a malformed answer fails its op
                    verdicts[e.index] = traceback.format_exc(limit=-2)
            problem = verdicts[e.index]
        if problem is None and expected is not None:
            if expected.get(op.id) != recorded_form(e.answer):
                problem = f"answer {recorded_form(e.answer)!r} differs from the recorded {expected.get(op.id)!r}"
        if problem is not None:
            problems.append(f"{op.id}: {problem}")
    return problems


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, executions, elapsed: float, peak_mb: float) -> dict:
    latencies = [e.latency * 1000 for e in executions]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(executions) / elapsed,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": _quantile(latencies, 90),
        "peak_rss_mb": peak_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, executions, plain_s: float) -> dict:
    busy = sum(e.latency for e in executions)
    solves = tracer.calls["simplex.LinearProgram.solve"]
    solve_s = tracer.inclusive_s["simplex.LinearProgram.solve"]
    builds = tracer.calls["independence.IndependentNaturalExtension.__init__"]
    verdicts = tracer.counts["prevision.verdicts"]
    cone_calls = tracer.layer_calls("cones")
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "simplex.solves": (solves, "count"),
        "simplex.busy_s": (solve_s, "s"),
        "simplex.share": (ratio(solve_s, busy), "ratio"),
        "simplex.rows_mean": (ratio(counts["simplex.rows"], solves), "rows"),
        "simplex.cols_mean": (ratio(counts["simplex.cols"], solves), "cols"),
        "simplex.optimal": (counts["simplex.optimal"], "count"),
        "simplex.infeasible": (counts["simplex.infeasible"], "count"),
        "simplex.unbounded": (counts["simplex.unbounded"], "count"),
        "simplex.result_bits_max": (tracer.result_bits_max, "bits"),
        "independence.builds": (builds, "count"),
        "independence.build_s": (tracer.inclusive_s["independence.IndependentNaturalExtension.__init__"], "s"),
        "independence.generators_mean": (ratio(counts["independence.generators"], builds), "count"),
        "independence.self_s": (tracer.self_s["independence"], "s"),
        "prevision.lower_calls": (tracer.calls["prevision.lower_prevision"], "count"),
        "prevision.self_s": (tracer.self_s["prevision"], "s"),
        "prevision.verdicts": (verdicts, "count"),
        "prevision.lps_per_verdict": (
            ratio(tracer.solves_under("prevision.ConditionalLowerPrevision.coherence"), verdicts), "count"),
        "prevision.violations.gap": (counts["prevision.violations.gap"], "count"),
        "prevision.violations.sure-loss": (counts["prevision.violations.sure-loss"], "count"),
        "prevision.violations.beyond-support": (counts["prevision.violations.beyond-support"], "count"),
        "prevision.dominating_calls": (
            tracer.calls["prevision.ConditionalLowerPrevision.dominating_previsions"], "count"),
        "cones.calls": (cone_calls, "count"),
        "cones.self_s": (tracer.self_s["cones"], "s"),
        "cones.lps_per_call": (ratio(tracer.solves_under("cones."), cone_calls), "count"),
        "modelfile.loads": (tracer.calls["modelfile.load_model"], "count"),
        "modelfile.bytes": (counts["modelfile.bytes"], "bytes"),
        "modelfile.parse_s": (tracer.inclusive_s["modelfile.load_model"], "s"),
        "cli.invocations": (tracer.calls["cli.main"], "count"),
        "cli.self_s": (tracer.self_s["cli"], "s"),
        **{f"cli.exit_{code}": (counts[f"cli.exit_{code}"], "count") for code in range(4)},
        "measurability.calls": (tracer.layer_calls("measurability"), "count"),
        "measurability.self_s": (tracer.self_s["measurability"], "s"),
        "suites.trials": (counts["suites.trials"], "count"),
        "suites.checks": (counts["suites.checks"], "count"),
        "suites.self_s": (tracer.self_s["suites"], "s"),
        "spaces.gamble_ops": (tracer.layer_calls("spaces"), "count"),
        "spaces.self_s": (tracer.self_s["spaces"], "s"),
        "trace.overhead_s": (busy - plain_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def environment(name: str, seed: int, trace: bool) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "mode": "traced" if trace else "untraced",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "measured": "this process only; caches, cgroups and CPU frequency left as the machine has them",
    }


def _commit() -> str:
    """The checkout's git commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 expected: Optional[dict] = None, limit: Optional[int] = None) -> dict:
    """One run: set up, time the ops, read peak memory, then check every
    answer.  ``expected`` defaults to the recorded answers at DEFAULT_SEED;
    ``limit`` caps the op count (the self-test uses it to stay small)."""
    workdir = os.path.join(RUN_DIR, f"{name}-{seed}-{os.getpid()}")
    cpu_start = process_time()
    try:
        with refclock.RefClock() as clock:
            setup_s, workload = setup(name, seed, workdir, clock)
            if expected is None and seed == DEFAULT_SEED:
                expected = load_expected(name)
            env = environment(name, seed, trace)
            if not trace:
                executions, elapsed = run_ops(workload, clock, seconds=seconds, limit=limit)
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                metrics = end_to_end(setup_s, executions, elapsed, peak_mb)
                notes = [f"{len(executions)} ops in {elapsed:.2f} s over {len(workload.ops)} distinct ops"]
            else:
                import tracing

                count = limit or TRACE_OPS[name]
                plain, _ = run_ops(workload, clock, limit=count)
                tracer = tracing.Tracer(clock)
                tracer.install()
                try:
                    traced, _ = run_ops(workload, clock, limit=count, tracer=tracer)
                finally:
                    tracer.uninstall()
                metrics = per_layer(tracer, traced, sum(e.latency for e in plain))
                os.makedirs(RUN_DIR, exist_ok=True)
                trace_path = os.path.join(RUN_DIR, f"trace-{name}-seed{seed}.jsonl")
                tracer.write(trace_path, {"env": env, "metrics": metrics})
                executions = plain + traced
                passes = ", ".join(f"{sum(e.latency for e in p):.2f} s" for p in (plain, traced))
                notes = [f"{count} ops run plain, then traced ({passes}); "
                         f"{len(tracer.spans)} spans in {trace_path}"]
        notes.append(f"{process_time() - cpu_start:.2f} s of CPU time to here, "
                     f"{clock.samples} reference-speed samples")
        problems = check(workload, executions, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "env": env,
        "notes": notes,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": len(executions),
            "failed": len(problems),
            "metrics": metrics,
        },
    }


def record(name: str) -> int:
    """Rewrite expected/<name>.json from one full pass at DEFAULT_SEED,
    refusing when any answer fails its check."""
    workdir = os.path.join(RUN_DIR, f"{name}-record-{os.getpid()}")
    try:
        clock = refclock.RefClock()
        _, workload = setup(name, DEFAULT_SEED, workdir, clock)
        executions, _ = run_ops(workload, clock, limit=len(workload.ops))
        problems = check(workload, executions, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems[:20]), file=sys.stderr)
        return 1
    answers = {workload.ops[e.index].id: recorded_form(e.answer) for e in executions}
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": DEFAULT_SEED, "answers": answers}, handle, indent=0)
        handle.write("\n")
    print(f"recorded {len(answers)} answers for {name}")
    return 0


def _report(outcome: dict) -> None:
    env = outcome["env"]
    print(f"# {json.dumps(env)}")
    for note in outcome["notes"]:
        print(f"# {note}")
    for problem in outcome["problems"][:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = outcome["result"]
    lines = [(key, m["value"], m["unit"]) for key, m in result["metrics"].items()]
    lines += [("ops_attempted", result["attempted"], "count"), ("ops_failed", result["failed"], "count")]
    for key, value, unit in lines:
        print(f"{env['workload']:<13} {key:<36} {value:>14.6g} {unit}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the recorded answers")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "desirables", "__init__.py")):
        print(f"no engine source at {SRC}/desirables", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return max(record(name) for name in names)

    outcomes = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for outcome in outcomes:
        _report(outcome)
    if len(outcomes) == 1:
        result = outcomes[0]["result"]
    else:
        result = {
            "correct": all(o["result"]["correct"] for o in outcomes),
            "attempted": sum(o["result"]["attempted"] for o in outcomes),
            "failed": sum(o["result"]["failed"] for o in outcomes),
            "metrics": {
                f"{o['env']['workload']}.{k}": v
                for o in outcomes for k, v in o["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

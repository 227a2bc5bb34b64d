"""Command-line interface: check, natex, ine, measurable, suite.

Exit codes: 0 for a numeric answer or a clean report, 1 for a suite
failure, 2 for incoherence (including conditioning beyond support), and
3 for parse or reference errors.  All numeric output is exact rational
text; given identical arguments (including --seed) the output bytes are
identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from .independence import IndependentNaturalExtension
from .measurability import is_measurable, level_set_approximation, non_measurability_witness
from .modelfile import Model, ModelFormatError, load_model
from .prevision import (
    BeyondSupportError,
    CoherenceViolation,
    ConditionalLowerPrevision,
    SureLossError,
)
from .spaces import EmptyEventError, Gamble, SpaceMismatchError
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INCOHERENT = 2
EXIT_INPUT_ERROR = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _violation_payload(violation: CoherenceViolation) -> dict:
    payload: dict = {
        "kind": violation.kind,
        "lambdas": [
            {"entry": index, "conjugate": sign < 0, "coefficient": str(coeff)}
            for index, sign, coeff in violation.lambdas
        ],
    }
    if violation.entry_index is not None:
        payload["entry"] = violation.entry_index
    if violation.sup_value is not None:
        payload["sup"] = str(violation.sup_value)
    if violation.assessed is not None:
        payload["assessed"] = str(violation.assessed)
    if violation.extension is not None:
        payload["extension"] = str(violation.extension)
    return payload


def _violation_text(violation: CoherenceViolation) -> list[str]:
    lines = [f"violation ({violation.kind})"]
    if violation.entry_index is not None:
        lines.append(f"  entry: {violation.entry_index}")
    if violation.lambdas:
        coeffs = ", ".join(
            f"entry {i}{' (conjugate)' if sign < 0 else ''}: {c}"
            for i, sign, c in violation.lambdas
        )
        lines.append(f"  lambdas: {coeffs}")
    if violation.sup_value is not None:
        lines.append(f"  sup: {violation.sup_value}")
    if violation.assessed is not None and violation.extension is not None:
        lines.append(f"  assessed: {violation.assessed}, natural extension: {violation.extension}")
    return lines


def _emit(args, text_lines: list[str], json_payload: dict) -> None:
    if args.output == "json":
        print(json.dumps(json_payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load(path: str) -> Model:
    try:
        return load_model(path)
    except FileNotFoundError:
        raise _CliError(f"model file not found: {path}", EXIT_INPUT_ERROR)
    except ModelFormatError as exc:
        raise _CliError(f"model error: {exc}", EXIT_INPUT_ERROR)


def _prevision(model: Model) -> ConditionalLowerPrevision:
    try:
        return model.to_prevision()
    except ModelFormatError as exc:
        raise _CliError(f"model error: {exc}", EXIT_INPUT_ERROR)


def _require_coherent(args, prev: ConditionalLowerPrevision, label: str = "") -> Optional[int]:
    """None for a coherent model; otherwise report the violation and return
    the exit code."""
    verdict = prev.coherence
    if verdict.coherent:
        return None
    prefix = f"{label}: " if label else ""
    payload = {
        "value": "incoherent",
        "certificate": _violation_payload(verdict.violation),
        "exit_code": EXIT_INCOHERENT,
    }
    _emit(args, [f"{prefix}incoherent"] + _violation_text(verdict.violation), payload)
    return EXIT_INCOHERENT


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    model = _load(args.model)
    prev = _prevision(model)
    verdict = prev.coherence
    if verdict.coherent:
        _emit(args, ["coherent"], {"verdict": "coherent", "exit_code": EXIT_OK})
        return EXIT_OK
    _emit(
        args,
        _violation_text(verdict.violation),
        {
            "verdict": "violation",
            "certificate": _violation_payload(verdict.violation),
            "exit_code": EXIT_INCOHERENT,
        },
    )
    return EXIT_INCOHERENT


def _query_result(args, value: Fraction) -> int:
    _emit(args, [str(value)], {"value": str(value), "certificate": None, "exit_code": EXIT_OK})
    return EXIT_OK


def _beyond_support(args) -> int:
    signal = "conditioning-beyond-support"
    _emit(args, [signal], {"value": signal, "certificate": None, "exit_code": EXIT_INCOHERENT})
    return EXIT_INCOHERENT


def _cmd_natex(args) -> int:
    model = _load(args.model)
    prev = _prevision(model)
    code = _require_coherent(args, prev)
    if code is not None:
        return code
    try:
        gamble = model.gamble(args.gamble)
        if gamble.space != prev.space:
            raise ModelFormatError(f"gamble {args.gamble!r} is not on the assessment space")
        event = model.event_or_all(args.event, prev.space)
        if event is not None:
            event.require_nonempty()
    except (ModelFormatError, EmptyEventError) as exc:
        raise _CliError(str(exc), EXIT_INPUT_ERROR)
    try:
        value = prev.upper(gamble, event) if args.upper else prev.lower(gamble, event)
    except BeyondSupportError:
        return _beyond_support(args)
    except SureLossError:  # unreachable behind the coherence gate
        raise _CliError("incoherent", EXIT_INCOHERENT)
    return _query_result(args, value)


def _cmd_ine(args) -> int:
    model1 = _load(args.model)
    model2 = _load(args.model2)
    prev1 = _prevision(model1)
    prev2 = _prevision(model2)
    for prev, label in ((prev1, "left marginal"), (prev2, "right marginal")):
        code = _require_coherent(args, prev, label)
        if code is not None:
            return code
    try:
        family1 = model1.family(args.family1, prev1.space)
        family2 = model2.family(args.family2, prev2.space)
    except ModelFormatError as exc:
        raise _CliError(str(exc), EXIT_INPUT_ERROR)
    ine = IndependentNaturalExtension(prev1, prev2, family1, family2)

    joint_model = _load(args.joint) if args.joint else None

    def joint_gamble(gamble_id: str) -> Gamble:
        source = joint_model if joint_model is not None else model1
        gamble = source.gamble(gamble_id)
        if gamble.space.outcomes != ine.space.outcomes:
            raise ModelFormatError(
                f"gamble {gamble_id!r} is not on the product space "
                f"(expected outcomes {list(ine.space.outcomes)})"
            )
        return Gamble.from_ints(ine.space, gamble.den, gamble.nums)

    try:
        gamble = joint_gamble(args.gamble)
        if args.event == "ALL":
            event = None
        else:
            source = joint_model if joint_model is not None else model1
            if args.event not in source.events:
                raise ModelFormatError(f"unknown event id {args.event!r}")
            raw = source.events[args.event]
            if raw.space.outcomes != ine.space.outcomes:
                raise ModelFormatError(f"event {args.event!r} is not on the product space")
            event = ine.space.event(raw.members).require_nonempty()
    except (ModelFormatError, EmptyEventError) as exc:
        raise _CliError(str(exc), EXIT_INPUT_ERROR)
    try:
        value = ine.upper(gamble, event) if args.upper else ine.lower(gamble, event)
    except BeyondSupportError:
        return _beyond_support(args)
    except SureLossError:
        raise _CliError("incoherent", EXIT_INCOHERENT)
    return _query_result(args, value)


def _cmd_measurable(args) -> int:
    model = _load(args.model)
    try:
        gamble = model.gamble(args.gamble)
        family = model.family(args.family, gamble.space)
    except ModelFormatError as exc:
        raise _CliError(str(exc), EXIT_INPUT_ERROR)
    if not gamble.is_nonneg:
        raise _CliError("measurability queries need a non-negative gamble", EXIT_INPUT_ERROR)
    measurable = is_measurable(gamble, family)
    lines = ["true" if measurable else "false"]
    payload: dict = {"measurable": measurable, "exit_code": EXIT_OK}
    if not measurable:
        witness = non_measurability_witness(gamble, family)
        if witness is not None:
            level, level_set = witness
            lines.append(f"witness level: {level}")
            lines.append(f"witness level set: {level_set.sorted_members()}")
            payload["witness"] = {
                "level": str(level),
                "level_set": level_set.sorted_members(),
            }
    if args.levels:
        approx = level_set_approximation(gamble, family, args.levels)
        if approx.succeeded:
            lines.append(f"approximation error bound: {approx.error_bound}")
            payload["approximation"] = {
                "n": args.levels,
                "error_bound": str(approx.error_bound),
                "values": {
                    x: str(v)
                    for x, v in zip(gamble.space.outcomes, approx.approximant.values)
                },
            }
        else:
            lines.append(
                f"approximation failed at level {approx.witness_level} "
                f"(level set {approx.witness_set.sorted_members()})"
            )
            payload["approximation"] = {
                "n": args.levels,
                "failed_level": str(approx.witness_level),
                "level_set": approx.witness_set.sorted_members(),
            }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_suite(args) -> int:
    report = run_suite(args.suite, seed=args.seed, trials=args.trials)
    lines = [f"suite {report.suite} (seed {report.seed}, trials {report.trials})"]
    payload_props = []
    for outcome in report.outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        detail = f" [{outcome.counterexample}]" if not outcome.passed else ""
        extra = ""
        if outcome.name == "expected-gap" and outcome.passed:
            extra = " (expected-gap: confirmed)"
        lines.append(f"{status} {outcome.name} ({outcome.checks} checks){extra}{detail}")
        payload_props.append(
            {
                "name": outcome.name,
                "passed": outcome.passed,
                "checks": outcome.checks,
                "counterexample": outcome.counterexample or None,
            }
        )
    code = EXIT_OK if report.all_passed else EXIT_SUITE_FAILURE
    _emit(
        args,
        lines,
        {
            "suite": report.suite,
            "seed": report.seed,
            "trials": report.trials,
            "properties": payload_props,
            "exit_code": code,
        },
    )
    return code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit decimal")
    return value


def _positive_int(text: str) -> int:
    """A positive int; argparse prefixes the error with the flag's name."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desirables",
        description=(
            "Exact-arithmetic coherence checking, natural extension, and "
            "independent natural extension for lower previsions on finite spaces."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common], help="check Williams coherence of a model")
    p_check.add_argument("--model", "-m", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_natex = sub.add_parser("natex", parents=[common], help="natural-extension query")
    p_natex.add_argument("--model", "-m", required=True)
    p_natex.add_argument("--gamble", required=True)
    p_natex.add_argument("--event", default="ALL")
    p_natex.add_argument("--upper", action="store_true", help="query the conjugate upper value")
    p_natex.set_defaults(func=_cmd_natex)

    p_ine = sub.add_parser(
        "ine", parents=[common], help="independent-natural-extension query over two marginal models"
    )
    p_ine.add_argument("--model", "-m", required=True, help="left marginal model file")
    p_ine.add_argument("--model2", required=True, help="right marginal model file")
    p_ine.add_argument("--family1", default="atoms", help="family id or atoms/all/empty")
    p_ine.add_argument("--family2", default="atoms", help="family id or atoms/all/empty")
    p_ine.add_argument(
        "--joint",
        help="model file declaring gambles/events on the product space (outcomes 'x1|x2')",
    )
    p_ine.add_argument("--gamble", required=True)
    p_ine.add_argument("--event", default="ALL")
    p_ine.add_argument("--upper", action="store_true")
    p_ine.set_defaults(func=_cmd_ine)

    p_meas = sub.add_parser("measurable", parents=[common], help="family-measurability query")
    p_meas.add_argument("--model", "-m", required=True)
    p_meas.add_argument("--gamble", required=True)
    p_meas.add_argument("--family", required=True, help="family id or atoms/all/empty")
    p_meas.add_argument("--levels", type=_positive_int, help="also run the n-step staircase approximation")
    p_meas.set_defaults(func=_cmd_measurable)

    p_suite = sub.add_parser("suite", parents=[common], help="run a seeded property suite")
    p_suite.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_suite.add_argument("--seed", type=_u64, default=0)
    p_suite.add_argument("--trials", type=_positive_int, default=100)
    p_suite.set_defaults(func=_cmd_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing never changes it,
    so consecutive in-process calls of ``main`` share no state."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse usage errors are input errors
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (SpaceMismatchError, EmptyEventError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())

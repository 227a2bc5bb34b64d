"""Spans around the engine's public functions, for traced runs only.

:meth:`Tracer.install` replaces each wrapped function or method in every
loaded ``desirables`` module that refers to it, and :meth:`Tracer.uninstall`
puts the originals back; untraced runs never call either.  A span records
(id, name, start, end, parent id, op id) and stays in memory until the run
writes it out.  A layer's self time is its spans' time minus the time of
the spans they enclose.  Calls in ``spaces`` are too many to keep as
spans, so that layer is only counted and timed.  Times are read from
the run's clock, in reference seconds.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from typing import Callable, Optional


#: (layer, module, owner, attribute): owner None wraps a module-level
#: function, otherwise a method of the named class.
TARGETS = [
    ("simplex", "simplex", "LinearProgram", "solve"),
    ("cones", "cones", "DesirableCone", "contains"),
    ("cones", "cones", "DesirableCone", "is_coherent"),
    ("cones", "cones", "DesirableCone", "positive_pmf_witness"),
    ("cones", "cones", "DesirableCone", "dominating_pmf_exists"),
    ("cones", "cones", "DesirableCone", "upper_probability_positive"),
    ("prevision", "prevision", None, "lower_prevision"),
    ("prevision", "prevision", None, "upper_prevision"),
    ("prevision", "prevision", "ConditionalLowerPrevision", "coherence"),
    ("prevision", "prevision", "ConditionalLowerPrevision", "dominating_previsions"),
    ("prevision", "prevision", "ConditionalLowerPrevision", "dominates"),
    ("prevision", "prevision", None, "check_axioms"),
    ("prevision", "prevision", None, "envelope_assessment"),
    ("independence", "independence", "IndependentNaturalExtension", "__init__"),
    ("independence", "independence", "IndependentNaturalExtension", "lift"),
    ("independence", "independence", "IndependentNaturalExtension", "lift_event"),
    ("independence", "independence", "MarginalConeView", "contains"),
    ("independence", "independence", None, "independent_product_cone"),
    ("independence", "independence", None, "check_epistemic_independence"),
    ("independence", "independence", None, "factorisation_closed_form"),
    ("independence", "independence", None, "factored_sum"),
    ("independence", "independence", None, "nested_evaluation"),
    ("independence", "independence", None, "nested_sandwich"),
    ("measurability", "measurability", "SimpleGambleCone", "coefficients"),
    ("measurability", "measurability", None, "is_measurable"),
    ("measurability", "measurability", None, "split_into_disjoint"),
    ("measurability", "measurability", None, "non_measurability_witness"),
    ("measurability", "measurability", None, "require_measurable"),
    ("measurability", "measurability", None, "level_set_approximation"),
    ("measurability", "measurability", None, "generated_field"),
    ("measurability", "measurability", None, "family_is_field"),
    ("measurability", "measurability", None, "measurable_by_field_criterion"),
    ("modelfile", "modelfile", None, "load_model"),
    ("modelfile", "modelfile", None, "parse_model"),
    ("modelfile", "modelfile", None, "serialize_model"),
    ("modelfile", "modelfile", "Model", "to_prevision"),
    ("cli", "cli", None, "main"),
    ("suites", "suites", None, "run_suite"),
    ("suites", "suites", None, "gap_instance_values"),
] + [
    ("spaces", "spaces", "Gamble", attr)
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "scale", "min_over", "max_over", "abs", "support")
] + [
    ("spaces", "spaces", None, name)
    for name in ("indicator", "cylindrical_extension", "cylinder_event", "rectangle_event")
]

#: Layers whose calls are aggregated instead of kept as spans.
UNRECORDED = {"spaces"}


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock                       # now() in reference seconds
        self.spans: list[tuple] = []
        self.op_id: Optional[str] = None
        self.calls: Counter = Counter()          # span name -> calls
        self.inclusive_s: defaultdict = defaultdict(float)  # span name -> seconds
        self.self_s: defaultdict = defaultdict(float)       # layer -> seconds
        self.counts: Counter = Counter()         # named counters set by the hooks
        self.result_bits_max = 0
        self._stack: list[list] = []             # [span id or None, name, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        """Open the root frame of one op; layer spans hang below it."""
        self.op_id = op_id
        self._stack = [[None, "op", 0.0]]

    def end_op(self) -> None:
        self._stack = []
        self.op_id = None

    def _wrap(self, layer: str, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        tracer = self
        record = layer not in UNRECORDED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id if record else (parent[0] if parent else None), name, 0.0]
            stack.append(frame)
            result, returned = None, False
            start = tracer.clock.now()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = tracer.clock.now()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.self_s[layer] += duration - frame[2]
                tracer.inclusive_s[name] += duration
                tracer.calls[name] += 1
                if record:
                    parent_id = parent[0] if parent else None
                    tracer.spans.append((span_id, name, start, end, parent_id, tracer.op_id))
                if after is not None and returned:
                    after(args, result, parent[1] if parent else None)

        return wrapper

    # -- hooks that count what a span did --------------------------------

    def _after_solve(self, args, result, parent_name) -> None:
        lp = args[0]
        self.counts["simplex.rows"] += len(lp.rows)
        self.counts["simplex.cols"] += lp.num_vars
        self.counts[f"simplex.solves_under.{parent_name}"] += 1
        self.counts[f"simplex.{result.status.value}"] += 1
        numbers = [result.value] if result.value is not None else []
        numbers += list(result.point or ()) + list(result.ray or ())
        self.result_bits_max = max([self.result_bits_max] + [_bits(v) for v in numbers])

    def _after_coherence(self, args, verdict, parent_name) -> None:
        self.counts["prevision.verdicts"] += 1
        if verdict.violation is not None:
            self.counts[f"prevision.violations.{verdict.violation.kind}"] += 1

    def _after_ine(self, args, result, parent_name) -> None:
        self.counts["independence.generators"] += len(args[0].joint_cone.generators)

    def _after_parse(self, args, result, parent_name) -> None:
        self.counts["modelfile.bytes"] += len(args[0].encode("utf-8"))

    def _after_main(self, args, code, parent_name) -> None:
        self.counts[f"cli.exit_{code}"] += 1

    def _after_suite(self, args, report, parent_name) -> None:
        self.counts["suites.trials"] += report.trials
        self.counts["suites.checks"] += sum(o.checks for o in report.outcomes)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "LinearProgram.solve": self._after_solve,
            "ConditionalLowerPrevision.coherence": self._after_coherence,
            "IndependentNaturalExtension.__init__": self._after_ine,
            "parse_model": self._after_parse,
            "main": self._after_main,
            "run_suite": self._after_suite,
        }
        loaded = [m for n, m in sys.modules.items() if n == "desirables" or n.startswith("desirables.")]
        for layer, module, owner, attr in TARGETS:
            mod = sys.modules.get(f"desirables.{module}")
            if mod is None:  # the workload never imported this layer
                continue
            qualified = f"{owner}.{attr}" if owner else attr
            name = f"{layer}.{qualified}"
            after = hooks.get(qualified)
            if owner is None:
                original = getattr(mod, attr)
                wrapped = self._wrap(layer, name, original, after)
                for other in loaded:
                    if getattr(other, attr, None) is original:
                        self._patch(other, attr, wrapped)
                continue
            cls = getattr(mod, owner)
            original = vars(cls)[attr]
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(layer, name, original.func, after))
                wrapped.__set_name__(cls, attr)
            else:
                wrapped = self._wrap(layer, name, original, after)
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if name.startswith(f"{layer}."))

    def solves_under(self, prefix: str) -> int:
        key = "simplex.solves_under."
        return sum(c for name, c in self.counts.items()
                   if name.startswith(key) and name[len(key):].startswith(prefix))

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

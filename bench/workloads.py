"""The benchmark's three workloads.

Each workload function takes the run's seed and a scratch directory inside the
checkout, generates its inputs with a private ``random.Random``, and
returns a :class:`Workload`: a fixed list of ops in run order.  An op's
``run`` is the timed call into the engine and returns the answer as exact
text; its ``verify`` checks that text outside the timed region.

The engine is imported inside those functions, so the import is part of the
timed set-up and a traced run wraps the very modules the ops call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle

#: Alternating product-space sizes n (n x n joint outcomes) for ine-joint.
#: Query cost varies several-fold between cones, and a cone's three queries
#: cost alike, so a run samples as many cones as it can: the ops go round
#: the cones three times, one query each time, and cone c's query in round
#: r is INE_QUERIES[(c + r) % 3].  Each op builds its cone (a few ms of
#: marginal checks and generators) and drops it, so peak memory does not
#: grow with a run's progress.
INE_SIZES = (5, 6)
INE_CONES = 576
INE_QUERIES = ("lower", "upper", "cond")

#: Outcome counts cycled over the single-model files, and the verdict each
#: file is built to have.
MODEL_SIZES = (6, 7, 8)
MODEL_KINDS = ("coherent", "gap", "coherent", "sure-loss")
MODEL_ENTRIES = 12
MODEL_FILES = 160
MEASURABLE_LEVELS = 8

SUITE_NAMES = ("axioms", "independence", "factorisation", "envelope", "measurability")
SUITE_TRIALS = 3
SUITE_RUNS = 2000


@dataclass
class Op:
    id: str
    run: Callable[[], str]
    verify: Callable[[str], Optional[str]]


@dataclass
class Workload:
    name: str
    ops: list[Op]


# ---------------------------------------------------------------------------
# Seeded exact inputs
# ---------------------------------------------------------------------------


def _values(rng: random.Random, n: int, span: int = 6, den: int = 3) -> list[Fraction]:
    return [Fraction(rng.randint(-span, span), rng.randint(1, den)) for _ in range(n)]


def _mask(rng: random.Random, n: int) -> list[bool]:
    """A random non-empty event as a membership mask."""
    mask = [rng.random() < 0.5 for _ in range(n)]
    if not any(mask):
        mask[rng.randrange(n)] = True
    return mask


def _pmf(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(1, 6) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _envelope(pmfs, f, event) -> Fraction:
    """Lower envelope of the conditional expectations of f given the event."""
    return min(
        sum(p[x] * f[x] for x in range(len(f)) if event[x]) / sum(p[x] for x in range(len(f)) if event[x])
        for p in pmfs
    )


def _envelope_entries(rng: random.Random, n: int, count: int, pmfs=None, indicators=False):
    """``count`` distinct (f, event mask, lower) entries assessed at the lower
    envelope of 2-4 strictly positive pmfs, so the table is coherent.  The
    first entry is unconditional.  With ``indicators`` each f is the
    indicator of a random event, so the entries are lower probabilities."""
    pmfs = pmfs or [_pmf(rng, n) for _ in range(rng.randint(2, 4))]
    entries, seen = [], set()
    while len(entries) < count:
        f = [Fraction(int(m)) for m in _mask(rng, n)] if indicators else _values(rng, n)
        event = _mask(rng, n) if entries and rng.random() < 0.5 else [True] * n
        key = (tuple(f), tuple(event))
        if key not in seen:
            seen.add(key)
            entries.append((f, event, _envelope(pmfs, f, event)))
    return entries


def _members(space, mask) -> list[str]:
    return [x for x, inside in zip(space.outcomes, mask) if inside]


def _prevision(space, entries):
    from desirables import ConditionalLowerPrevision

    return ConditionalLowerPrevision.from_entries(
        space, [(space.gamble(f), space.event(_members(space, e)), v) for f, e, v in entries]
    )


def _cli(argv: list[str]) -> str:
    """Run the command in-process; the answer is the exit code and stdout.
    ``main`` is looked up on each call, so a traced run sees its wrapper."""
    from desirables import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}"


def _split_cli(answer: str) -> tuple[int, str]:
    code, _, text = answer.partition("\n")
    return int(code), text


def _value_check(expected: Callable[[], Optional[float]]) -> Callable[[str], Optional[str]]:
    """Compare an exact value with HiGHS; the solve runs only at check time."""

    def verify(answer: str) -> Optional[str]:
        approx = expected()
        if not oracle.close(Fraction(answer), approx):
            return f"exact {answer} but HiGHS gives {approx}"
        return None

    return verify


# ---------------------------------------------------------------------------
# ine-joint: joint queries through IndependentNaturalExtension
# ---------------------------------------------------------------------------


def _joint_generators(left_entries, right_entries, left_events, right_events, n1, n2):
    """The INE generators: ext(g2) * I_{B1} for B1 in family1 and the whole
    space, and symmetrically, as vectors in left-major outcome order."""
    full1, full2 = [True] * n1, [True] * n2
    gens = []
    for f, e, v in right_entries:
        g2 = oracle.boundary(f, e, v)
        for b1 in list(left_events) + [full1]:
            gens.append([g2[j] if b1[i] else Fraction(0) for i in range(n1) for j in range(n2)])
    for f, e, v in left_entries:
        g1 = oracle.boundary(f, e, v)
        for b2 in list(right_events) + [full2]:
            gens.append([g1[i] if b2[j] else Fraction(0) for i in range(n1) for j in range(n2)])
    return gens


def ine_joint(seed: int, workdir: str) -> Workload:
    from desirables import EventFamily, IndependentNaturalExtension, Space, product_space
    from desirables.spaces import cylinder_event

    rng = random.Random(f"ine-joint:{seed}")
    rounds: list[list[Op]] = [[] for _ in INE_QUERIES]
    for c in range(INE_CONES):
        n = INE_SIZES[c % len(INE_SIZES)]
        x = Space(f"X{c}", tuple(f"x{i}" for i in range(n)))
        y = Space(f"Y{c}", tuple(f"y{i}" for i in range(n)))
        prod = product_space(x, y)
        left_entries = _envelope_entries(rng, n, 3, [_pmf(rng, n) for _ in range(3)], indicators=True)
        right_entries = _envelope_entries(rng, n, 3, [_pmf(rng, n) for _ in range(3)], indicators=True)
        right_events = []
        while len(right_events) < 2:
            mask = _mask(rng, n)
            if not all(mask) and mask not in right_events:
                right_events.append(mask)
        left, right = _prevision(x, left_entries), _prevision(y, right_entries)
        left_family = EventFamily.atoms(x)
        right_family = EventFamily.custom(y, [y.event(_members(y, m)) for m in right_events])
        atoms = [[i == k for i in range(n)] for k in range(n)]
        gens = functools.cache(
            lambda l=left_entries, r=right_entries, a=atoms, e=right_events, n=n:
            _joint_generators(l, r, a, e, n, n)
        )

        def joint(left=left, right=right, lf=left_family, rf=right_family):
            return IndependentNaturalExtension(left, right, lf, rf)

        values = _values(rng, n * n, span=3, den=1)
        f = prod.gamble(values)
        side = ("left", "right")[c // 2 % 2]
        factor = x if side == "left" else y
        event = cylinder_event(factor.event(_members(factor, _mask(rng, n))), prod, side)
        event_mask = [x_ in event.members for x_ in prod.outcomes]
        full = [True] * (n * n)
        queries = {
            "lower": Op(
                f"c{c:03d}.lower",
                lambda joint=joint, f=f: str(joint().lower(f)),
                _value_check(lambda g=gens, v=values, m=full: oracle.cone_lower(g(), v, m)),
            ),
            "upper": Op(
                f"c{c:03d}.upper",
                lambda joint=joint, f=f: str(joint().upper(f)),
                _value_check(lambda g=gens, v=values, m=full: oracle.cone_upper(g(), v, m)),
            ),
            "cond": Op(
                f"c{c:03d}.cond",
                lambda joint=joint, f=f, event=event: str(joint().lower(f, event)),
                _value_check(lambda g=gens, v=values, m=event_mask: oracle.cone_lower(g(), v, m)),
            ),
        }
        for r in range(len(INE_QUERIES)):
            rounds[r].append(queries[INE_QUERIES[(c + r) % len(INE_QUERIES)]])
    return Workload("ine-joint", [op for ops in rounds for op in ops])


# ---------------------------------------------------------------------------
# single-model: CLI check / natex / measurable on model files, plus cones
# ---------------------------------------------------------------------------


def _model_document(space_id, outcomes, entries, extra_gambles, extra_events, family_events):
    def gamble(gid, values):
        return {"id": gid, "space": space_id, "values": {x: str(v) for x, v in zip(outcomes, values)}}

    def event(eid, mask):
        return {"id": eid, "space": space_id, "members": [x for x, m in zip(outcomes, mask) if m]}

    doc = {"spaces": [{"id": space_id, "outcomes": list(outcomes)}], "gambles": [],
           "events": [], "assessments": [], "families": []}
    for k, (f, mask, lower) in enumerate(entries):
        doc["gambles"].append(gamble(f"g{k}", f))
        espec = "ALL"
        if not all(mask):
            espec = f"b{k}"
            doc["events"].append(event(espec, mask))
        doc["assessments"].append({"gamble": f"g{k}", "event": espec, "lower": str(lower), "linear": False})
    for gid, values in extra_gambles.items():
        doc["gambles"].append(gamble(gid, values))
    for eid, mask in extra_events.items():
        doc["events"].append(event(eid, mask))
    doc["families"].append({"id": "F", "space": space_id, "kind": "custom", "events": list(family_events)})
    return doc


def _check_verdict(entries, kind, bad_index, assessed, extension):
    """The expected verdict of a built model, with its certificate re-checked
    exactly from the published lambdas."""

    def verify(answer: str) -> Optional[str]:
        code, text = _split_cli(answer)
        doc = json.loads(text)
        if kind == "coherent":
            ok = code == 0 and doc == {"verdict": "coherent", "exit_code": 0}
            return None if ok else f"expected coherent, got exit {code}: {text.strip()[:200]}"
        cert = doc.get("certificate") or {}
        if code != 2 or doc.get("verdict") != "violation" or cert.get("kind") != kind:
            return f"expected a {kind} violation, got exit {code}: {text.strip()[:200]}"
        lambdas = [(l["entry"], l["conjugate"], Fraction(l["coefficient"])) for l in cert["lambdas"]]
        if any(c < 0 for _, _, c in lambdas):
            return "negative certificate coefficient"
        minus = cert.get("entry") if kind == "gap" else None
        if kind == "gap" and (
            minus != bad_index
            or Fraction(cert["assessed"]) != assessed
            or Fraction(cert["extension"]) != extension
        ):
            return f"gap reported at entry {minus}, expected {bad_index} ({assessed} < {extension})"
        if "sup" in cert:
            sup = oracle.certificate_sup(entries, lambdas, minus)
            if sup is None or sup != Fraction(cert["sup"]) or sup >= 0:
                return f"published sup {cert['sup']} but the lambdas give {sup}"
        elif kind == "sure-loss":
            return "sure-loss certificate without a sup"
        return None

    return verify


def _natex_check(expected: Callable[[], Optional[float]]):
    value_check = _value_check(expected)

    def verify(answer: str) -> Optional[str]:
        code, text = _split_cli(answer)
        doc = json.loads(text)
        if code != 0 or doc.get("exit_code") != 0 or doc.get("certificate") is not None:
            return f"expected a value, got exit {code}: {text.strip()[:200]}"
        return value_check(doc["value"])

    return verify


def _measurable_check(g, family_masks, levels):
    def verify(answer: str) -> Optional[str]:
        code, text = _split_cli(answer)
        doc = json.loads(text)
        if code != 0:
            return f"exit {code}: {text.strip()[:200]}"
        if doc["measurable"] != oracle.simple_cone_member(g, family_masks):
            return f"measurable={doc['measurable']} disagrees with HiGHS"
        outcomes = [f"o{i}" for i in range(len(g))]

        def level_set(level):
            return [x for x, v in zip(outcomes, g) if v >= level]

        if "witness" in doc:
            level = Fraction(doc["witness"]["level"])
            if level not in g or doc["witness"]["level_set"] != level_set(level):
                return "witness level set is not the level set of its level"
        approx = doc["approximation"]
        alpha = max(g) + 1
        if "error_bound" in approx:
            bound = Fraction(approx["error_bound"])
            values = [Fraction(approx["values"][x]) for x in outcomes]
            if bound != alpha / levels or any(abs(a - b) > bound for a, b in zip(values, g)):
                return "staircase approximant breaks its error bound"
        else:
            level = Fraction(approx["failed_level"])
            if (level * levels / alpha).denominator != 1 or approx["level_set"] != level_set(level):
                return "failed staircase level is not a grid level set"
        return None

    return verify


def _cone_checks(gens, h):
    def coherent(answer: str) -> Optional[str]:
        want = oracle.cone_coherent(gens)
        return None if answer == str(want) else f"is_coherent={answer}, HiGHS says {want}"

    def witness(answer: str) -> Optional[str]:
        want = oracle.cone_coherent(gens)
        if answer == "None":
            return None if not want else "no witness for a coherent cone"
        masses = [Fraction(p) for p in answer.split(",")]
        if not want:
            return "witness for an incoherent cone"
        if any(p <= 0 for p in masses) or sum(masses) != 1:
            return "witness is not a strictly positive pmf"
        if any(sum(p * v for p, v in zip(masses, g)) <= 0 for g in gens):
            return "witness gives a generator non-positive expectation"
        return None

    def contains(answer: str) -> Optional[str]:
        want = oracle.cone_contains(gens, h)
        return None if answer == str(want) else f"contains={answer}, HiGHS says {want}"

    return coherent, witness, contains


def single_model(seed: int, workdir: str) -> Workload:
    from desirables import DesirableCone, Space
    import desirables.cli  # noqa: F401  (its import belongs to the timed set-up)

    rng = random.Random(f"single-model:{seed}")
    os.makedirs(workdir, exist_ok=True)
    ops: list[Op] = []
    for m in range(MODEL_FILES):
        n = MODEL_SIZES[m % len(MODEL_SIZES)]
        kind = MODEL_KINDS[m % len(MODEL_KINDS)]
        outcomes = [f"o{i}" for i in range(n)]
        pmfs = [_pmf(rng, n) for _ in range(3)]
        sound = MODEL_ENTRIES if kind == "coherent" else MODEL_ENTRIES - 1
        entries = _envelope_entries(rng, n, sound, pmfs)
        bad_index, assessed, extension = None, None, None
        if kind != "coherent":
            if kind == "gap":
                # A constant shift of an assessed gamble, assessed below the
                # value the original entry already implies.
                f, mask, lower = entries[rng.randrange(sound)]
                shift, delta = rng.randint(1, 3), Fraction(1, rng.randint(2, 6))
                extra = ([v + shift for v in f], mask, lower + shift - delta)
                assessed, extension = lower + shift - delta, lower + shift
            else:
                # Upper(f) below lower(f) on an unconditional entry.
                f, mask, lower = entries[0]
                extra = ([-v for v in f], mask, -lower + Fraction(1, rng.randint(2, 6)))
            bad_index = rng.randrange(MODEL_ENTRIES)
            entries.insert(bad_index, extra)
        q1, q2 = _values(rng, n), _values(rng, n)
        qe = _mask(rng, n)
        family, family_size = [], 2 + m // 3 % 2
        while len(family) < family_size:
            mask = _mask(rng, n)
            if mask not in family:
                family.append(mask)
        if m % 2 == 0:
            meas = [Fraction(rng.randint(0, 3), rng.randint(1, 2))] * n
            for _ in range(2):
                c, e = Fraction(rng.randint(0, 3), rng.randint(1, 2)), rng.choice(family)
                meas = [v + (c if inside else 0) for v, inside in zip(meas, e)]
        else:
            meas = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        doc = _model_document(
            f"M{m}", outcomes, entries,
            {"q1": q1, "q2": q2, "m1": meas},
            {"qe": qe, **{f"e{i}": mask for i, mask in enumerate(family)}},
            [f"e{i}" for i in range(len(family))],
        )
        path = os.path.join(workdir, f"model{m:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)

        def cli(*argv, path=path):
            return lambda: _cli([argv[0], "-m", path, *argv[1:], "--output", "json"])

        gens = [oracle.boundary(f, mask, lower) for f, mask, lower in entries]
        tag = f"m{m:03d}"
        ops.append(Op(f"{tag}.check", cli("check"),
                      _check_verdict(entries, kind, bad_index, assessed, extension)))
        if kind == "coherent":
            full = [True] * n
            ops.append(Op(f"{tag}.natex", cli("natex", "--gamble", "q1"),
                          _natex_check(lambda g=gens, v=q1, e=full: oracle.cone_lower(g, v, e))))
            ops.append(Op(f"{tag}.natex-upper", cli("natex", "--gamble", "q1", "--upper"),
                          _natex_check(lambda g=gens, v=q1, e=full: oracle.cone_upper(g, v, e))))
            ops.append(Op(f"{tag}.natex-cond", cli("natex", "--gamble", "q2", "--event", "qe"),
                          _natex_check(lambda g=gens, v=q2, e=qe: oracle.cone_lower(g, v, e))))
        ops.append(Op(f"{tag}.measurable",
                      cli("measurable", "--gamble", "m1", "--family", "F", "--levels", str(MEASURABLE_LEVELS)),
                      _measurable_check(meas, family, MEASURABLE_LEVELS)))

        space = Space(f"C{m}", tuple(outcomes))
        cone_gens = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(3 + m // 3 % 6)
        ]
        h = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        cone = DesirableCone(space, tuple(space.gamble(g) for g in cone_gens))
        probe = space.gamble(h)
        coherent, witness, contains = _cone_checks(cone_gens, h)
        ops.append(Op(f"{tag}.cone-coherent", lambda cone=cone: str(cone.is_coherent()), coherent))
        ops.append(Op(
            f"{tag}.cone-witness",
            lambda cone=cone: "None" if (w := cone.positive_pmf_witness()) is None
            else ",".join(str(p) for p in w.masses),
            witness,
        ))
        ops.append(Op(f"{tag}.cone-contains", lambda cone=cone, h=probe: str(cone.contains(h)), contains))
    return Workload("single-model", ops)


# ---------------------------------------------------------------------------
# suite-trials: `desirables suite` over many seeds at a small trial count
# ---------------------------------------------------------------------------


def _suite_check(name: str, suite_seed: int):
    def verify(answer: str) -> Optional[str]:
        code, text = _split_cli(answer)
        doc = json.loads(text)
        header = (doc["suite"], doc["seed"], doc["trials"], doc["exit_code"])
        if code != 0 or header != (name, suite_seed, SUITE_TRIALS, 0):
            return f"exit {code}, header {header}"
        failed = [p["name"] for p in doc["properties"] if not p["passed"] or p["checks"] < 1]
        return f"failed properties {failed}" if failed or not doc["properties"] else None

    return verify


def suite_trials(seed: int, workdir: str) -> Workload:
    import desirables.cli  # noqa: F401  (its import belongs to the timed set-up)

    rng = random.Random(f"suite-trials:{seed}")
    ops = []
    for i in range(SUITE_RUNS):
        name = SUITE_NAMES[i % len(SUITE_NAMES)]
        suite_seed = rng.randrange(2**63)
        argv = ["suite", "--suite", name, "--seed", str(suite_seed),
                "--trials", str(SUITE_TRIALS), "--output", "json"]
        ops.append(Op(f"s{i:04d}.{name}", lambda argv=argv: _cli(argv),
                      _suite_check(name, suite_seed)))
    return Workload("suite-trials", ops)


WORKLOADS: dict[str, Callable[[int, str], Workload]] = {
    "ine-joint": ine_joint,
    "single-model": single_model,
    "suite-trials": suite_trials,
}

"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Every check is exact rational equality; there are no
tolerances anywhere.
"""

import json
import random
from fractions import Fraction

from desirables.cli import main as cli_main
from desirables.cones import DesirableCone
from desirables.independence import (
    EventFamily,
    IndependentNaturalExtension,
    MarginalConeView,
    independent_product_cone,
    nested_sandwich,
)
from desirables.measurability import (
    family_is_field,
    generated_field,
    is_measurable,
    level_set_approximation,
    measurable_by_field_criterion,
)
from desirables.prevision import ConditionalLowerPrevision, LinearPrevision
from desirables.spaces import Event, Gamble, Space, indicator
from desirables.suites import (
    gap_instance_values,
    random_envelope_model,
    random_gamble,
    random_measurable_gamble,
    random_nonempty_event,
    random_nonneg_gamble,
    random_partition,
    random_space,
    random_strict_pmf,
    restricted_family_gap_instance,
    run_suite,
)

from oracles import envelope_bounds_by_vertices, sympy_lower_prevision


def report(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


# ---------------------------------------------------------------------------
# 1. Dual-witness equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_dual_witness_equivalence():
    rng = random.Random(20260810)
    checked = 0
    ok = True
    for trial in range(220):
        size = rng.randint(1, 5)
        space = Space(f"W{trial}", tuple(f"o{i}" for i in range(size)))
        gens = tuple(
            Gamble(
                space,
                tuple(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(size)
                ),
            )
            for _ in range(rng.randint(0, 6))
        )
        cone = DesirableCone(space, gens)
        witness = cone.positive_pmf_witness()
        coherent = cone.is_coherent()
        ok = ok and (witness is not None) == coherent
        if witness is not None:
            ok = ok and all(p > 0 for p in witness.masses) and sum(witness.masses) == 1
            ok = ok and all(witness.expectation(g) > 0 for g in gens)
        checked += 1
    report(1, ok and checked >= 200, f"coherence equals pmf-witness existence on {checked} random cones")


# ---------------------------------------------------------------------------
# 2. Natural-extension fixed point through the CLI
# ---------------------------------------------------------------------------


def _model_document(model: ConditionalLowerPrevision) -> dict:
    space = model.space
    doc = {
        "spaces": [{"id": space.name, "outcomes": list(space.outcomes)}],
        "gambles": [],
        "events": [],
        "assessments": [],
        "families": [],
    }
    for k, entry in enumerate(model.assessment.entries):
        gid = f"g{k}"
        doc["gambles"].append(
            {
                "id": gid,
                "space": space.name,
                "values": {x: str(v) for x, v in zip(space.outcomes, entry.gamble.values)},
            }
        )
        if entry.event.is_full:
            espec = "ALL"
        else:
            espec = f"e{k}"
            doc["events"].append(
                {"id": espec, "space": space.name, "members": entry.event.sorted_members()}
            )
        doc["assessments"].append(
            {"gamble": gid, "event": espec, "lower": str(entry.lower), "linear": entry.linear}
        )
    return doc


def test_criterion_2_fixed_point_via_cmd_natex(tmp_path, capsys):
    rng = random.Random(2)
    models = 0
    ok = True
    while models < 100:
        space = random_space(rng, f"N{models}", 2, 4)
        model, _ = random_envelope_model(
            rng, space, n_pmfs=rng.randint(2, 4), n_entries=rng.randint(1, 3)
        )
        path = tmp_path / f"model{models}.json"
        path.write_text(json.dumps(_model_document(model)), encoding="utf-8")
        for k, entry in enumerate(model.assessment.entries):
            espec = "ALL" if entry.event.is_full else f"e{k}"
            code = cli_main(
                ["natex", "-m", str(path), "--gamble", f"g{k}", "--event", espec]
            )
            out = capsys.readouterr().out.strip()
            ok = ok and code == 0 and out == str(entry.lower)
        models += 1
    report(2, ok and models >= 100, f"cmd_natex reproduces every assessed value on {models} envelope models")


# ---------------------------------------------------------------------------
# 3. The LP1-LP8 suite
# ---------------------------------------------------------------------------


def test_criterion_3_axiom_suite():
    suite = run_suite("axioms", seed=3, trials=100)
    names = {o.name for o in suite.outcomes}
    ok = suite.all_passed and {"LP1", "LP2", "LP3", "LP4", "LP5", "LP6", "LP7", "LP8"} <= names
    failing = [o.name for o in suite.outcomes if not o.passed]
    report(3, ok, f"LP1-LP8 exact on 100 random coherent models (failures: {failing or 'none'})")


# ---------------------------------------------------------------------------
# 4. Envelope attainment against the vertex-enumeration oracle
# ---------------------------------------------------------------------------


def test_criterion_4_envelope_attainment():
    rng = random.Random(4)
    ok = True
    instances = 0
    for size in (2, 3, 4):
        for n_entries in (1, 2, 3, 4):
            for _ in range(8):
                space = Space(f"E{instances}", tuple(f"o{i}" for i in range(size)))
                model, _ = random_envelope_model(
                    rng, space, n_pmfs=rng.randint(2, 3), n_entries=n_entries
                )
                for _ in range(3):
                    f = random_gamble(rng, space)
                    event = random_nonempty_event(rng, space)
                    if not model.cone.upper_probability_positive(event):
                        continue
                    bounds = envelope_bounds_by_vertices(
                        space, model.cone.generators, f, event
                    )
                    ok = ok and bounds is not None
                    low, high = bounds
                    ok = ok and model.lower(f, event) == low
                    ok = ok and model.upper(f, event) == high
                    argmin, argmax = model.dominating_previsions(f, event)
                    ok = ok and argmin.conditional(f, event) == low
                    ok = ok and argmax.conditional(f, event) == high
                instances += 1
    report(4, ok, f"envelope minima/maxima match vertex enumeration on {instances} instances")


# ---------------------------------------------------------------------------
# 5. INE existence and marginal preservation (exhaustive cone catalogue)
# ---------------------------------------------------------------------------


def _cone_catalogue(space: Space) -> list[DesirableCone]:
    cones = [DesirableCone.vacuous(space)]
    n = space.size
    candidate_vectors = []
    if n == 1:
        candidate_vectors = []
    elif n == 2:
        candidate_vectors = [
            [(-1, 2)],
            [(2, -1)],
            [(-1, 3), (1, -1)],
            [(Fraction(-1, 2), 1), (3, -2)],
        ]
    else:
        candidate_vectors = [
            [(-1, 2, 0)],
            [(1, -1, 1)],
            [(-2, 1, 1), (1, 1, -2)],
            [(0, -1, 2), (2, 0, -1)],
        ]
    for vectors in candidate_vectors:
        gens = tuple(space.gamble(list(v)) for v in vectors)
        cone = DesirableCone(space, gens)
        if cone.is_coherent():
            cones.append(cone)
    return cones


def _spanning_samples(space: Space, rng) -> list[Gamble]:
    samples = [indicator(atom) for atom in space.atoms()]
    samples += [-indicator(atom) for atom in space.atoms()]
    samples.append(space.constant(1))
    samples.append(space.constant(-1))
    samples.append(space.zero())
    samples += [random_gamble(rng, space, span=2, max_den=2) for _ in range(3)]
    return samples


def test_criterion_5_ine_existence_and_marginals():
    rng = random.Random(5)
    ok = True
    pairs = 0
    spaces = {
        1: Space("P1", ("s",)),
        2: Space("P2", ("s1", "s2")),
        3: Space("P3", ("t1", "t2", "t3")),
    }
    right_spaces = {
        1: Space("Q1", ("u",)),
        2: Space("Q2", ("u1", "u2")),
        3: Space("Q3", ("v1", "v2", "v3")),
    }
    for ls in (1, 2, 3):
        for rs in (1, 2, 3):
            left_space, right_space = spaces[ls], right_spaces[rs]
            for left in _cone_catalogue(left_space):
                for right in _cone_catalogue(right_space):
                    family_choices = [
                        (EventFamily.atoms(left_space), EventFamily.atoms(right_space)),
                        (EventFamily.empty(left_space), EventFamily.empty(right_space)),
                        (
                            EventFamily.custom(left_space, (left_space.atoms()[0],)),
                            EventFamily.custom(right_space, (right_space.atoms()[-1],)),
                        ),
                    ]
                    for fam_left, fam_right in family_choices:
                        joint = independent_product_cone(left, right, fam_left, fam_right)
                        ok = ok and joint.is_coherent()
                        view_left = MarginalConeView(joint, "left")
                        view_right = MarginalConeView(joint, "right")
                        for f in _spanning_samples(left_space, rng):
                            ok = ok and view_left.contains(f) == left.contains(f)
                        for g in _spanning_samples(right_space, rng):
                            ok = ok and view_right.contains(g) == right.contains(g)
                        pairs += 1
    report(5, ok, f"joint coherent and marginals preserved on {pairs} cone pairs")


# ---------------------------------------------------------------------------
# 6. Atom-independence equals event-independence on finite spaces
# ---------------------------------------------------------------------------


def _marginal_model_catalogue(space: Space):
    uniform = LinearPrevision.uniform(space).as_lower_prevision()
    bound = Fraction(1, 2 * space.size)
    credal = ConditionalLowerPrevision.from_entries(
        space, [(indicator(atom), None, bound) for atom in space.atoms()]
    )
    return [uniform, credal]


def test_criterion_6_atoms_equal_events():
    rng = random.Random(6)
    ok = True
    queries = 0
    for ls in (2, 3):
        for rs in (2, 3):
            left_space = Space(f"A{ls}", tuple(f"a{i}" for i in range(ls)))
            right_space = Space(f"B{rs}", tuple(f"b{i}" for i in range(rs)))
            for left in _marginal_model_catalogue(left_space):
                for right in _marginal_model_catalogue(right_space):
                    atoms = IndependentNaturalExtension(
                        left,
                        right,
                        EventFamily.atoms(left_space),
                        EventFamily.atoms(right_space),
                    )
                    events = IndependentNaturalExtension(
                        left,
                        right,
                        EventFamily.custom(left_space, EventFamily.all_nonempty(left_space).events()),
                        EventFamily.custom(right_space, EventFamily.all_nonempty(right_space).events()),
                    )
                    prod = atoms.space
                    gambles = [indicator(Event(prod, frozenset([x]))) for x in prod.outcomes]
                    gambles += [random_gamble(rng, prod, span=2, max_den=2) for _ in range(2)]
                    conditioning = [None]
                    conditioning.append(
                        atoms.lift_event(Event(left_space, frozenset([left_space.outcomes[0]])))
                    )
                    conditioning.append(
                        atoms.lift_event(
                            Event(right_space, frozenset(right_space.outcomes[:2]))
                        )
                    )
                    for f in gambles:
                        for event in conditioning:
                            ok = ok and atoms.lower(f, event) == events.lower(f, event)
                            queries += 1
    report(6, ok, f"atom and event independence agree on {queries} queries")


# ---------------------------------------------------------------------------
# 7. Factorisation and external additivity
# ---------------------------------------------------------------------------


def test_criterion_7_factorisation_and_additivity():
    rng = random.Random(7)
    ok = True
    instances = 0
    while instances < 100:
        left_space = random_space(rng, f"F{instances}L", 2, 3)
        right_space = random_space(rng, f"F{instances}R", 2, 3)
        left, _ = random_envelope_model(rng, left_space, n_entries=rng.randint(1, 2))
        right, _ = random_envelope_model(rng, right_space, n_entries=rng.randint(1, 2))
        fam_left = (
            EventFamily.atoms(left_space)
            if rng.random() < 0.6
            else EventFamily.custom(left_space, (left_space.atoms()[0],))
        )
        fam_right = EventFamily.atoms(right_space)
        ine = IndependentNaturalExtension(left, right, fam_left, fam_right)

        # factorised sum with side i = left
        f = random_gamble(rng, left_space, span=3)
        g = random_measurable_gamble(rng, left_space, fam_left)
        h = random_gamble(rng, right_space, span=3)
        lhs = ine.lower(ine.lift(f) + ine.lift(g) * ine.lift(h))
        rhs = left.lower(f + g * right.lower(h))
        ok = ok and lhs == rhs

        # factorised sum with side i = right
        f2 = random_gamble(rng, right_space, span=3)
        g2 = random_measurable_gamble(rng, right_space, fam_right)
        h2 = random_gamble(rng, left_space, span=3)
        lhs = ine.lower(ine.lift(f2) + ine.lift(g2) * ine.lift(h2))
        rhs = right.lower(f2 + g2 * left.lower(h2))
        ok = ok and lhs == rhs

        # external additivity for every sampled pair
        for _ in range(2):
            fa = random_gamble(rng, left_space, span=3)
            ha = random_gamble(rng, right_space, span=3)
            ok = ok and ine.lower(ine.lift(fa) + ine.lift(ha)) == left.lower(fa) + right.lower(ha)
        instances += 1
    report(7, ok, f"factorised sums and external additivity exact on {instances} instances")


# ---------------------------------------------------------------------------
# 8. Restricted-family gap regression
# ---------------------------------------------------------------------------


def test_criterion_8_restricted_family_gap():
    inst = restricted_family_gap_instance()
    custom_value, all_value = gap_instance_values()

    # The oracle recomputes both sides through an independent LP route.
    oracle_values = []
    for families in (
        (inst.left_family, inst.right_family),
        (
            EventFamily.custom(inst.left.space, EventFamily.all_nonempty(inst.left.space).events()),
            EventFamily.custom(inst.right.space, EventFamily.all_nonempty(inst.right.space).events()),
        ),
    ):
        ine = IndependentNaturalExtension(
            inst.left.as_lower_prevision(),
            inst.right.as_lower_prevision(),
            families[0],
            families[1],
        )
        target = ine.lift(inst.odd) * ine.lift(inst.even)
        oracle_values.append(
            sympy_lower_prevision(
                ine.space, ine.joint_cone.generators, target, ine.space.full_event()
            )
        )

    ok = (
        not is_measurable(inst.odd, inst.left_family)
        and custom_value == oracle_values[0] == inst.expected_custom_value
        and all_value == oracle_values[1] == inst.expected_all_value
        and custom_value < all_value
    )
    report(
        8,
        ok,
        f"restricted family gives {custom_value} < {all_value} (engine and oracle agree)",
    )


# ---------------------------------------------------------------------------
# 9. Nested sandwich for linear marginals
# ---------------------------------------------------------------------------


def test_criterion_9_nested_sandwich():
    rng = random.Random(9)
    ok = True
    instances = 0
    while instances < 100:
        left_space = random_space(rng, f"S{instances}L", 2, 3)
        right_space = random_space(rng, f"S{instances}R", 2, 3)
        p1 = random_strict_pmf(rng, left_space)
        p2 = random_strict_pmf(rng, right_space)
        prod_probe = nested_sandwich(p1, p2, random_gamble(rng, IndependentNaturalExtension(
            p1.as_lower_prevision(), p2.as_lower_prevision()
        ).space, span=3))
        ok = ok and prod_probe.holds
        swapped = nested_sandwich(p2, p1, random_gamble(rng, IndependentNaturalExtension(
            p2.as_lower_prevision(), p1.as_lower_prevision()
        ).space, span=3))
        ok = ok and swapped.holds
        instances += 1
    report(9, ok, f"nested evaluations sit inside the joint bounds on {instances} instances")


# ---------------------------------------------------------------------------
# 10. Measurability: staircase bounds and the field criterion
# ---------------------------------------------------------------------------


def test_criterion_10_measurability():
    rng = random.Random(10)
    ok = True
    staircases = 0
    field_checks = 0
    for trial in range(40):
        space = random_space(rng, f"M{trial}", 2, 5)
        blocks = random_partition(rng, space)
        family = EventFamily.custom(space, tuple(blocks))
        g = space.zero()
        for b in blocks:
            g = g + indicator(b) * Fraction(rng.randint(0, 5), rng.randint(1, 3))
        for n in (2, 4, 8, 16):
            approx = level_set_approximation(g, family, n)
            ok = ok and approx.succeeded
            error = max(abs(a - b) for a, b in zip(approx.approximant.values, g.values))
            ok = ok and error <= approx.error_bound == (g.maximum() + 1) / Fraction(n)
            staircases += 1

        members = [Event(space, m) for m in generated_field(family) if m]
        field_family = EventFamily.custom(space, tuple(members))
        ok = ok and family_is_field(field_family)
        for probe in (
            random_nonneg_gamble(rng, space),
            random_measurable_gamble(rng, space, field_family),
        ):
            ok = ok and is_measurable(probe, field_family) == measurable_by_field_criterion(
                probe, field_family
            )
            field_checks += 1
    report(
        10,
        ok,
        f"staircase bounds on {staircases} approximants; field criterion agrees on {field_checks} probes",
    )

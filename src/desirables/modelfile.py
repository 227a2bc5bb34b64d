"""The JSON model-file format: parsing, validation, canonical serialization.

A model file carries spaces, gambles, events, assessment entries, and
conditioning-event families, all cross-referenced by id.  Rationals are
strings in canonical form ("p/q" in lowest terms with positive
denominator, or "p"), never JSON numbers, so no value ever passes through
floating point.  Serialization is canonical: parsing a canonical file and
serializing the result reproduces it byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

from .independence import ALL_NONEMPTY, ATOMS, CUSTOM, EventFamily
from .prevision import Assessment, AssessmentEntry, ConditionalLowerPrevision
from .spaces import Event, Gamble, Space

_RATIONAL_RE = re.compile(r"(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?\Z")

ALL_EVENT = "ALL"


class ModelFormatError(ValueError):
    """The model file is malformed: bad JSON, bad schema, a dangling
    reference, or a non-canonical rational."""


def parse_rational(text: object, where: str) -> Fraction:
    """The rational that the canonical string ``text`` spells: "p/q" with q
    > 1 and gcd(p, q) = 1, or "p", with no "-0".  The check is made on the
    integers themselves, so nothing is normalised and printed back."""
    match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise ModelFormatError(f"{where}: rational values must be canonical strings, got {text!r}")
    sign, num, den = match.groups()
    try:
        n = int(num)
        d = int(den) if den else 1
    except ValueError as exc:  # more digits than int() converts
        raise ModelFormatError(f"{where}: {exc}") from None
    if sign:
        n = -n
    if (den is None and sign and not n) or (den is not None and (d == 1 or gcd(n, d) != 1)):
        raise ModelFormatError(f"{where}: {text!r} is not in lowest terms (expected {Fraction(n, d)})")
    return Fraction(n, d)


@dataclass(frozen=True)
class AssessmentRecord:
    gamble_id: str
    event_id: Optional[str]  # None encodes the whole space ("ALL")
    lower: Fraction
    linear: bool


@dataclass
class Model:
    spaces: dict[str, Space] = field(default_factory=dict)
    gambles: dict[str, Gamble] = field(default_factory=dict)
    events: dict[str, Event] = field(default_factory=dict)
    assessments: list[AssessmentRecord] = field(default_factory=list)
    families: dict[str, EventFamily] = field(default_factory=dict)
    #: The event ids each custom family lists, as written, which
    #: ``serialize_model`` writes back; two ids may name equal events, so
    #: they are not recovered from the events.
    family_event_ids: dict[str, list[str]] = field(default_factory=dict)

    # -- lookups -----------------------------------------------------------

    def gamble(self, gamble_id: str) -> Gamble:
        try:
            return self.gambles[gamble_id]
        except KeyError:
            raise ModelFormatError(f"unknown gamble id {gamble_id!r}") from None

    def event_or_all(self, spec: str, space: Space) -> Optional[Event]:
        """An event id, or "ALL" for the whole space (returned as None so
        queries default to unconditional)."""
        if spec == ALL_EVENT:
            return None
        try:
            event = self.events[spec]
        except KeyError:
            raise ModelFormatError(f"unknown event id {spec!r}") from None
        if event.space != space:
            raise ModelFormatError(f"event {spec!r} is not on space {space.name!r}")
        return event

    def family(self, spec: str, space: Space) -> EventFamily:
        """A family id from the file, or one of the builtin names
        "atoms", "all", "empty"."""
        if spec == ATOMS:
            return EventFamily.atoms(space)
        if spec == ALL_NONEMPTY:
            return EventFamily.all_nonempty(space)
        if spec == "empty":
            return EventFamily.empty(space)
        try:
            fam = self.families[spec]
        except KeyError:
            raise ModelFormatError(
                f"unknown family {spec!r} (expected an id or atoms/all/empty)"
            ) from None
        if fam.space != space:
            raise ModelFormatError(f"family {spec!r} is not on space {space.name!r}")
        return fam

    def assessment_space(self) -> Space:
        """The single space all assessment entries live on."""
        if not self.assessments:
            if len(self.spaces) == 1:
                return next(iter(self.spaces.values()))
            raise ModelFormatError(
                "the model has no assessments; a unique space is required"
            )
        spaces = {self.gamble(a.gamble_id).space for a in self.assessments}
        if len(spaces) != 1:
            raise ModelFormatError("assessment entries span more than one space")
        return next(iter(spaces))

    def to_assessment(self) -> Assessment:
        space = self.assessment_space()
        entries = []
        for rec in self.assessments:
            gamble = self.gamble(rec.gamble_id)
            event = (
                space.full_event()
                if rec.event_id is None
                else self.event_or_all(rec.event_id, space)
            )
            entries.append(
                AssessmentEntry(gamble=gamble, event=event, lower=rec.lower, linear=rec.linear)
            )
        return Assessment(space, tuple(entries))

    def to_prevision(self) -> ConditionalLowerPrevision:
        return ConditionalLowerPrevision(self.to_assessment())


def _expect(obj: dict, key: str, kind, where: str, optional: bool = False, default=None):
    if key not in obj:
        if optional:
            return default
        raise ModelFormatError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ModelFormatError(f"{where}: key {key!r} has the wrong type")
    return value


def _check_keys(obj: object, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    extra = set(obj) - allowed
    if extra:
        raise ModelFormatError(f"{where}: unknown keys {sorted(extra)}")


def parse_model(text: str) -> Model:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise ModelFormatError(f"invalid JSON: {exc}") from None
    _check_keys(doc, {"spaces", "gambles", "events", "assessments", "families"}, "model")

    model = Model()

    for item in _expect(doc, "spaces", list, "model", optional=True, default=[]):
        where = "spaces entry"
        _check_keys(item, {"id", "outcomes"}, where)
        sid = _expect(item, "id", str, where)
        outcomes = _expect(item, "outcomes", list, where)
        if sid in model.spaces:
            raise ModelFormatError(f"duplicate space id {sid!r}")
        if not all(isinstance(x, str) for x in outcomes):
            raise ModelFormatError(f"space {sid!r}: outcomes must be strings")
        try:
            model.spaces[sid] = Space(sid, tuple(outcomes))
        except ValueError as exc:
            raise ModelFormatError(f"space {sid!r}: {exc}") from None

    def space_of(item: dict, where: str) -> Space:
        sid = _expect(item, "space", str, where)
        if sid not in model.spaces:
            raise ModelFormatError(f"{where}: unknown space id {sid!r}")
        return model.spaces[sid]

    for item in _expect(doc, "gambles", list, "model", optional=True, default=[]):
        where = "gambles entry"
        _check_keys(item, {"id", "space", "values"}, where)
        gid = _expect(item, "id", str, where)
        if gid in model.gambles:
            raise ModelFormatError(f"duplicate gamble id {gid!r}")
        space = space_of(item, f"gamble {gid!r}")
        values = _expect(item, "values", dict, f"gamble {gid!r}")
        parsed = {
            outcome: parse_rational(v, f"gamble {gid!r} value at {outcome!r}")
            for outcome, v in values.items()
        }
        try:
            model.gambles[gid] = space.gamble(parsed)
        except ValueError as exc:
            raise ModelFormatError(f"gamble {gid!r}: {exc}") from None

    for item in _expect(doc, "events", list, "model", optional=True, default=[]):
        where = "events entry"
        _check_keys(item, {"id", "space", "members"}, where)
        eid = _expect(item, "id", str, where)
        if eid in model.events:
            raise ModelFormatError(f"duplicate event id {eid!r}")
        space = space_of(item, f"event {eid!r}")
        members = _expect(item, "members", list, f"event {eid!r}")
        if not all(isinstance(x, str) for x in members):
            raise ModelFormatError(f"event {eid!r}: members must be strings")
        try:
            model.events[eid] = Event(space, frozenset(members))
        except ValueError as exc:
            raise ModelFormatError(f"event {eid!r}: {exc}") from None

    for idx, item in enumerate(_expect(doc, "assessments", list, "model", optional=True, default=[])):
        where = f"assessments[{idx}]"
        _check_keys(item, {"gamble", "event", "lower", "linear"}, where)
        gid = _expect(item, "gamble", str, where)
        if gid not in model.gambles:
            raise ModelFormatError(f"{where}: unknown gamble id {gid!r}")
        espec = _expect(item, "event", str, where)
        if espec != ALL_EVENT:
            if espec not in model.events:
                raise ModelFormatError(f"{where}: unknown event id {espec!r}")
            if model.events[espec].space != model.gambles[gid].space:
                raise ModelFormatError(f"{where}: event and gamble are on different spaces")
            if model.events[espec].is_empty:
                raise ModelFormatError(f"{where}: conditioning event is empty")
        lower = parse_rational(_expect(item, "lower", str, where), where)
        linear = _expect(item, "linear", bool, where, optional=True, default=False)
        model.assessments.append(
            AssessmentRecord(
                gamble_id=gid,
                event_id=None if espec == ALL_EVENT else espec,
                lower=lower,
                linear=linear,
            )
        )

    for item in _expect(doc, "families", list, "model", optional=True, default=[]):
        where = "families entry"
        _check_keys(item, {"id", "space", "kind", "events"}, where)
        fid = _expect(item, "id", str, where)
        if fid in model.families:
            raise ModelFormatError(f"duplicate family id {fid!r}")
        space = space_of(item, f"family {fid!r}")
        kind = _expect(item, "kind", str, f"family {fid!r}")
        if kind not in (ATOMS, ALL_NONEMPTY, CUSTOM):
            raise ModelFormatError(f"family {fid!r}: kind must be atoms, all, or custom")
        event_ids = _expect(item, "events", list, f"family {fid!r}", optional=True, default=None)
        if kind == CUSTOM:
            if event_ids is None:
                raise ModelFormatError(f"family {fid!r}: custom families list their events")
            events = []
            for eid in event_ids:
                if not isinstance(eid, str) or eid not in model.events:
                    raise ModelFormatError(f"family {fid!r}: unknown event id {eid!r}")
                events.append(model.events[eid])
            try:
                model.families[fid] = EventFamily.custom(space, events)
            except ValueError as exc:
                raise ModelFormatError(f"family {fid!r}: {exc}") from None
            model.family_event_ids[fid] = event_ids
        else:
            if event_ids is not None:
                raise ModelFormatError(f"family {fid!r}: only custom families list events")
            model.families[fid] = EventFamily(space, kind)

    return model


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def serialize_model(model: Model) -> str:
    """Canonical text: declaration order (the dicts' insertion order)
    preserved, gamble values and event members in space outcome order,
    rationals in canonical form."""
    doc: dict = {}
    doc["spaces"] = [
        {"id": sid, "outcomes": list(space.outcomes)}
        for sid, space in model.spaces.items()
    ]
    doc["gambles"] = [
        {
            "id": gid,
            "space": g.space.name,
            "values": {x: str(v) for x, v in zip(g.space.outcomes, g.values)},
        }
        for gid, g in model.gambles.items()
    ]
    doc["events"] = [
        {
            "id": eid,
            "space": event.space.name,
            "members": event.sorted_members(),
        }
        for eid, event in model.events.items()
    ]
    doc["assessments"] = [
        {
            "gamble": rec.gamble_id,
            "event": rec.event_id if rec.event_id is not None else ALL_EVENT,
            "lower": str(rec.lower),
            "linear": rec.linear,
        }
        for rec in model.assessments
    ]
    families = []
    for fid, fam in model.families.items():
        entry: dict = {"id": fid, "space": fam.space.name, "kind": fam.kind}
        if fam.kind == CUSTOM:
            if fid not in model.family_event_ids:
                raise ModelFormatError(f"custom family {fid!r} has no event ids to write")
            entry["events"] = model.family_event_ids[fid]
        families.append(entry)
    doc["families"] = families
    return json.dumps(doc, indent=2) + "\n"

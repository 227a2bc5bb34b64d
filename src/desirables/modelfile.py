"""The JSON model-file format: parsing, validation, canonical serialization.

A model file carries spaces, gambles, events, assessment entries, and
conditioning-event families, all cross-referenced by id.  Rationals are
strings in canonical form ("p/q" in lowest terms with positive
denominator, or "p"), never JSON numbers, so no value ever passes through
floating point.  Serialization is canonical: parsing a canonical file and
serializing the result reproduces it byte for byte.

``parse_model`` is one pass from the JSON text to integer rows.  Each
rational string is checked once per call: a memo local to the call maps
every canonical string met so far to its integers (p, q), so a repeated
value costs one dict read.  Only strings are keys, so any other JSON value
still reaches the check and is refused with ``ModelFormatError``, and a
non-canonical spelling of a value met before is a new key and is refused
too.  Gamble values are read in file order, so the first bad one is the
one named, and the context of a message ("gamble 'g' value at 'a'") is
formatted only on the branch that raises.  Each gamble's row is then laid
out in outcome order over the lcm of its denominators, with no
``Fraction`` made.  ``Model.to_prevision`` builds each entry's cone
generator as one integer row too (``AssessmentEntry.boundary_gamble``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .independence import ALL_NONEMPTY, ATOMS, CUSTOM, EventFamily
from .prevision import Assessment, AssessmentEntry, ConditionalLowerPrevision
from .spaces import Event, Gamble, Space, _gamble

_RATIONAL_RE = re.compile(r"(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?\Z")

ALL_EVENT = "ALL"


class ModelFormatError(ValueError):
    """The model file is malformed: bad JSON, bad schema, a dangling
    reference, or a non-canonical rational."""


class _Refused(ModelFormatError):
    """A value that is not a canonical rational string, raised without
    its context, which the caller adds."""


def parse_ratio(text: object, where: str) -> tuple[int, int]:
    """The integers (p, q) of the rational that the canonical string
    ``text`` spells: "p/q" with q > 1 and gcd(p, q) = 1, or "p" (q = 1),
    with no "-0".  The check is made on the integers themselves, so
    nothing is normalised and printed back."""
    try:
        return _ratio(text)
    except _Refused as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def _ratio(text: object) -> tuple[int, int]:
    """``parse_ratio`` without the context: raises ``_Refused``."""
    match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise _Refused(f"rational values must be canonical strings, got {text!r}")
    sign, num, den = match.groups()
    try:
        n = int(num)
        d = int(den) if den else 1
    except ValueError as exc:  # more digits than int() converts
        raise _Refused(str(exc)) from None
    if sign:
        n = -n
    if (den is None and sign and not n) or (den is not None and (d == 1 or gcd(n, d) != 1)):
        raise _Refused(f"{text!r} is not in lowest terms (expected {Fraction(n, d)})")
    return n, d


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
        full = space.full_event()
        entries = []
        for rec in self.assessments:
            gamble = self.gamble(rec.gamble_id)
            event = full if rec.event_id is None else self.event_or_all(rec.event_id, space)
            entries.append(
                AssessmentEntry(gamble=gamble, event=event, lower=rec.lower, linear=rec.linear)
            )
        return Assessment(space, tuple(entries))

    def to_prevision(self) -> ConditionalLowerPrevision:
        return ConditionalLowerPrevision(self.to_assessment())


def _expect(obj: dict, key: str, kind, where: str, optional: bool = False, default=None):
    value = obj.get(key)
    if value.__class__ is kind:  # json.loads makes exact str, list, dict and bool
        return value
    if key not in obj:
        if optional:
            return default
        raise ModelFormatError(f"{where}: missing key {key!r}")
    if not isinstance(value, kind):
        raise ModelFormatError(f"{where}: key {key!r} has the wrong type")
    return value


def _check_keys(obj: object, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    if not allowed.issuperset(obj):
        raise ModelFormatError(f"{where}: unknown keys {sorted(set(obj) - allowed)}")


def parse_model(text: str) -> Model:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise ModelFormatError(f"invalid JSON: {exc}") from None
    _check_keys(doc, {"spaces", "gambles", "events", "assessments", "families"}, "model")

    model = Model()
    ratios: dict[str, tuple[int, int]] = {}  # the canonical strings met so far

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
        where = f"gamble {gid!r}"
        space = space_of(item, where)
        values = _expect(item, "values", dict, where)
        row = []
        try:
            for outcome, text in values.items():  # in file order, so the first bad value raises
                ratio = ratios.get(text) if isinstance(text, str) else None
                if ratio is None:
                    ratio = ratios[text] = _ratio(text)
                row.append(ratio)
        except _Refused as exc:
            raise ModelFormatError(f"{where} value at {outcome!r}: {exc}") from None
        if tuple(values) != space.outcomes:
            try:
                row = space.in_order(dict(zip(values, row)))
            except ValueError as exc:
                raise ModelFormatError(f"{where}: {exc}") from None
        # Over den = lcm of the d the row is in lowest terms: for each prime
        # of den, the d holding its highest power leaves den // d prime to
        # it, and that d's n is prime to it too, since n / d is reduced.
        den = lcm(*[d for _, d in row])
        model.gambles[gid] = _gamble(space, den, tuple([n * (den // d) for n, d in row]))

    for item in _expect(doc, "events", list, "model", optional=True, default=[]):
        where = "events entry"
        _check_keys(item, {"id", "space", "members"}, where)
        eid = _expect(item, "id", str, where)
        if eid == ALL_EVENT:
            raise ModelFormatError(f"event id {eid!r} is reserved for the whole space")
        if eid in model.events:
            raise ModelFormatError(f"duplicate event id {eid!r}")
        where = f"event {eid!r}"
        space = space_of(item, where)
        members = _expect(item, "members", list, where)
        if not all(isinstance(x, str) for x in members):
            raise ModelFormatError(f"{where}: members must be strings")
        try:
            model.events[eid] = Event(space, frozenset(members))
        except ValueError as exc:
            raise ModelFormatError(f"{where}: {exc}") from None

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
        text = _expect(item, "lower", str, where)
        if text not in ratios:
            ratios[text] = parse_ratio(text, where)
        lower = Fraction(*ratios[text])
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
        if fid in (ATOMS, ALL_NONEMPTY, "empty"):
            raise ModelFormatError(f"family id {fid!r} is reserved for the builtin family")
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

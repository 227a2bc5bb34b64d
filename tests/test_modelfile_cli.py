"""Model files and the command-line surface."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desirables import cli
from desirables.cli import main
from desirables.cones import DesirableCone
from desirables.independence import EventFamily
from desirables.modelfile import (
    Model,
    ModelFormatError,
    parse_model,
    parse_ratio,
    serialize_model,
)
from desirables.spaces import Space, indicator

CREDAL = """{
  "spaces": [
    {"id": "X", "outcomes": ["a", "b"]}
  ],
  "gambles": [
    {"id": "ia", "space": "X", "values": {"a": "1", "b": "0"}},
    {"id": "ib", "space": "X", "values": {"a": "0", "b": "1"}}
  ],
  "events": [
    {"id": "just_a", "space": "X", "members": ["a"]}
  ],
  "assessments": [
    {"gamble": "ia", "event": "ALL", "lower": "1/4", "linear": false},
    {"gamble": "ib", "event": "ALL", "lower": "1/4", "linear": false}
  ],
  "families": [
    {"id": "F", "space": "X", "kind": "custom", "events": ["just_a"]}
  ]
}
"""

SURE_LOSS = """{
  "spaces": [{"id": "X", "outcomes": ["a", "b"]}],
  "gambles": [
    {"id": "ia", "space": "X", "values": {"a": "1", "b": "0"}},
    {"id": "ib", "space": "X", "values": {"a": "0", "b": "1"}}
  ],
  "events": [],
  "assessments": [
    {"gamble": "ia", "event": "ALL", "lower": "2/3", "linear": false},
    {"gamble": "ib", "event": "ALL", "lower": "2/3", "linear": false}
  ],
  "families": []
}
"""


@pytest.fixture
def credal_path(tmp_path):
    path = tmp_path / "credal.json"
    path.write_text(CREDAL, encoding="utf-8")
    return str(path)


@pytest.fixture
def sure_loss_path(tmp_path):
    path = tmp_path / "sureloss.json"
    path.write_text(SURE_LOSS, encoding="utf-8")
    return str(path)


class TestRationalStrings:
    def test_canonical_accepted(self):
        assert parse_ratio("-1/2", "t") == (-1, 2)
        assert parse_ratio("3", "t") == (3, 1)
        assert parse_ratio("0", "t") == (0, 1)

    @pytest.mark.parametrize("bad", ["2/4", "1.5", "1/0", "01", "-0", " 1", "1/-2", 3, None])
    def test_non_canonical_rejected(self, bad):
        with pytest.raises(ModelFormatError):
            parse_ratio(bad, "t")

    @pytest.mark.parametrize(
        "bad, expected",
        [("-0", "0"), ("0/1", "0"), ("-0/5", "0"), ("3/1", "3"), ("-6/4", "-3/2"), ("2/4", "1/2")],
    )
    def test_not_in_lowest_terms_names_the_canonical_form(self, bad, expected):
        with pytest.raises(ModelFormatError) as err:
            parse_ratio(bad, "t")
        assert err.type is ModelFormatError
        assert str(err.value) == f"t: {bad!r} is not in lowest terms (expected {expected})"

    def test_more_digits_than_int_converts_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_ratio("1" * 5000, "t")


class TestParsing:
    def test_valid_model(self):
        model = parse_model(CREDAL)
        assert model.spaces["X"].outcomes == ("a", "b")
        prev = model.to_prevision()
        assert len(prev.assessment.entries) == 2

    def test_round_trip_is_byte_identical(self):
        canonical = serialize_model(parse_model(CREDAL))
        assert serialize_model(parse_model(canonical)) == canonical

    def test_family_keeps_the_event_id_it_lists(self):
        # e1 and e2 are equal events; the family lists e2, and so must its
        # serialization.
        doc = {
            "spaces": [{"id": "X", "outcomes": ["a", "b"]}],
            "gambles": [],
            "events": [
                {"id": "e1", "space": "X", "members": ["a"]},
                {"id": "e2", "space": "X", "members": ["a"]},
            ],
            "assessments": [],
            "families": [{"id": "F", "space": "X", "kind": "custom", "events": ["e2"]}],
        }
        text = json.dumps(doc, indent=2) + "\n"
        assert serialize_model(parse_model(text)) == text

    def test_model_filled_through_its_fields_serialises_them(self):
        # Declaration order is the dicts' insertion order, with no second
        # record of it that a caller must keep in step.
        model = Model()
        x = Space("X", ("a", "b"))
        model.spaces["X"] = x
        model.gambles["g"] = x.gamble(["1/2", "-3"])
        model.events["e"] = x.event(["b"])
        model.families["F"] = EventFamily.custom(x, [model.events["e"]])
        model.family_event_ids["F"] = ["e"]
        doc = json.loads(serialize_model(model))
        assert doc["spaces"] == [{"id": "X", "outcomes": ["a", "b"]}]
        assert doc["gambles"] == [{"id": "g", "space": "X", "values": {"a": "1/2", "b": "-3"}}]
        assert doc["events"] == [{"id": "e", "space": "X", "members": ["b"]}]
        assert doc["families"] == [{"id": "F", "space": "X", "kind": "custom", "events": ["e"]}]
        text = serialize_model(model)
        assert serialize_model(parse_model(text)) == text

    def test_custom_family_without_event_ids_named_in_the_error(self):
        model = Model()
        x = Space("X", ("a", "b"))
        model.spaces["X"] = x
        model.families["F"] = EventFamily.custom(x, [x.event(["a"])])
        with pytest.raises(ModelFormatError, match="'F'"):
            serialize_model(model)

    def test_dangling_gamble_reference(self):
        doc = json.loads(CREDAL)
        doc["assessments"][0]["gamble"] = "missing"
        with pytest.raises(ModelFormatError):
            parse_model(json.dumps(doc))

    def test_duplicate_space_id(self):
        doc = json.loads(CREDAL)
        doc["spaces"].append({"id": "X", "outcomes": ["q"]})
        with pytest.raises(ModelFormatError):
            parse_model(json.dumps(doc))

    def test_numbers_rejected_for_rationals(self):
        doc = json.loads(CREDAL)
        doc["assessments"][0]["lower"] = 0.25
        with pytest.raises(ModelFormatError):
            parse_model(json.dumps(doc))

    def test_empty_conditioning_event_rejected(self):
        doc = json.loads(CREDAL)
        doc["events"].append({"id": "none", "space": "X", "members": []})
        doc["assessments"][0]["event"] = "none"
        with pytest.raises(ModelFormatError):
            parse_model(json.dumps(doc))

    def test_unknown_keys_rejected(self):
        doc = json.loads(CREDAL)
        doc["extra"] = 1
        with pytest.raises(ModelFormatError):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "section, entry",
        [
            ("events", {"id": "ALL", "space": "X", "members": ["a"]}),
            ("families", {"id": "atoms", "space": "X", "kind": "custom", "events": ["just_a"]}),
            ("families", {"id": "all", "space": "X", "kind": "custom", "events": ["just_a"]}),
            ("families", {"id": "empty", "space": "X", "kind": "atoms"}),
        ],
        ids=["ALL", "atoms", "all", "empty"],
    )
    def test_reserved_ids_rejected(self, section, entry, tmp_path, capsys):
        """"ALL" names the whole space and "atoms", "all" and "empty" the
        builtin families, so a declaration under those ids would be
        ignored wherever it is referenced."""
        doc = json.loads(CREDAL)
        doc[section].append(entry)
        text = json.dumps(doc)
        with pytest.raises(ModelFormatError, match=f"id '{entry['id']}' is reserved"):
            parse_model(text)
        path = tmp_path / "reserved.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", "-m", str(path)]) == 3
        assert f"'{entry['id']}'" in capsys.readouterr().err


# -- exact error text -------------------------------------------------------

# Every raise site of ``parse_model``, each reached by one edit of this
# document: "X" is the assessment space, "Y" a second one.
_BASE = {
    "spaces": [{"id": "X", "outcomes": ["a", "b"]}, {"id": "Y", "outcomes": ["c"]}],
    "gambles": [{"id": "g", "space": "X", "values": {"a": "1/2", "b": "-1"}}],
    "events": [
        {"id": "e", "space": "X", "members": ["a"]},
        {"id": "none", "space": "X", "members": []},
        {"id": "y", "space": "Y", "members": ["c"]},
    ],
    "assessments": [{"gamble": "g", "event": "e", "lower": "0", "linear": False}],
    "families": [{"id": "F", "space": "X", "kind": "custom", "events": ["e"]}],
}


def _set(*path_and_value):
    """An edit that sets the position at ``path`` to ``value``."""
    *path, value = path_and_value

    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


def _drop(*path):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return edit


def _add(section, entry):
    return lambda doc: doc[section].append(entry)


_TOO_LONG = "1" * 5000


def _int_error(text):
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    return None


_MESSAGES = [
    ("model-not-object", lambda doc: doc.clear(), "[]", "model must be a JSON object"),
    ("model-unknown-key", _set("extra", 1), None, "model: unknown keys ['extra']"),
    ("model-section-type", _set("spaces", {}), None, "model: key 'spaces' has the wrong type"),
    # spaces
    ("space-not-object", _set("spaces", 0, 1), None, "spaces entry must be a JSON object"),
    ("space-unknown-key", _set("spaces", 0, "name", "X"), None, "spaces entry: unknown keys ['name']"),
    ("space-no-id", _drop("spaces", 0, "id"), None, "spaces entry: missing key 'id'"),
    ("space-outcomes-type", _set("spaces", 0, "outcomes", "ab"), None,
     "spaces entry: key 'outcomes' has the wrong type"),
    ("space-duplicate", _set("spaces", 1, "id", "X"), None, "duplicate space id 'X'"),
    ("space-outcome-not-string", _set("spaces", 0, "outcomes", [1, "b"]), None,
     "space 'X': outcomes must be strings"),
    ("space-no-outcomes", _set("spaces", 0, "outcomes", []), None,
     "space 'X': a possibility space needs at least one outcome"),
    ("space-repeated-outcome", _set("spaces", 0, "outcomes", ["a", "a"]), None,
     "space 'X': duplicate outcomes in space 'X'"),
    # gambles
    ("gamble-not-object", _set("gambles", 0, []), None, "gambles entry must be a JSON object"),
    ("gamble-no-id", _drop("gambles", 0, "id"), None, "gambles entry: missing key 'id'"),
    ("gamble-duplicate", _add("gambles", {"id": "g", "space": "X", "values": {"a": "0", "b": "0"}}),
     None, "duplicate gamble id 'g'"),
    ("gamble-no-space", _drop("gambles", 0, "space"), None, "gamble 'g': missing key 'space'"),
    ("gamble-unknown-space", _set("gambles", 0, "space", "Z"), None, "gamble 'g': unknown space id 'Z'"),
    ("gamble-values-type", _set("gambles", 0, "values", ["1", "2"]), None,
     "gamble 'g': key 'values' has the wrong type"),
    ("value-not-lowest", _set("gambles", 0, "values", "a", "2/4"), None,
     "gamble 'g' value at 'a': '2/4' is not in lowest terms (expected 1/2)"),
    ("value-number", _set("gambles", 0, "values", "b", 0.5), None,
     "gamble 'g' value at 'b': rational values must be canonical strings, got 0.5"),
    ("value-null", _set("gambles", 0, "values", "b", None), None,
     "gamble 'g' value at 'b': rational values must be canonical strings, got None"),
    ("value-list", _set("gambles", 0, "values", "b", ["1"]), None,
     "gamble 'g' value at 'b': rational values must be canonical strings, got ['1']"),
    ("value-dict", _set("gambles", 0, "values", "b", {"p": "1"}), None,
     "gamble 'g' value at 'b': rational values must be canonical strings, got {'p': '1'}"),
    ("value-spaced", _set("gambles", 0, "values", "b", " 1"), None,
     "gamble 'g' value at 'b': rational values must be canonical strings, got ' 1'"),
    ("value-too-long", _set("gambles", 0, "values", "b", _TOO_LONG), None,
     f"gamble 'g' value at 'b': {_int_error(_TOO_LONG)}"),
    ("two-bad-values", _set("gambles", 0, "values", {"a": "-0", "b": "3/1"}), None,
     "gamble 'g' value at 'a': '-0' is not in lowest terms (expected 0)"),
    ("two-bad-values-in-file-order", _set("gambles", 0, "values", {"b": "3/1", "a": "-0"}), None,
     "gamble 'g' value at 'b': '3/1' is not in lowest terms (expected 3)"),
    ("repeat-after-canonical", _set("gambles", 0, "values", "b", "2/4"), None,
     "gamble 'g' value at 'b': '2/4' is not in lowest terms (expected 1/2)"),
    ("repeat-in-a-later-gamble",
     _add("gambles", {"id": "h", "space": "X", "values": {"a": "-1", "b": "-2/2"}}), None,
     "gamble 'h' value at 'b': '-2/2' is not in lowest terms (expected -1)"),
    ("value-missing-outcome", _drop("gambles", 0, "values", "b"), None,
     "gamble 'g': gamble is missing outcomes ['b'] of space 'X'"),
    ("value-unknown-outcome", _set("gambles", 0, "values", "z", "1"), None,
     "gamble 'g': gamble assigns unknown outcomes ['z']"),
    # events
    ("event-not-object", _set("events", 0, "e"), None, "events entry must be a JSON object"),
    ("event-no-id", _drop("events", 0, "id"), None, "events entry: missing key 'id'"),
    ("event-reserved", _set("events", 0, "id", "ALL"), None,
     "event id 'ALL' is reserved for the whole space"),
    ("event-duplicate", _set("events", 1, "id", "e"), None, "duplicate event id 'e'"),
    ("event-unknown-space", _set("events", 0, "space", "Z"), None, "event 'e': unknown space id 'Z'"),
    ("event-members-type", _set("events", 0, "members", "a"), None,
     "event 'e': key 'members' has the wrong type"),
    ("event-member-not-string", _set("events", 0, "members", [0]), None,
     "event 'e': members must be strings"),
    ("event-unknown-member", _set("events", 0, "members", ["a", "z"]), None,
     "event 'e': event members ['z'] not in space 'X'"),
    # assessments
    ("entry-not-object", _set("assessments", 0, None), None, "assessments[0] must be a JSON object"),
    ("entry-unknown-key", _set("assessments", 0, "upper", "1"), None,
     "assessments[0]: unknown keys ['upper']"),
    ("entry-unknown-gamble", _set("assessments", 0, "gamble", "h"), None,
     "assessments[0]: unknown gamble id 'h'"),
    ("entry-no-event", _drop("assessments", 0, "event"), None, "assessments[0]: missing key 'event'"),
    ("entry-unknown-event", _set("assessments", 0, "event", "z"), None,
     "assessments[0]: unknown event id 'z'"),
    ("entry-other-space", _set("assessments", 0, "event", "y"), None,
     "assessments[0]: event and gamble are on different spaces"),
    ("entry-empty-event", _set("assessments", 0, "event", "none"), None,
     "assessments[0]: conditioning event is empty"),
    ("entry-no-lower", _drop("assessments", 0, "lower"), None, "assessments[0]: missing key 'lower'"),
    ("entry-lower-number", _set("assessments", 0, "lower", 0.25), None,
     "assessments[0]: key 'lower' has the wrong type"),
    ("entry-lower-not-canonical", _set("assessments", 0, "lower", "0.25"), None,
     "assessments[0]: rational values must be canonical strings, got '0.25'"),
    ("entry-lower-repeats-a-value", _set("assessments", 0, "lower", "2/4"), None,
     "assessments[0]: '2/4' is not in lowest terms (expected 1/2)"),
    ("entry-linear-type", _set("assessments", 0, "linear", "no"), None,
     "assessments[0]: key 'linear' has the wrong type"),
    # families
    ("family-not-object", _set("families", 0, "F"), None, "families entry must be a JSON object"),
    ("family-reserved", _set("families", 0, "id", "atoms"), None,
     "family id 'atoms' is reserved for the builtin family"),
    ("family-duplicate", _add("families", {"id": "F", "space": "X", "kind": "atoms"}), None,
     "duplicate family id 'F'"),
    ("family-unknown-space", _set("families", 0, "space", "Z"), None,
     "family 'F': unknown space id 'Z'"),
    ("family-no-kind", _drop("families", 0, "kind"), None, "family 'F': missing key 'kind'"),
    ("family-kind", _set("families", 0, "kind", "some"), None,
     "family 'F': kind must be atoms, all, or custom"),
    ("family-events-type", _set("families", 0, "events", "e"), None,
     "family 'F': key 'events' has the wrong type"),
    ("family-custom-without-events", _drop("families", 0, "events"), None,
     "family 'F': custom families list their events"),
    ("family-unknown-event", _set("families", 0, "events", ["e", 3]), None,
     "family 'F': unknown event id 3"),
    ("family-event-other-space", _set("families", 0, "events", ["y"]), None,
     "family 'F': family event on a different space"),
    ("family-builtin-with-events", _set("families", 0, "kind", "atoms"), None,
     "family 'F': only custom families list events"),
]


class TestErrorMessages:
    """The exact text of every ``ModelFormatError`` that ``parse_model``
    and ``parse_ratio`` raise: the CLI prints it after "model error: " and
    exits 3."""

    def test_the_base_document_parses(self):
        model = parse_model(json.dumps(_BASE))
        assert model.to_prevision().assessment.entries[0].lower == 0

    @pytest.mark.parametrize(
        "edit, text, expected", [case[1:] for case in _MESSAGES], ids=[case[0] for case in _MESSAGES]
    )
    def test_each_raise_site(self, edit, text, expected):
        doc = json.loads(json.dumps(_BASE))
        edit(doc)
        with pytest.raises(ModelFormatError) as err:
            parse_model(json.dumps(doc) if text is None else text)
        assert err.type is ModelFormatError
        assert str(err.value) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
            ('{"spaces": [}', "invalid JSON: Expecting value: line 1 column 13 (char 12)"),
        ],
    )
    def test_invalid_json(self, text, expected):
        with pytest.raises(ModelFormatError) as err:
            parse_model(text)
        assert str(err.value) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            (3, "t: rational values must be canonical strings, got 3"),
            ([1], "t: rational values must be canonical strings, got [1]"),
            ("1/0", "t: rational values must be canonical strings, got '1/0'"),
            ("01", "t: rational values must be canonical strings, got '01'"),
            ("1/-2", "t: rational values must be canonical strings, got '1/-2'"),
            (_TOO_LONG, f"t: {_int_error(_TOO_LONG)}"),
            ("1/" + _TOO_LONG, f"t: {_int_error(_TOO_LONG)}"),
        ],
        ids=["int", "list", "zero-den", "leading-zero", "negative-den", "long-num", "long-den"],
    )
    def test_parse_ratio_refuses_a_non_canonical_string(self, text, expected):
        """The lowest-terms messages are pinned in ``TestRationalStrings``."""
        with pytest.raises(ModelFormatError) as err:
            parse_ratio(text, "t")
        assert err.type is ModelFormatError
        assert str(err.value) == expected

    def test_the_cli_prints_the_message_and_exits_3(self, tmp_path, capsys):
        doc = json.loads(json.dumps(_BASE))
        doc["gambles"][0]["values"]["b"] = "2/4"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "-m", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "model error: gamble 'g' value at 'b': '2/4' is not in lowest terms (expected 1/2)\n"


# Keys and scalars of the model-file schema, so that fuzzed documents reach
# past the top-level checks.
_KEYS = ["spaces", "gambles", "events", "assessments", "families", "id", "outcomes", "space",
         "values", "members", "gamble", "event", "lower", "linear", "kind", "X", "a", "b"]
_SCALARS = st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(
    ["X", "a", "b", "ia", "just_a", "F", "ALL", "atoms", "all", "custom", "1/4", "2/4", "1/0", ""]
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=16,
)


def _paths(node, prefix=()):
    """Every position in a JSON document, as the keys and indices leading to it."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


_CREDAL_PATHS = list(_paths(json.loads(CREDAL)))[1:]


def _parses_or_rejects(text: str) -> None:
    try:
        parse_model(text)
    except ModelFormatError:
        pass


@st.composite
def _canonical_documents(draw):
    """A well-formed model file, written as ``serialize_model`` writes it."""
    rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)).map(str)
    names = st.text(alphabet="abxyz", min_size=1, max_size=3)
    spaces = [
        {"id": f"S{k}", "outcomes": draw(st.lists(names, min_size=1, max_size=4, unique=True))}
        for k in range(draw(st.integers(1, 2)))
    ]
    gambles = []
    for k in range(draw(st.integers(0, 3))):
        space = draw(st.sampled_from(spaces))
        values = {x: draw(rational) for x in space["outcomes"]}
        gambles.append({"id": f"g{k}", "space": space["id"], "values": values})
    events = []
    for k in range(draw(st.integers(0, 3))):
        space = draw(st.sampled_from(spaces))
        members = [x for x in space["outcomes"] if draw(st.booleans())]
        events.append({"id": f"e{k}", "space": space["id"], "members": members})

    def conditioning(space_id):
        return [e["id"] for e in events if e["space"] == space_id and e["members"]]

    assessments = [
        {
            "gamble": g["id"],
            "event": draw(st.sampled_from(["ALL", *conditioning(g["space"])])),
            "lower": draw(rational),
            "linear": draw(st.booleans()),
        }
        for g in (draw(st.lists(st.sampled_from(gambles), max_size=3)) if gambles else [])
    ]
    families = []
    for k in range(draw(st.integers(0, 2))):
        space = draw(st.sampled_from(spaces))
        family = {"id": f"F{k}", "space": space["id"], "kind": draw(st.sampled_from(["atoms", "all", "custom"]))}
        if family["kind"] == "custom":
            options = conditioning(space["id"])
            family["events"] = draw(st.lists(st.sampled_from(options), max_size=2)) if options else []
        families.append(family)
    doc = {"spaces": spaces, "gambles": gambles, "events": events, "assessments": assessments, "families": families}
    return json.dumps(doc, indent=2) + "\n"


class TestParsingFuzz:
    """Malformed input may only ever raise ``ModelFormatError`` (exit 3),
    and canonical files round-trip byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_arbitrary_text(self, text):
        _parses_or_rejects(text)

    @settings(max_examples=200, deadline=None)
    @given(_JSON)
    def test_arbitrary_json(self, doc):
        _parses_or_rejects(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_CREDAL_PATHS), _JSON)
    def test_one_position_of_a_valid_model_replaced(self, path, value):
        doc = json.loads(CREDAL)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        _parses_or_rejects(json.dumps(doc))

    @settings(max_examples=200, deadline=None)
    @given(_canonical_documents())
    def test_canonical_documents_round_trip(self, text):
        assert serialize_model(parse_model(text)) == text


class TestParsingDifferential:
    """A parsed file agrees with the ``Gamble`` algebra: each gamble is
    ``space.gamble`` of its values, and each cone generator is the entry's
    [f - v] * I_B, built here with ``Gamble`` operations as the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(_canonical_documents())
    def test_rows_and_generators(self, text):
        doc = json.loads(text)
        model = parse_model(text)
        for g in doc["gambles"]:
            space = model.spaces[g["space"]]
            assert model.gambles[g["id"]] == space.gamble({x: Fraction(v) for x, v in g["values"].items()})
        # The same values in reverse outcome order give the same gambles.
        for g in doc["gambles"]:
            g["values"] = dict(reversed(g["values"].items()))
        assert parse_model(json.dumps(doc)).gambles == model.gambles
        try:
            prev = model.to_prevision()
        except (ModelFormatError, ValueError):  # entries on two spaces, or two values for one pair
            return
        oracle = []
        for e in prev.assessment.entries:
            generator = (e.gamble - e.lower) * indicator(e.event)
            oracle += [generator, -generator] if e.linear else [generator]
        assert prev.cone.generators == tuple(oracle)
        assert prev.cone.scaled_rows == DesirableCone(prev.space, tuple(oracle)).scaled_rows


class TestCheckCommand:
    def test_coherent_model(self, credal_path, capsys):
        assert main(["check", "-m", credal_path]) == 0
        assert capsys.readouterr().out == "coherent\n"

    def test_sure_loss_model(self, sure_loss_path, capsys):
        assert main(["check", "-m", sure_loss_path]) == 2
        out = capsys.readouterr().out
        assert out.startswith("violation (sure-loss)")
        assert "sup" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["check", "-m", str(path)]) == 3

    def test_dangling_reference_exit_code(self, tmp_path):
        doc = json.loads(CREDAL)
        doc["assessments"][0]["gamble"] = "missing"
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "-m", str(path)]) == 3

    @pytest.mark.parametrize(
        "text",
        ['{"spaces": [5]}', '{"events": [null]}', '{"gambles": [[[1]]]}', "[null]"],
    )
    def test_entry_that_is_not_an_object_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "entry.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", "-m", str(path)]) == 3
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100000, '{"spaces": ' + "1" * 5000 + "}"])
    def test_json_too_deep_or_too_long_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", "-m", str(path)]) == 3
        assert capsys.readouterr().err.startswith("model error: invalid JSON")

    def test_json_output(self, credal_path, capsys):
        assert main(["check", "-m", credal_path, "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"verdict": "coherent", "exit_code": 0}


class TestNatexCommand:
    def test_assessed_value_echoed(self, credal_path, capsys):
        assert main(["natex", "-m", credal_path, "--gamble", "ia"]) == 0
        assert capsys.readouterr().out == "1/4\n"

    def test_vacuous_model_is_coherent_and_queries_give_minima(self, tmp_path, capsys):
        doc = {
            "spaces": [{"id": "X", "outcomes": ["a", "b"]}],
            "gambles": [{"id": "f", "space": "X", "values": {"a": "3", "b": "-1"}}],
            "events": [],
            "assessments": [],
            "families": [],
        }
        path = tmp_path / "vacuous.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "-m", str(path)]) == 0
        assert capsys.readouterr().out == "coherent\n"
        assert main(["natex", "-m", str(path), "--gamble", "f"]) == 0
        assert capsys.readouterr().out == "-1\n"

    def test_conditioning_beyond_support_signal(self, tmp_path, capsys):
        # P(I_a) = 1 pins all dominating mass on a; conditioning on {b} is
        # then outside every dominating pmf's support.
        doc = {
            "spaces": [{"id": "X", "outcomes": ["a", "b"]}],
            "gambles": [
                {"id": "ia", "space": "X", "values": {"a": "1", "b": "0"}},
                {"id": "ib", "space": "X", "values": {"a": "0", "b": "1"}},
            ],
            "events": [{"id": "just_b", "space": "X", "members": ["b"]}],
            "assessments": [
                {"gamble": "ia", "event": "ALL", "lower": "1", "linear": False}
            ],
            "families": [],
        }
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "-m", str(path)]) == 0
        capsys.readouterr()
        code = main(["natex", "-m", str(path), "--gamble", "ib", "--event", "just_b"])
        assert code == 2
        assert capsys.readouterr().out == "conditioning-beyond-support\n"

    def test_upper_query(self, credal_path, capsys):
        assert main(["natex", "-m", credal_path, "--gamble", "ia", "--upper"]) == 0
        assert capsys.readouterr().out == "3/4\n"

    def test_conditional_query(self, credal_path, capsys):
        assert main(["natex", "-m", credal_path, "--gamble", "ia", "--event", "just_a"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_incoherent_model_exit_two(self, sure_loss_path, capsys):
        assert main(["natex", "-m", sure_loss_path, "--gamble", "ia"]) == 2
        assert capsys.readouterr().out.splitlines()[0] == "incoherent"

    def test_unknown_gamble_exit_three(self, credal_path):
        assert main(["natex", "-m", credal_path, "--gamble", "nope"]) == 3

    def test_json_payload(self, credal_path, capsys):
        assert main(["natex", "-m", credal_path, "--gamble", "ia", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"value": "1/4", "certificate": None, "exit_code": 0}


class TestConsecutiveCalls:
    """``main`` builds its parser once per process, so one call must leave
    nothing behind that changes the next."""

    def test_parser_built_once(self, credal_path, monkeypatch, capsys):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        try:
            assert main(["check", "-m", credal_path]) == 0
            assert main(["natex", "-m", credal_path, "--gamble", "ia"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert capsys.readouterr().out == "coherent\n1/4\n"

    def test_upper_then_lower(self, credal_path, capsys):
        assert main(["natex", "-m", credal_path, "--gamble", "ia", "--upper"]) == 0
        assert main(["natex", "-m", credal_path, "--gamble", "ia"]) == 0
        assert capsys.readouterr().out == "3/4\n1/4\n"

    def test_usage_error_then_valid_check(self, credal_path, capsys):
        assert main(["check"]) == 3  # --model is missing
        assert main(["check", "-m", credal_path]) == 0
        assert capsys.readouterr().out == "coherent\n"


def _write_linear_model(tmp_path, name, space_id, masses):
    outcomes = list(masses)
    doc = {
        "spaces": [{"id": space_id, "outcomes": outcomes}],
        "gambles": [
            {
                "id": f"i{x}",
                "space": space_id,
                "values": {y: ("1" if y == x else "0") for y in outcomes},
            }
            for x in outcomes
        ],
        "events": [],
        "assessments": [
            {"gamble": f"i{x}", "event": "ALL", "lower": masses[x], "linear": True}
            for x in outcomes
        ],
        "families": [],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestIneCommand:
    def test_xor_query(self, tmp_path, capsys):
        m1 = _write_linear_model(tmp_path, "m1.json", "X1", {"0": "1/2", "1": "1/2"})
        m2 = _write_linear_model(tmp_path, "m2.json", "X2", {"0": "1/3", "1": "2/3"})
        joint = {
            "spaces": [{"id": "J", "outcomes": ["0|0", "0|1", "1|0", "1|1"]}],
            "gambles": [
                {
                    "id": "xor",
                    "space": "J",
                    "values": {"0|0": "0", "0|1": "1", "1|0": "1", "1|1": "0"},
                }
            ],
            "events": [],
            "assessments": [],
            "families": [],
        }
        jpath = tmp_path / "joint.json"
        jpath.write_text(json.dumps(joint), encoding="utf-8")
        args = [
            "ine",
            "-m", m1,
            "--model2", m2,
            "--joint", str(jpath),
            "--gamble", "xor",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out == "1/2\n"
        assert main(args + ["--upper"]) == 0
        assert capsys.readouterr().out == "1/2\n"

    def test_marginal_gamble_gets_local_value(self, tmp_path, capsys):
        m1 = _write_linear_model(tmp_path, "m1.json", "X1", {"0": "1/2", "1": "1/2"})
        m2 = _write_linear_model(tmp_path, "m2.json", "X2", {"0": "1/3", "1": "2/3"})
        joint = {
            "spaces": [{"id": "J", "outcomes": ["0|0", "0|1", "1|0", "1|1"]}],
            "gambles": [
                {
                    "id": "left0",
                    "space": "J",
                    "values": {"0|0": "1", "0|1": "1", "1|0": "0", "1|1": "0"},
                }
            ],
            "events": [],
            "assessments": [],
            "families": [],
        }
        jpath = tmp_path / "joint.json"
        jpath.write_text(json.dumps(joint), encoding="utf-8")
        assert (
            main(
                [
                    "ine",
                    "-m", m1,
                    "--model2", m2,
                    "--joint", str(jpath),
                    "--gamble", "left0",
                    "--family1", "all",
                    "--family2", "all",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == "1/2\n"

    def test_incoherent_marginal_exit_two(self, tmp_path, sure_loss_path, capsys):
        m2 = _write_linear_model(tmp_path, "m2.json", "X2", {"0": "1/3", "1": "2/3"})
        code = main(
            ["ine", "-m", sure_loss_path, "--model2", m2, "--gamble", "whatever"]
        )
        assert code == 2
        assert "incoherent" in capsys.readouterr().out


class TestMeasurableCommand:
    @staticmethod
    def _write(tmp_path):
        doc = {
            "spaces": [{"id": "S", "outcomes": ["1", "2", "3", "4"]}],
            "gambles": [
                {
                    "id": "odd",
                    "space": "S",
                    "values": {"1": "1", "2": "0", "3": "1", "4": "0"},
                }
            ],
            "events": [
                {"id": "e1", "space": "S", "members": ["1"]},
                {"id": "e2", "space": "S", "members": ["2"]},
            ],
            "assessments": [],
            "families": [
                {"id": "F", "space": "S", "kind": "custom", "events": ["e1", "e2"]}
            ],
        }
        path = tmp_path / "meas.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_measurable_and_witness(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert main(["measurable", "-m", path, "--gamble", "odd", "--family", "F"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "false"
        assert out[1] == "witness level: 1"
        assert main(["measurable", "-m", path, "--gamble", "odd", "--family", "all"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_a_split_search_past_the_bound_exits_3(self, tmp_path, capsys):
        """The staircase's level set is 25 of 26 outcomes under the family
        of every pair: no cover, and more remainders than the search
        keeps."""
        outcomes = [f"s{i}" for i in range(26)]
        pairs = list(itertools.combinations(outcomes, 2))
        doc = {
            "spaces": [{"id": "S", "outcomes": outcomes}],
            "gambles": [{"id": "g", "space": "S", "values": {x: str(int(x != "s25")) for x in outcomes}}],
            "events": [{"id": f"p{k}", "space": "S", "members": list(p)} for k, p in enumerate(pairs)],
            "assessments": [],
            "families": [
                {"id": "P", "space": "S", "kind": "custom", "events": [f"p{k}" for k in range(len(pairs))]}
            ],
        }
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["measurable", "-m", str(path), "--gamble", "g", "--family", "P", "--levels", "2"]) == 3
        assert "2^16 remainders" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_refused_at_parse_time(self, tmp_path, capsys, levels):
        """``--levels 0`` used to skip the staircase silently and exit 0."""
        path = self._write(tmp_path)
        argv = ["measurable", "-m", path, "--gamble", "odd", "--family", "all", "--levels", levels]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "--levels" in captured.err


class TestSuiteCommand:
    def test_trials_below_one_refused_naming_the_flag(self, capsys):
        assert main(["suite", "--suite", "axioms", "--trials", "0"]) == 3
        err = capsys.readouterr().err
        assert "--trials" in err and "positive integer" in err

    def test_suite_runs_green(self, capsys):
        assert main(["suite", "--suite", "envelope", "--seed", "5", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS envelope-attainment-lower" in out

    def test_factorisation_suite_reports_gap(self, capsys):
        assert main(["suite", "--suite", "factorisation", "--seed", "5", "--trials", "3"]) == 0
        assert "expected-gap: confirmed" in capsys.readouterr().out

    def test_identical_invocations_identical_bytes(self, capsys):
        args = ["suite", "--suite", "axioms", "--seed", "9", "--trials", "4", "--output", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestDeterminism:
    def test_natex_output_bytes_stable(self, credal_path, capsys):
        args = ["natex", "-m", credal_path, "--gamble", "ib", "--output", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

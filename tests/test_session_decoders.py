"""Session documents are decoded by orjson alone, behind one nesting bound.

``jsondoc.decode`` reads how deep a document nests off its bytes
(:func:`nesting`) before any decoder runs, and rejects one nested deeper
than ``MAX_DEPTH``: so a file's outcome does not hang on the caller's
stack, and no decoder overruns the C stack. The inputs orjson reads
otherwise than json did each have one outcome, pinned here.
"""

import json
import re
import warnings
from functools import partial

import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpindex.errors import EngineError, SchemaError, SessionSyntaxError, ValidationError
from gpindex.jsondoc import MAX_DEPTH, decode, nesting
from gpindex.report import serialize_session
from gpindex.telemetry import parse_session
from tests.test_telemetry import make_doc, to_bytes


def _outcome(data):
    """The bytes ``parse_session`` makes of ``data``, or its error, and the unknown keys it
    listed; a warning of any kind fails the test."""
    unknown = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            session = parse_session(data, unknown)
        except EngineError as exc:
            result = type(exc), str(exc)
        else:
            result = serialize_session(session)
    return result, unknown


def _doc_bytes(events=None, **top):
    doc = make_doc(**top)
    doc["events"].update(events or {})
    return to_bytes(doc)


def _nested(depth):
    return "[" * depth + "]" * depth


# A session with every optional field and stream, one row each.
_FULL = make_doc(
    device={
        "device_id": "phone1", "battery_capacity_mah": 4500, "display_ppi": 510.5,
        "display_resolution": [1440, 3200],
    },
    events={
        "launch": [0, 8200], "frames": [0, 16, 33], "battery": [[0, 100.0]],
        "temperature": [[0, 28.0, "soc"]], "touch": [[0, 55.3]], "scene_loads": [[0, 900]],
    },
)


def _full_with(path, literal):
    """The bytes of ``_FULL`` with the value at ``path`` (``events.touch[0][1]``) written as
    ``literal``."""
    *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
    doc = json.loads(json.dumps(_FULL))
    node = doc
    for key in keys:
        node = node[key]
    node[last] = "@"
    return to_bytes(doc).replace(b'"@"', literal.encode())


_VALID = _doc_bytes()
_GAME = b'"game": {'
_TOO_DEEP = (SessionSyntaxError, f"malformed session document: nested deeper than {MAX_DEPTH} levels")


def _under_unknown_key(levels):
    """The valid document with ``levels`` nested arrays under the unknown top-level key "x"."""
    return _VALID.replace(_GAME, f'"x": {_nested(levels)}, "game": {{'.encode())


def _depth(value):
    """How deep a decoded JSON value nests: a scalar 0, an array or object one more than its items."""
    if isinstance(value, list):
        return 1 + max(map(_depth, value), default=0)
    if isinstance(value, dict):
        return 1 + max(map(_depth, value.values()), default=0)
    return 0


def _at_stack_depth(frames, fn):
    """``fn()``, called ``frames`` Python frames below this one."""
    return fn() if frames == 0 else _at_stack_depth(frames - 1, fn)


# Strings that hold what the scan must see through: quotes and backslashes
# (escaped by json), brackets, "/" (which may be escaped), control characters
# (written as \u escapes), a lone surrogate and non-ASCII text.
_text = st.text(st.sampled_from('"\\[]{}/ a\x00\n\x1féü東😀\ud800'), max_size=6) | st.text(max_size=4)
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _documents(draw):
    """JSON text of a drawn value, wrapped in up to 80 arrays and objects, as json writes it."""
    value = draw(_values)
    for _ in range(draw(st.integers(0, 80))):
        value = [value] if draw(st.booleans()) else {draw(_text): value}
    text = json.dumps(value, ensure_ascii=draw(st.booleans()), indent=draw(st.none() | st.just(1)))
    if draw(st.booleans()):
        text = text.replace("/", "\\/")  # "/" stands only in strings, where "\/" is its escape
    return text


class TestNestingScan:
    @settings(max_examples=300, deadline=None)
    @given(_documents())
    @example('["\\\\", ["]"], {"\\"[": [[]]}]')
    @example('"\\\\\\"[[["')
    @example(_nested(MAX_DEPTH + 1))
    def test_scan_equals_decoded_depth(self, text):
        assert nesting(text.encode("utf-8", "surrogatepass")) == _depth(json.loads(text))

    def test_scan_of_a_scalar_or_nothing(self):
        assert [nesting(data) for data in (b"", b"5", b'"[{"')] == [0, 0, 0]

    @pytest.mark.parametrize(
        "data,depth",
        [
            (b"[]", 1),
            (b"{}", 1),
            (b"[[], [[]], {}]", 3),
            (b'{"a": {"b": [1]}}', 3),
            (b'[\n [\n  {}\n ]\n]', 3),
            # Brackets in strings, keys and values alike, are text.
            (b'["[[[", "]]]"]', 1),
            (b'{"[{": "}]"}', 1),
            # An escaped quote does not end its string; an escaped backslash before a
            # quote leaves the quote to end it.
            (b'["\\"[["]', 1),
            (b'["\\\\", [1]]', 2),
            (b'["\\\\\\"[", []]', 2),
            # A \u escape of a bracket or quote is text, as is non-ASCII text.
            (b'["\\u005b\\u007b"]', 1),
            (b'["\\u0022[", [[]]]', 3),
            ('["東[", {"é": []}]'.encode(), 3),
        ],
        ids=lambda v: v.decode() if isinstance(v, bytes) else None,
    )
    def test_scan_of(self, data, depth):
        assert nesting(data) == depth == _depth(json.loads(data))

    # Not JSON: the scan still counts the brackets outside quotes, up to the point
    # where a decoder fails; no other byte, UTF-8 or not, counts.
    @pytest.mark.parametrize(
        "data,depth",
        [
            (b'{"a": [[', 3),
            (b'[1, "]]]', 1),
            (b"[1]]]]", 1),
            (b'[1, "a\\"]', 1),
            (b"\xff[[[\xfe\x80", 3),
        ],
        ids=lambda v: v.decode("latin-1") if isinstance(v, bytes) else None,
    )
    def test_scan_of_text_that_is_not_json(self, data, depth):
        assert nesting(data) == depth


class TestNestingBound:
    # A file's outcome once hung on the caller's stack: the demo session with
    # 700 to 990 levels under an unknown key was valid at the top of the stack
    # and a SessionSyntaxError 300 frames down.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 1100))
    @example(MAX_DEPTH - 1)  # the document nests MAX_DEPTH deep
    @example(MAX_DEPTH)
    @example(MAX_DEPTH + 1)
    @example(984)
    @example(990)
    def test_same_outcome_at_any_stack_depth(self, levels):
        data = _under_unknown_key(levels)
        top = _outcome(data)
        assert _at_stack_depth(300, partial(_outcome, data)) == top
        if levels < MAX_DEPTH:
            assert top[1] == ["x"]
        else:
            assert top == (_TOO_DEEP, [])

    # Within the bound, decode is the decoder's own reading of the bytes; past it, the
    # bound's error, for json (configs, manifests) and orjson (sessions) alike.
    @pytest.mark.parametrize("fast", [False, True], ids=["json", "orjson"])
    @settings(max_examples=150, deadline=None)
    @given(text=_documents())
    def test_decode_is_the_decoder_behind_the_bound(self, fast, text):
        data = text.encode("utf-8", "surrogatepass")
        try:
            got = decode(data, SchemaError, "doc", fast=fast)
        except SchemaError as exc:
            got = str(exc)
        if _depth(json.loads(text)) > MAX_DEPTH:
            assert got == f"malformed doc: nested deeper than {MAX_DEPTH} levels"
            return
        try:
            want = orjson.loads(data) if fast else json.loads(data.decode("utf-8"))
        except ValueError:  # bad UTF-8 (a lone surrogate written raw), or not JSON to orjson
            assert got.startswith(("malformed doc: ", "doc is not valid UTF-8: "))
        else:
            assert got == want

    # orjson alone decodes 100,000 levels and overruns the C stack at 200,000.
    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 200_000])
    def test_deep_document_is_rejected_before_decoding(self, depth):
        assert _outcome(_nested(depth).encode()) == (_TOO_DEEP, [])

    def test_deep_frames_array(self):
        data = _VALID.replace(b"[0, 16]", f"[0, 16, {_nested(2000)}]".encode())
        assert _outcome(data) == (_TOO_DEEP, [])


class TestOrjsonOutcomes:
    """Inputs whose outcome moved when json stopped decoding session files."""

    @pytest.mark.parametrize(
        "data,error,message",
        [
            # orjson reads an integer literal past uint64, or below -2**63, as a
            # float: an int field names the float (json's int named the range).
            (
                _doc_bytes({"frames": [0, -(2**63) - 1]}),
                SchemaError,
                "events.frames[1]: expected integer, got float",
            ),
            (
                _VALID.replace(b'"texture_tier": 3', b'"texture_tier": -9223372036854775809'),
                SchemaError,
                "game.texture_tier: expected integer, got float",
            ),
            # Not JSON orjson reads: the NaN and Infinity literals, a number past
            # the double range, a lone surrogate escape (the readers named each).
            (
                _doc_bytes({"touch": [[0, float("nan")]]}),
                SessionSyntaxError,
                "malformed session document: unexpected character: line 1 column 230 (char 229)",
            ),
            (
                _doc_bytes({"battery": [[0, float("inf")]]}),
                SessionSyntaxError,
                "malformed session document: unexpected character: line 1 column 232 (char 231)",
            ),
            (
                _VALID.replace(b'"render_scale": 1.0', b'"render_scale": 1e400'),
                SessionSyntaxError,
                "malformed session document: number is infinity when parsed as double: "
                "line 1 column 103 (char 102)",
            ),
            (
                _VALID.replace(b'"phone1"', b'"\\ud800"'),
                SessionSyntaxError,
                "malformed session document: no matched low surrogate in string: "
                "line 1 column 54 (char 53)",
            ),
            (
                _VALID.replace(b'"phone1"', b'"ph\\udc00"'),
                SessionSyntaxError,
                "malformed session document: invalid high surrogate in string: "
                "line 1 column 50 (char 49)",
            ),
            (
                _doc_bytes({"touch": [[0, float("-inf")]]}),
                SessionSyntaxError,
                "malformed session document: no digit after minus sign: "
                "line 1 column 230 (char 229)",
            ),
            # An integer literal past the interpreter's digit limit (json: "Exceeds the limit").
            (
                _VALID.replace(b"[0, 16]", b"[0, " + b"9" * 5000 + b"]"),
                SessionSyntaxError,
                "malformed session document: number is infinity when parsed as double: "
                "line 1 column 211 (char 210)",
            ),
            # orjson keeps an integer up to 2**64 - 1 an int, as json did.
            (
                _full_with("events.touch[0][0]", str(2**64 - 1)),
                SchemaError,
                "events.touch[0][0]: integer outside the int64 range",
            ),
            # An exponent makes a float, in orjson as in json.
            (
                _VALID.replace(b"[0, 16]", b"[0, 1E2]"),
                SchemaError,
                "events.frames[1]: expected integer, got float",
            ),
            # Malformed text: the class stands, orjson words the diagnostic.
            (
                _VALID.replace(b"[0, 16]", b"[0, 16,]"),
                SessionSyntaxError,
                "malformed session document: trailing comma is not allowed: "
                "line 1 column 215 (char 214)",
            ),
            (
                _VALID.replace(b"[0, 16]", b"[0, 016]"),
                SessionSyntaxError,
                "malformed session document: number with leading zero is not allowed: "
                "line 1 column 211 (char 210)",
            ),
            (
                _VALID.replace(b"[0, 16]", b"[0, +16]"),
                SessionSyntaxError,
                "malformed session document: unexpected character: line 1 column 211 (char 210)",
            ),
            (
                _VALID.replace(b"[0, 16]", b"[0, /* x */ 16]"),
                SessionSyntaxError,
                "malformed session document: unexpected character: line 1 column 211 (char 210)",
            ),
            (
                _VALID.replace(b'"phone1"', b"'phone1'"),
                SessionSyntaxError,
                "malformed session document: unexpected character: line 1 column 47 (char 46)",
            ),
            (
                _VALID.replace(b'"phone1"', b'"ph\x01"'),
                SessionSyntaxError,
                "malformed session document: unexpected control character in string: "
                "line 1 column 50 (char 49)",
            ),
            (
                _VALID + b" x",
                SessionSyntaxError,
                "malformed session document: unexpected content after document: "
                "line 1 column 217 (char 216)",
            ),
            (
                b"",
                SessionSyntaxError,
                "malformed session document: input length is 0: line 1 column 1 (char 0)",
            ),
            (
                b" \n",
                SessionSyntaxError,
                "malformed session document: input data is empty: line 1 column 1 (char 0)",
            ),
            (
                _VALID[:-20],
                SessionSyntaxError,
                "malformed session document: unexpected end of data: line 1 column 196 (char 195)",
            ),
            (
                b"\xef\xbb\xbf" + _VALID,
                SessionSyntaxError,
                "malformed session document: byte order mark (BOM) is not supported: "
                "line 1 column 1 (char 0)",
            ),
            # Checked before any decoder: the same as ever.
            (
                _VALID.replace(b'"phone1"', b'"\xff"'),
                SessionSyntaxError,
                "session document is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                "in position 47: invalid start byte",
            ),
            # A float frame, and a real far below int64 read as its nearest float.
            (
                _doc_bytes({"frames": [0, 16.0, 32]}),
                SchemaError,
                "events.frames[1]: expected integer, got float",
            ),
            (
                _doc_bytes({"touch": [[0, -(2**63) - 1]]}),
                ValidationError,
                "negative touch latency at t=0ms",
            ),
        ],
    )
    def test_outcome(self, data, error, message):
        assert _outcome(data) == ((error, message), [])

    # Each int field and column names an integer literal below -2**63, which orjson
    # reads as a float, at its own path.
    @pytest.mark.parametrize(
        "path",
        [
            "schema_version",
            "device.battery_capacity_mah",
            "device.display_resolution[0]",
            "device.display_resolution[1]",
            "game.texture_tier",
            "game.effects_tier",
            "game.aa_tier",
            "game.dynamic_range_tier",
            "events.launch[0]",
            "events.launch[1]",
            "events.frames[1]",
            "events.battery[0][0]",
            "events.temperature[0][0]",
            "events.touch[0][0]",
            "events.scene_loads[0][0]",
            "events.scene_loads[0][1]",
        ],
    )
    def test_integer_below_int64_named_at_its_path(self, path):
        data = _full_with(path, str(-(2**63) - 1))
        assert _outcome(data) == ((SchemaError, f"{path}: expected integer, got float"), [])

    # Each real field and column reads an integer literal past uint64 as its nearest
    # float, where json kept the int; the field's own rule then judges it.
    @pytest.mark.parametrize(
        "path,outcome",
        [
            ("device.display_ppi", None),
            ("events.temperature[0][1]", None),
            ("events.touch[0][1]", None),
            ("game.render_scale", "render_scale must be in (0, 1], got 1.8446744073709552e+19"),
            ("events.battery[0][1]", "battery level out of [0, 100] at t=0ms"),
        ],
    )
    def test_integer_past_uint64_in_a_real_field(self, path, outcome):
        data = _full_with(path, str(2**64 + 1))
        if outcome is None:  # the int 2**64 + 1 would not equal the float
            assert parse_session(data) == parse_session(_full_with(path, repr(float(2**64))))
        else:
            assert _outcome(data) == ((ValidationError, outcome), [])

    # Spellings orjson reads as the canonical text does.
    @pytest.mark.parametrize(
        "written,canonical",
        [
            (_full_with("events.touch[0][1]", "1e-400"), _full_with("events.touch[0][1]", "0.0")),
            (_VALID.replace(b"[0, 16]", b"[-0, 16]"), _VALID),
            (
                _VALID.replace(b'"phone1"', b'"\\ud83c\\udfae"'),
                _VALID.replace(b"phone1", "🎮".encode()),
            ),
            (_VALID.replace(b'"phone1"', b'"\\u0070hone1"'), _VALID),
            (_VALID.replace(b'"phone1"', b'"ph\\/1"'), _VALID.replace(b"phone1", b"ph/1")),
        ],
        ids=["underflow", "minus_zero", "surrogate_pair", "letter_escape", "solidus_escape"],
    )
    def test_read_as_the_canonical_text(self, written, canonical):
        assert written != canonical and parse_session(written) == parse_session(canonical)

    # A real past uint64 reads as the nearest float, where json kept the int.
    def test_real_past_uint64_reads_as_its_float(self):
        latency = parse_session(_doc_bytes({"touch": [[0, 2**64 + 1]]})).touch[0].latency_ms
        assert latency == float(2**64) and type(latency) is float

    # The last of duplicate keys wins.
    def test_duplicate_key(self):
        data = _VALID.replace(_GAME, b'"device": {"device_id": "p2"}, "game": {')
        assert parse_session(data).device.device_id == "p2"

    # Each unknown key is listed once, in document order.
    def test_each_unknown_key_warns_once_naming_the_caller(self):
        data = _doc_bytes({"touch": [[0, 2**64]], "replay": 1}, extra_top=2)
        assert _outcome(data)[1] == ["extra_top", "events.replay"]

import json
import math
import pickle
from importlib.resources import files
from pathlib import Path

import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gpindex
from gpindex.config import EngineConfig, load_config
from gpindex.errors import (
    ConfigError,
    ModelError,
    SchemaError,
    SessionSyntaxError,
    ValidationError,
)
from gpindex import telemetry
from gpindex.indices import IndexProfile, MeasuredSession, ScoreCard, SessionScores, measure
from gpindex.jsondoc import (
    MAX_DEPTH,
    Record,
    as_int,
    as_pair,
    as_real,
    as_str,
    asdict,
    decode,
    fields,
    is_finite,
    reader,
    replace,
    require,
)
from gpindex.metrics import MetricSet
from gpindex.report import ComparisonRow, ComparisonTable, serialize_session
from gpindex.scoring import MappingCurve, SubIndexScore
from gpindex.synth import CorpusDevice, DeviceModel, load_manifest
from gpindex.telemetry import DeviceMeta, GameSettings, SessionTelemetry, parse_session
from tests.strategies import hostile_values, manifest_bytes, one_field_mutations, sessions
from tests.test_telemetry import make_doc, to_bytes


class TestReaders:
    def test_decode_names_the_document_and_raises_the_given_class(self):
        with pytest.raises(ConfigError, match="^config is not valid UTF-8"):
            decode(b'{"a": "\xff"}', ConfigError, "config")
        with pytest.raises(ModelError, match="^malformed model: "):
            decode(b"{", ModelError, "model")

    def test_require_treats_null_as_missing(self):
        with pytest.raises(SchemaError, match=r"^game\.game_id: missing required field$"):
            require({"game_id": None}, "game_id", "game")
        assert require({"x": 0}, "x", "") == 0

    @pytest.mark.parametrize("value", [2**63, 10**400, 1.0, True, -(2**63) - 1])
    def test_as_int_rejects(self, value):
        with pytest.raises(SchemaError, match=r"^f: "):
            as_int(value, "f")

    @pytest.mark.parametrize("value", [-(2**63), 2**63 - 1, 0])
    def test_as_int_takes_the_int64_range(self, value):
        assert as_int(value, "f") == value

    @pytest.mark.parametrize(
        "value,finite",
        [
            (0.5, True),
            (2**70, True),
            (10**400, False),  # an int past the float range
            (math.inf, False),
            (math.nan, False),
            (True, False),
            ("1", False),
        ],
    )
    def test_is_finite(self, value, finite):
        assert is_finite(value) is finite

    @pytest.mark.parametrize(
        "value,reason",
        [
            (math.nan, "expected finite number"),
            (-math.inf, "expected finite number"),
            (10**400, "expected finite number"),
            (True, "expected number, got bool"),
            ("1", "expected number, got str"),
        ],
    )
    def test_as_real_rejects(self, value, reason):
        with pytest.raises(SchemaError, match=f"^f: {reason}$"):
            as_real(value, "f")

    # json decodes a lone surrogate escape; no UTF-8 file can hold the string.
    @pytest.mark.parametrize("value", ["\ud800", "ok\udfff", "\udc00\ud800"])
    def test_as_str_rejects_a_lone_surrogate(self, value):
        with pytest.raises(SchemaError, match="^f: string holds a lone surrogate"):
            as_str(value, "f")
        assert as_str("\U0001f3ae é", "f") == "\U0001f3ae é"

    def test_as_real_keeps_the_value_as_given(self):
        assert type(as_real(500, "f")) is int
        assert as_real(2**70, "f") == 2**70

    def test_as_pair_reads_each_element(self):
        assert as_pair([1, 2.5], "p", as_real) == (1, 2.5)
        with pytest.raises(SchemaError, match=r"^p: expected a 2-element array$"):
            as_pair([1, 2, 3], "p", as_real)
        with pytest.raises(SchemaError, match=r"^p\[1\]: expected integer, got float$"):
            as_pair([1, 2.5], "p", as_int)


# --- decoding each kind of document ----------------------------------------
#
# Each kind of document: its loader, the class it raises, the name its
# diagnostics give it, and a valid document holding ``text`` in a string.

_DOCUMENTS = {
    "session": (
        parse_session,
        SessionSyntaxError,
        "session document",
        lambda text: to_bytes(make_doc(device={"device_id": text})),
    ),
    "config": (
        load_config,
        ConfigError,
        "config",
        lambda text: json.dumps({**_DEFAULT_CONFIG, "note": text}).encode(),
    ),
    "manifest": (
        load_manifest,
        SchemaError,
        "manifest",
        lambda text: manifest_bytes({"device_id": text}),
    ),
}


@pytest.mark.parametrize("kind", sorted(_DOCUMENTS))
class TestDecodeEachDocument:
    """Every document nests at most ``MAX_DEPTH`` deep, and text that is not a JSON document
    raises its loader's class, whichever decoder reads it."""

    def _raises(self, kind, data, message, error=None):
        load, syntax_error, what, _ = _DOCUMENTS[kind]
        error = error or syntax_error
        with pytest.raises(error) as info:
            load(data)
        assert type(info.value) is error and str(info.value) == message.format(what=what)

    def test_arrays_past_the_bound(self, kind):
        data = b"[" * (MAX_DEPTH + 1) + b"]" * (MAX_DEPTH + 1)
        self._raises(kind, data, f"malformed {{what}}: nested deeper than {MAX_DEPTH} levels")

    def test_objects_past_the_bound(self, kind):
        data = b'{"a": ' * (MAX_DEPTH + 1) + b"1" + b"}" * (MAX_DEPTH + 1)
        self._raises(kind, data, f"malformed {{what}}: nested deeper than {MAX_DEPTH} levels")

    def test_arrays_at_the_bound_are_decoded(self, kind):
        data = b"[" * MAX_DEPTH + b"]" * MAX_DEPTH
        schema_error = ConfigError if kind == "config" else SchemaError
        self._raises(kind, data, "top level: expected object, got list", schema_error)

    # A string of brackets is text: the document loads.
    def test_brackets_in_a_string_do_not_count(self, kind):
        load, _, _, document = _DOCUMENTS[kind]
        load(document("[" * 10_000))

    def test_bad_utf8_is_named_as_such(self, kind):
        _, _, what, document = _DOCUMENTS[kind]
        data = document("\x00").replace(b"\\u0000", b"\xc3")  # a lead byte, then a quote
        at = data.index(b"\xc3")
        self._raises(
            kind, data, "{what} is not valid UTF-8: 'utf-8' codec can't decode byte 0xc3 in "
            f"position {at}: invalid continuation byte",
        )

    def test_every_truncation_is_malformed(self, kind):
        load, error, what, document = _DOCUMENTS[kind]
        data = document("x")
        for end in range(len(data)):
            with pytest.raises(error, match=f"^malformed {what}: "):
                load(data[:end])

    def test_byte_order_mark_is_malformed(self, kind):
        load, error, what, document = _DOCUMENTS[kind]
        with pytest.raises(error, match=f"^malformed {what}: "):
            load(b"\xef\xbb\xbf" + document("x"))

    # A caller near the recursion limit: the decoder's RecursionError is the caller's class.
    def test_recursion_error_of_the_decoder(self, kind, monkeypatch):
        def loads(data):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(orjson if kind == "session" else json, "loads", loads)
        load, _, _, document = _DOCUMENTS[kind]
        self._raises(kind, document("x"), "malformed {what}: maximum recursion depth exceeded")


# Every field is read by its declared type: an annotation no reader takes
# fails here (or, for an event row, at import), never as a KeyError mid-read.
@pytest.mark.parametrize("record", [DeviceMeta, GameSettings, DeviceModel])
def test_every_record_field_has_a_reader(record):
    assert all(callable(reader(annotation)) for annotation in record.__annotations__.values())


# --- records ---------------------------------------------------------------

# Each record's fields, in order: the constructor's parameters and asdict's keys.
_RECORD_FIELDS = [
    (DeviceMeta, ("device_id", "battery_capacity_mah", "display_ppi", "display_resolution")),
    (GameSettings, (
        "game_id", "render_scale", "texture_tier", "effects_tier", "aa_tier", "dynamic_range_tier"
    )),
    (SessionTelemetry, (
        "schema_version", "device", "settings", "frames", "battery", "temperature", "touch",
        "scene_loads", "launch",
    )),
    (MetricSet, (
        "avg_fps", "low1_fps", "fps_stability", "drain_pct_per_hour", "peak_temp_c",
        "temp_rise_c", "launch_s", "scene_load_s", "touch_latency_ms", "gfx_points",
    )),
    (SubIndexScore, ("metric_id", "raw_value", "score")),
    (MappingCurve, ("metric_id", "breakpoints")),
    (IndexProfile, ("name", "main_weights", "sub_weights")),
    (SessionScores, ("sub_scores", "main_scores", "overall", "flags")),
    (ScoreCard, (
        "device_id", "profile_name", "sessions", "median_overall", "median_main", "flags"
    )),
    (MeasuredSession, ("device_id", "sub_scores")),
    (EngineConfig, ("curves", "profiles")),
    (ComparisonRow, (
        "rank", "device_id", "overall_exact", "overall_display", "index_display", "flags"
    )),
    (ComparisonTable, ("profile_name", "rows")),
    (DeviceModel, (
        "device_id", "base_frame_time_ms", "drain_rate_pct_per_hour", "temp_start_c",
        "temp_peak_c", "touch_latency_ms", "launch_s", "seed", "frame_jitter_sd_ms",
        "throttle_onset_s", "throttle_factor", "game_id", "render_scale", "texture_tier",
        "effects_tier", "aa_tier", "dynamic_range_tier", "display_ppi", "battery_capacity_mah",
    )),
    (CorpusDevice, ("model", "sessions", "session_duration_s")),
]


class TestRecords:
    @pytest.mark.parametrize("record,names", _RECORD_FIELDS, ids=lambda r: getattr(r, "__name__", ""))
    def test_fields_in_declaration_order(self, record, names):
        assert issubclass(record, Record)
        assert fields(record) == names

    def test_arguments_bind_by_position_or_keyword_with_defaults(self):
        meta = DeviceMeta("p", display_ppi=400.0)
        assert meta == DeviceMeta(device_id="p", display_ppi=400.0, battery_capacity_mah=None)
        assert asdict(meta) == {
            "device_id": "p", "battery_capacity_mah": None, "display_ppi": 400.0,
            "display_resolution": None,
        }
        assert repr(meta) == (
            "DeviceMeta(device_id='p', battery_capacity_mah=None, display_ppi=400.0, "
            "display_resolution=None)"
        )

    @pytest.mark.parametrize(
        "args,kwargs,message",
        [
            ((), {}, "got 0 positional, unknown or repeated [], missing ['metric_id', 'raw_value', 'score']"),
            (("m", 1.0), {}, "got 2 positional, unknown or repeated [], missing ['score']"),
            (("m", 1.0, 2.0, 3.0), {}, "got 4 positional, unknown or repeated [], missing []"),
            (("m", 1.0, 2.0), {"scores": 2.0}, "unknown or repeated ['scores'], missing []"),
            (("m", 1.0), {"raw_value": 2.0}, "unknown or repeated ['raw_value'], missing ['score']"),
        ],
    )
    def test_a_missing_or_unknown_argument_raises(self, args, kwargs, message):
        with pytest.raises(TypeError) as info:
            SubIndexScore(*args, **kwargs)
        prefix = "SubIndexScore() takes metric_id, raw_value, score, each once, by position or keyword"
        assert str(info.value).startswith(prefix) and str(info.value).endswith(message)

    def test_assignment_raises(self, reference_session):
        with pytest.raises(AttributeError, match="immutable$"):
            reference_session.frames = (0, 16)
        with pytest.raises(AttributeError, match="immutable$"):
            del reference_session.settings.game_id
        with pytest.raises(AttributeError, match="immutable$"):
            reference_session.anything = 1

    def test_replace_runs_every_check_again(self, reference_session):
        with pytest.raises(ValidationError, match=r"^frames not non-decreasing at t=10ms$"):
            replace(reference_session, frames=(0, 20, 10, 30))
        with pytest.raises(TypeError, match="'frame_intervals'"):
            replace(reference_session, frame_intervals=reference_session.frame_intervals)
        assert replace(reference_session, touch=()).touch == ()

    def test_equality_and_hash_by_field_but_not_derived_attributes(self, reference_session):
        twin = replace(reference_session)
        object.__setattr__(twin, "frame_intervals", None)
        assert twin == reference_session
        assert twin != replace(reference_session, touch=())
        assert SubIndexScore("m", 1.0, 2.0) != MeasuredSession("m", ())
        assert hash(SubIndexScore("m", 1.0, 2.0)) == hash(SubIndexScore("m", 1, 2))

    # What the forked workers of cli._ordered_map send back through their pipes.
    def test_measured_records_come_back_equal_from_pickle(self, reference_session, default_cfg):
        measured = measure(reference_session, default_cfg.curves)
        for record in (measured, measured.sub_scores[0], reference_session.settings):
            assert pickle.loads(pickle.dumps(record, -1)) == record


def test_every_event_row_column_has_a_bulk_check():
    for readers in telemetry._COLUMNS.values():
        assert all(read in telemetry._COLUMN_CHECKS for read in readers)


def test_json_is_decoded_only_in_jsondoc():
    package = Path(gpindex.__file__).parent
    decoders = sorted(p.name for p in package.glob("*.py") if "json.load" in p.read_text())
    assert decoders == ["jsondoc.py"]


# --- closed error surface ------------------------------------------------
#
# Each loader, for any input, returns a value or raises one of the
# EngineError subclasses it documents; any other exception fails the test.

_SESSION_ERRORS = (SessionSyntaxError, SchemaError, ValidationError)
_MANIFEST_ERRORS = (SchemaError, ModelError)

_DEFAULT_CONFIG = json.loads(files("gpindex.data").joinpath("default_config.json").read_bytes())
_DEMO_MANIFEST = json.loads(files("gpindex.data").joinpath("demo_manifest.json").read_bytes())
_SHORT_MANIFEST = {**_DEMO_MANIFEST, "devices": _DEMO_MANIFEST["devices"][:2]}


def _session_outcome(data):
    try:
        parse_session(data)
    except _SESSION_ERRORS as exc:
        assert type(exc) in _SESSION_ERRORS


def _config_outcome(data):
    try:
        config = load_config(data)
    except ConfigError as exc:
        assert type(exc) is ConfigError
    else:  # a config that loads hands only finite weights to scoring
        for profile in config.profiles.values():
            weights = [*profile.main_weights.values()]
            weights += [w for group in profile.sub_weights.values() for w in group.values()]
            assert all(math.isfinite(w) and w >= 0 for w in weights)


def _manifest_outcome(data):
    try:
        load_manifest(data)
    except _MANIFEST_ERRORS as exc:
        assert type(exc) in _MANIFEST_ERRORS


_OUTCOMES = [_session_outcome, _config_outcome, _manifest_outcome]

# Bytes near the JSON syntax: arbitrary bytes rarely decode at all.
_arbitrary = st.binary(max_size=64) | hostile_values.map(lambda v: json.dumps(v).encode())


class TestClosedErrorSurface:
    @pytest.mark.parametrize("outcome", _OUTCOMES, ids=["session", "config", "manifest"])
    @settings(max_examples=100, deadline=None)
    @given(data=_arbitrary)
    def test_arbitrary_bytes(self, outcome, data):
        outcome(data)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=one_field_mutations(
            sessions(max_intervals=8).map(lambda s: json.loads(serialize_session(s)))
        )
    )
    def test_one_field_mutation_of_a_session(self, data):
        _session_outcome(data)

    @settings(max_examples=150, deadline=None)
    @given(data=one_field_mutations(st.just(_DEFAULT_CONFIG)))
    def test_one_field_mutation_of_the_default_config(self, data):
        _config_outcome(data)

    @settings(max_examples=150, deadline=None)
    @given(data=one_field_mutations(st.just(_SHORT_MANIFEST)))
    def test_one_field_mutation_of_the_demo_manifest(self, data):
        _manifest_outcome(data)


def test_reference_documents_load():
    # The documents the mutations start from are themselves valid.
    load_config(json.dumps(_DEFAULT_CONFIG).encode())
    assert len(load_manifest(json.dumps(_SHORT_MANIFEST).encode())) == 2

import json
import math
import re
from collections import Counter
from functools import partial
from unittest.mock import patch

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpindex import metrics, telemetry
from gpindex.config import default_config
from gpindex.errors import (
    EmptyInputError,
    SchemaError,
    SessionSyntaxError,
    ValidationError,
)
from gpindex.indices import measure
from gpindex.jsondoc import asdict, replace
from gpindex.report import serialize_session
from gpindex.telemetry import (
    SCHEMA_VERSION,
    DeviceMeta,
    GameSettings,
    SessionTelemetry,
    UnknownKeyWarning,
    parse_session,
    validate_comparability,
)
from tests.strategies import sessions


def make_doc(**overrides):
    doc = {
        "schema_version": 1,
        "device": {"device_id": "phone1"},
        "game": {
            "game_id": "racer",
            "render_scale": 1.0,
            "texture_tier": 3,
            "effects_tier": 2,
            "aa_tier": 1,
            "dynamic_range_tier": 0,
        },
        "events": {"frames": [0, 16]},
    }
    doc.update(overrides)
    return doc


def to_bytes(doc):
    return json.dumps(doc).encode("utf-8")


def _tuples(value):
    """``value`` with each array a tuple, as a record holds it."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


# Fields built or parsed with a value their reader rejects, and its message.
_BAD_DEVICE_FIELDS = [
    ("display_resolution", (1, 2, 3), "display_resolution: expected a 2-element array"),
    ("display_resolution", "ab", "display_resolution: expected array, got str"),
    ("battery_capacity_mah", "5", "battery_capacity_mah: expected integer, got str"),
    ("display_ppi", math.inf, "display_ppi: expected finite number"),
    ("battery_capacity_mah", True, "battery_capacity_mah: expected integer, got bool"),
    ("display_resolution", (1.5, 2), "display_resolution[0]: expected integer, got float"),
    ("device_id", 5, "device_id: expected string, got int"),
    ("device_id", 0, "device_id: expected string, got int"),
    (
        "device_id",
        "\ud800",
        "device_id: string holds a lone surrogate, which UTF-8 cannot encode",
    ),
]
_BAD_GAME_FIELDS = [
    ("render_scale", "x", "render_scale: expected number, got str"),
    ("render_scale", None, "render_scale: expected number, got NoneType"),
    ("render_scale", math.nan, "render_scale: expected finite number"),
    ("game_id", 5, "game_id: expected string, got int"),
    ("texture_tier", 0.0, "texture_tier: expected integer, got float"),
    ("aa_tier", True, "aa_tier: expected integer, got bool"),
    ("dynamic_range_tier", "3", "dynamic_range_tier: expected integer, got str"),
]


def _json_exact(value):
    """Whether orjson reads ``json.dumps(value)`` back as ``value``, up to tuples as lists."""
    try:
        text = json.dumps(value)
        return value is not None and orjson.loads(text) == json.loads(text)
    except orjson.JSONDecodeError:
        return False


class TestParseSession:
    def test_minimal_session(self):
        session = parse_session(to_bytes(make_doc()))
        assert session.duration_ms == 16
        assert session.frames == (0, 16)
        assert session.device.device_id == "phone1"
        assert session.battery == ()
        assert session.launch is None

    def test_full_session(self):
        doc = make_doc()
        doc["device"].update(
            battery_capacity_mah=4500, display_ppi=510.5, display_resolution=[1440, 3200]
        )
        doc["events"] = {
            "launch": [0, 8200],
            "frames": [0, 16, 33, 50],
            "battery": [[0, 100.0], [70000, 99.5]],
            "temperature": [[0, 28.0, "soc"], [60000, 35.5, "gpu"]],
            "touch": [[2000, 55.3], [4000, 60.0]],
            "scene_loads": [[5000, 9000]],
        }
        session = parse_session(to_bytes(doc))
        assert session.launch == (0, 8200)
        assert session.battery[1].level_pct == 99.5
        assert session.temperature[1].sensor == "gpu"
        assert session.scene_loads[0].t_end_ms == 9000
        assert session.device.display_resolution == (1440, 3200)

    def test_battery_increase_rejected(self):
        doc = make_doc()
        doc["events"]["battery"] = [[0, 50.0], [41200, 60.0]]
        with pytest.raises(ValidationError, match=r"battery increased by >0.5pp at t=41200ms"):
            parse_session(to_bytes(doc))

    def test_battery_rise_within_tolerance_ok(self):
        doc = make_doc()
        doc["events"]["battery"] = [[0, 50.0], [30000, 50.5], [60000, 50.0]]
        assert len(parse_session(to_bytes(doc)).battery) == 3

    def test_malformed_document(self):
        with pytest.raises(SessionSyntaxError):
            parse_session(b"{not json")

    def test_invalid_utf8(self):
        with pytest.raises(SessionSyntaxError, match="UTF-8"):
            parse_session(b"\xff\xfe{}")

    def test_top_level_not_object(self):
        with pytest.raises(SchemaError, match="top level"):
            parse_session(b"[1, 2]")

    def test_missing_field_names_path(self):
        doc = make_doc()
        del doc["device"]["device_id"]
        with pytest.raises(SchemaError, match="device.device_id"):
            parse_session(to_bytes(doc))

    def test_mistyped_frames_names_path(self):
        doc = make_doc()
        doc["events"]["frames"] = [0, 16.5]
        with pytest.raises(SchemaError, match=r"events.frames\[1\]"):
            parse_session(to_bytes(doc))

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaError, match="schema_version"):
            parse_session(to_bytes(make_doc(schema_version=2)))

    def test_unknown_keys_warn_and_are_ignored(self):
        doc = make_doc(extra_top=1)
        doc["device"]["color"] = "blue"
        with pytest.warns(UnknownKeyWarning):
            session = parse_session(to_bytes(doc))
        assert session.frames == (0, 16)

    @pytest.mark.parametrize("section", [None, "device", "game", "events"])
    def test_unknown_key_warning_names_the_caller(self, section):
        doc = make_doc()
        (doc if section is None else doc[section])["x"] = 1
        with pytest.warns(UnknownKeyWarning) as record:
            parse_session(to_bytes(doc))
        assert [w.filename for w in record] == [__file__]

    def test_too_few_frames(self):
        doc = make_doc()
        doc["events"]["frames"] = [0]
        with pytest.raises(ValidationError, match="at least 2"):
            parse_session(to_bytes(doc))

    def test_zero_duration(self):
        doc = make_doc()
        doc["events"]["frames"] = [10, 10]
        with pytest.raises(ValidationError, match="duration"):
            parse_session(to_bytes(doc))

    def test_decreasing_frames(self):
        doc = make_doc()
        doc["events"]["frames"] = [0, 20, 10]
        with pytest.raises(ValidationError, match="non-decreasing"):
            parse_session(to_bytes(doc))

    def test_scene_load_ends_before_start(self):
        doc = make_doc()
        doc["events"]["scene_loads"] = [[9000, 5000]]
        with pytest.raises(ValidationError, match="scene_load"):
            parse_session(to_bytes(doc))

    def test_launch_first_frame_before_start(self):
        doc = make_doc()
        doc["events"]["launch"] = [500, 100]
        with pytest.raises(ValidationError, match="launch"):
            parse_session(to_bytes(doc))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("render_scale", 0.0, "render_scale"),
            ("render_scale", 1.2, "render_scale"),
            ("texture_tier", 4, "texture_tier"),
            ("aa_tier", -1, "aa_tier"),
        ],
    )
    def test_settings_invariants(self, field, value, message):
        doc = make_doc()
        doc["game"][field] = value
        with pytest.raises(ValidationError, match=message):
            parse_session(to_bytes(doc))

    # A real is echoed as written, parsed or built alike: a session file's
    # integer 2 once read as "got 2.0" while a manifest's read as "got 2".
    @pytest.mark.parametrize("value,shown", [(2, "2"), (2.0, "2.0")])
    def test_render_scale_echoed_as_written(self, value, shown):
        message = f"^{re.escape(f'render_scale must be in (0, 1], got {shown}')}$"
        doc = make_doc()
        doc["game"]["render_scale"] = value
        with pytest.raises(ValidationError, match=message):
            parse_session(to_bytes(doc))
        with pytest.raises(ValidationError, match=message):
            GameSettings("g", value, 0, 0, 0, 0)

    def test_device_invariants(self):
        doc = make_doc()
        doc["device"]["device_id"] = ""
        with pytest.raises(ValidationError, match="device_id"):
            parse_session(to_bytes(doc))
        doc = make_doc()
        doc["device"]["display_ppi"] = -10
        with pytest.raises(ValidationError, match="display_ppi"):
            parse_session(to_bytes(doc))

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("events", "touch", [[2000, -1.5]], "negative touch latency at t=2000ms"),
            ("device", "display_resolution", [0, 2400], "display_resolution must be positive"),
            ("device", "display_resolution", [1440, -1], "display_resolution must be positive"),
            ("device", "battery_capacity_mah", 0, "battery_capacity_mah must be positive"),
            ("device", "battery_capacity_mah", -4500, "battery_capacity_mah must be positive"),
            ("device", "display_ppi", 0, "display_ppi must be positive"),
            ("device", "device_id", "", "device_id must be non-empty"),
            ("game", "game_id", "", "game_id must be non-empty"),
            ("game", "render_scale", 0.0, "render_scale must be in (0, 1], got 0.0"),
            ("game", "effects_tier", 4, "effects_tier must be in 0..3, got 4"),
            ("game", "dynamic_range_tier", -1, "dynamic_range_tier must be in 0..3, got -1"),
            ("events", "battery", [[0, 100.5]], "battery level out of [0, 100] at t=0ms"),
            ("events", "battery", [[7, -0.5]], "battery level out of [0, 100] at t=7ms"),
            (
                "events", "battery", [[0, 50.0], [1, 50.75]],
                "battery increased by >0.5pp at t=1ms (charging sessions are rejected)",
            ),
            ("events", "touch", [[0, 1.0], [5, -0.25]], "negative touch latency at t=5ms"),
            (
                "events", "scene_loads", [[9000, 5000]],
                "scene_load ends before it starts at t=9000ms",
            ),
            ("events", "launch", [500, 100], "launch t_first_frame must be >= t_start"),
            ("events", "frames", [0], "frames must contain at least 2 timestamps"),
            (
                "events", "frames", [10, 10],
                "session duration (last frame - first frame) must be > 0",
            ),
            ("events", "frames", [0, 20, 10], "frames not non-decreasing at t=10ms"),
        ],
    )
    def test_file_invariants_named(self, section, key, value, message):
        doc = make_doc()
        doc[section][key] = value
        with pytest.raises(ValidationError) as info:
            parse_session(to_bytes(doc))
        assert type(info.value) is ValidationError and str(info.value) == message

    # The edge of each rule above is inside it.
    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("device", "battery_capacity_mah", 1),
            ("device", "display_ppi", 0.5),
            ("device", "display_resolution", [1, 1]),
            ("game", "render_scale", 1),
            ("game", "render_scale", 5e-324),
            ("game", "texture_tier", 0),
            ("events", "battery", [[0, 99.5], [1, 100], [2, 0]]),
            ("events", "touch", [[0, 0.0]]),
            ("events", "scene_loads", [[5, 5]]),
            ("events", "launch", [7, 7]),
        ],
    )
    def test_file_invariant_edges_accepted(self, section, key, value):
        doc = make_doc()
        doc[section][key] = value
        session = parse_session(to_bytes(doc))
        record = {"device": session.device, "game": session.settings, "events": session}[section]
        assert getattr(record, key) == _tuples(value)

    # Two faults: a row stream out of time order is named before any value
    # fault, in its own stream (battery, scene loads) or in another.
    @pytest.mark.parametrize(
        "events,message",
        [
            (
                {"battery": [[0, 101.0], [30000, 50.0], [20000, 49.0]]},
                "battery not non-decreasing in t at t=20000ms",
            ),
            ({"scene_loads": [[10, 5], [3, 8]]}, "scene_loads not non-decreasing in t at t=3ms"),
            (
                {
                    "battery": [[0, 50.0], [41200, 60.0]],
                    "temperature": [[10, 30.0, "soc"], [5, 31.0, "soc"]],
                },
                "temperature not non-decreasing in t at t=5ms",
            ),
        ],
    )
    def test_time_order_named_before_values(self, events, message):
        doc = make_doc()
        doc["events"].update(events)
        with pytest.raises(ValidationError) as info:
            parse_session(to_bytes(doc))
        assert type(info.value) is ValidationError and str(info.value) == message

    # Built directly: the first three once escaped as a bare ValueError or
    # TypeError, the rest were accepted and written to files the parser
    # rejects. The record's own field check raises the parser's SchemaError.
    @pytest.mark.parametrize("field,value,message", _BAD_DEVICE_FIELDS)
    def test_built_device_fields_checked(self, field, value, message):
        with pytest.raises(SchemaError) as info:
            DeviceMeta(**{"device_id": "x", field: value})
        assert type(info.value) is SchemaError and str(info.value) == message

    # Built directly: the first two once escaped as a bare TypeError, the
    # rest were accepted and written to files the parser rejects.
    @pytest.mark.parametrize("field,value,message", _BAD_GAME_FIELDS)
    def test_built_game_fields_checked(self, field, value, message):
        valid = {"game_id": "g", "render_scale": 1.0, "texture_tier": 0, "effects_tier": 0,
                 "aa_tier": 0, "dynamic_range_tier": 0}
        with pytest.raises(SchemaError) as info:
            GameSettings(**{**valid, field: value})
        assert type(info.value) is SchemaError and str(info.value) == message

    # Parsed, the same values are read by the same readers: the message is the
    # built one, under the section's name. (The rows left out are not JSON that
    # orjson reads, or, as null, a missing field.)
    @pytest.mark.parametrize(
        "section,field,value,message",
        [("device", *row) for row in _BAD_DEVICE_FIELDS if _json_exact(row[1])]
        + [("game", *row) for row in _BAD_GAME_FIELDS if _json_exact(row[1])],
    )
    def test_parsed_fields_checked_as_built(self, section, field, value, message):
        doc = make_doc()
        doc[section][field] = value
        with pytest.raises(SchemaError) as info:
            parse_session(to_bytes(doc))
        assert type(info.value) is SchemaError and str(info.value) == f"{section}.{message}"

    def test_null_streams_mean_absent(self):
        doc = make_doc()
        doc["events"].update(battery=None, touch=None, launch=None)
        session = parse_session(to_bytes(doc))
        assert session.battery == () and session.touch == () and session.launch is None

    def test_non_array_stream_rejected(self):
        doc = make_doc()
        doc["events"]["battery"] = False
        with pytest.raises(SchemaError, match="events.battery"):
            parse_session(to_bytes(doc))

    def test_parse_is_pure(self):
        data = to_bytes(make_doc())
        assert parse_session(data) == parse_session(data)


class TestClosedErrorSurface:
    """Inputs that once escaped as a bare exception or were scored silently."""

    # orjson rejects the NaN literal and a number past the double range, and
    # reads an integer past uint64 as a float; the readers once named each.
    @pytest.mark.parametrize(
        "events,error,message",
        [
            (
                {"temperature": [[0, float("nan"), "soc"], [1000, 30.0, "soc"]]},
                SessionSyntaxError,
                "malformed session document: unexpected character",
            ),
            (
                {"touch": [[2000, float("nan")]]},
                SessionSyntaxError,
                "malformed session document: unexpected character",
            ),
            (
                {"frames": [0, 16, 2**70]},
                SchemaError,
                "events.frames[2]: expected integer, got float",
            ),
            # From 2**53 ms on, timestamps are not all exact as floats, so
            # frame intervals taken in integers and in floats could differ.
            (
                {"frames": [0, 16, 2**53]},
                SchemaError,
                "events.frames[2]: frame timestamp outside +/-2**53 ms",
            ),
            (
                {"frames": [-(2**53), 16]},
                SchemaError,
                "events.frames[0]: frame timestamp outside +/-2**53 ms",
            ),
            # An int too large for a float next to a float frame once escaped
            # as OverflowError from the interval count.
            (
                {"frames": [0, 10**400, 0.5]},
                SessionSyntaxError,
                "malformed session document: number is infinity when parsed as double",
            ),
        ],
    )
    def test_event_values_out_of_domain(self, events, error, message):
        doc = make_doc()
        doc["events"].update(events)
        with pytest.raises(error, match=re.escape(message)):
            parse_session(to_bytes(doc))

    @pytest.mark.parametrize(
        "stream,index,value",
        [
            ("temperature", 0, math.nan),  # once a ValueError from map_metric
            ("temperature", 3, math.nan),  # once scored silently
            ("temperature", 3, math.inf),
            ("touch", 3, math.nan),
            ("touch", 0, math.inf),
        ],
    )
    def test_non_finite_value_in_built_session(self, reference_session, stream, index, value):
        rows = list(getattr(reference_session, stream))
        rows[index] = rows[index][:1] + (value,) + rows[index][2:]
        # The parser's row rule, the one rule for every build.
        message = f"{stream}[{index}][1]: expected finite number"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            replace(reference_session, **{stream: rows})

    # Once accepted, as each equals 1, and written to a file the parser rejects.
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_built_schema_version_must_be_an_int(self, reference_session, version):
        with pytest.raises(ValidationError, match=f"^schema_version must be 1, got {version}$"):
            replace(reference_session, schema_version=version)

    # A session built directly checks its frames as the parser does and names
    # a bad one as the parser's walk would, with the path "frames".
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_non_finite_frame_in_built_session(self, reference_session, value, index):
        # Once accepted, and then an IndexError from measure.
        frames = [0, 16, 32]
        frames[index] = value
        with pytest.raises(
            SchemaError, match=rf"^frames\[{index}\]: expected integer, got float$"
        ):
            replace(reference_session, frames=tuple(frames))

    def test_frames_too_far_apart_for_a_float(self, reference_session):
        # Once accepted with duration_ms == inf.
        with pytest.raises(SchemaError, match=r"^frames\[0\]: expected integer, got float$"):
            replace(reference_session, frames=(-1e308, 0.0, 1e308))

    # Each was once accepted (or a bare TypeError) although the parser
    # rejects the file serialize_session wrote for it.
    @pytest.mark.parametrize(
        "frames,message",
        [
            ((0, "16"), "frames[1]: expected integer, got str"),
            ((0, None, 5), "frames[1]: expected integer, got NoneType"),
            ((0, 16.5, 33), "frames[1]: expected integer, got float"),
            ((False, True, 5), "frames[0]: expected integer, got bool"),
            ((0, 2**53), "frames[1]: frame timestamp outside +/-2**53 ms"),
            ((-(2**70), 2**64, 2**64 + 1), "frames[0]: integer outside the int64 range"),
        ],
    )
    def test_bad_frame_in_built_session(self, reference_session, frames, message):
        with pytest.raises(SchemaError) as info:
            replace(reference_session, frames=frames)
        assert type(info.value) is SchemaError and str(info.value) == message

    # orjson rejects the Infinity literal; the reader once named the field.
    def test_infinite_display_ppi(self):
        doc = make_doc()
        doc["device"]["display_ppi"] = float("inf")
        with pytest.raises(SessionSyntaxError, match="^malformed session document: unexpected"):
            parse_session(to_bytes(doc))

    def test_frames_just_inside_2_pow_53_accepted(self):
        doc = make_doc()
        doc["events"]["frames"] = [1 - 2**53, 0, 2**53 - 1]
        assert parse_session(to_bytes(doc)).frames == (1 - 2**53, 0, 2**53 - 1)

    def test_deep_nesting(self):
        with pytest.raises(SessionSyntaxError, match="^malformed session document: nested deeper"):
            parse_session(b"[" * 100_000)

    def test_integer_literal_past_digit_limit(self):
        data = to_bytes(make_doc()).replace(b"[0, 16]", b"[0, " + b"1" * 5000 + b"]")
        with pytest.raises(SessionSyntaxError, match="malformed session document"):
            parse_session(data)


# Values each column kind must reject, with the reason its diagnostic gives.
_BAD_VALUES = {
    "int": [
        (16.5, "expected integer, got float"),
        (True, "expected integer, got bool"),
        ("16", "expected integer, got str"),
        (None, "expected integer, got NoneType"),
        (2**63, "integer outside the int64 range"),
        (-(2**63) - 1, "integer outside the int64 range"),
    ],
    "real": [
        (False, "expected number, got bool"),
        ("1.5", "expected number, got str"),
        (None, "expected number, got NoneType"),
        (float("nan"), "expected finite number"),
        (float("-inf"), "expected finite number"),
        (10**400, "expected finite number"),
    ],
    "str": [
        (1.5, "expected string, got float"),
        (True, "expected string, got bool"),
        (None, "expected string, got NoneType"),
        ("\udc00", "string holds a lone surrogate, which UTF-8 cannot encode"),
    ],
}
# A file cannot hold some of these as given: orjson reads an integer literal
# below -2**63 as a float, and rejects the NaN and Infinity literals, a number
# past the double range and a lone surrogate escape (None: a SessionSyntaxError).
_AS_READ = {
    repr(-(2**63) - 1): "expected integer, got float",
    **dict.fromkeys(map(repr, [float("nan"), float("-inf"), 10**400, "\udc00"])),
}
# Frame timestamps are int column values that must also lie within +/-2**53 ms.
_BAD_FRAMES = _BAD_VALUES["int"] + [
    (2**53, "frame timestamp outside +/-2**53 ms"),
    (-(2**53), "frame timestamp outside +/-2**53 ms"),
]
_BAD_ROWS = [(None, "expected array, got NoneType"), (7, "expected array, got int")]
_STREAM_KINDS = {
    "frames": None,
    "battery": ("int", "real"),
    "temperature": ("int", "real", "str"),
    "touch": ("int", "real"),
    "scene_loads": ("int", "int"),
}


@st.composite
def _session_events(draw):
    session = draw(sessions(max_intervals=30))
    doc = json.loads(serialize_session(session))
    return doc, doc["events"]


class TestFallbackDiagnostics:
    """A stream the bulk checks reject is walked to name the one bad entry."""

    @settings(max_examples=40, deadline=None)
    @given(_session_events(), st.data())
    def test_bad_value_named_by_index(self, drawn, data):
        doc, events = drawn
        stream = data.draw(st.sampled_from([k for k in _STREAM_KINDS if events.get(k)]))
        entries = events[stream]
        i = data.draw(st.integers(0, len(entries) - 1))
        kinds = _STREAM_KINDS[stream]
        if kinds is None:
            value, reason = data.draw(st.sampled_from(_BAD_FRAMES))
            entries[i] = value
            where = f"events.{stream}[{i}]"
        elif data.draw(st.booleans()):
            short = (entries[i][:-1], f"expected a {len(kinds)}-element array")
            value, reason = data.draw(st.sampled_from(_BAD_ROWS + [short]))
            entries[i] = value
            where = f"events.{stream}[{i}]"
        else:
            j = data.draw(st.integers(0, len(kinds) - 1))
            value, reason = data.draw(st.sampled_from(_BAD_VALUES[kinds[j]]))
            entries[i][j] = value
            where = f"events.{stream}[{i}][{j}]"
        reason = _AS_READ.get(repr(value), reason)
        if reason is None:
            with pytest.raises(SessionSyntaxError, match="^malformed session document: "):
                parse_session(to_bytes(doc))
            return
        with pytest.raises(SchemaError) as info:
            parse_session(to_bytes(doc))
        assert type(info.value) is SchemaError
        assert str(info.value) == f"{where}: {reason}"

    @settings(max_examples=30, deadline=None)
    @given(_session_events(), st.data())
    def test_swap_named_by_timestamp(self, drawn, data):
        doc, events = drawn
        starts = {
            stream: [e if kinds is None else e[0] for e in events[stream]]
            for stream, kinds in _STREAM_KINDS.items()
            if events.get(stream)
        }
        rising = {
            stream: [i for i in range(len(ts) - 1) if ts[i] < ts[i + 1]]
            for stream, ts in starts.items()
        }
        stream = data.draw(st.sampled_from([k for k, idx in rising.items() if idx]))
        i = data.draw(st.sampled_from(rising[stream]))
        entries = events[stream]
        if _STREAM_KINDS[stream] is None or stream == "scene_loads":
            entries[i], entries[i + 1] = entries[i + 1], entries[i]
        else:  # swap timestamps only, so values keep their valid sequence
            entries[i][0], entries[i + 1][0] = entries[i + 1][0], entries[i][0]
        what = f"{stream} not non-decreasing" + ("" if stream == "frames" else " in t")
        with pytest.raises(ValidationError) as info:
            parse_session(to_bytes(doc))
        assert type(info.value) is ValidationError
        assert str(info.value) == f"{what} at t={starts[stream][i]}ms"


class TestFixtureFile:
    def test_ten_minute_fixture(self, fixture_session_path):
        raw = fixture_session_path.read_text()
        # independent element count straight off the file text
        frames_text = raw.split('"frames":[', 1)[1].split("]", 1)[0]
        assert len(frames_text.split(",")) == 36_000
        session = parse_session(fixture_session_path.read_bytes())
        assert len(session.frames) == 36_000
        assert session.schema_version == SCHEMA_VERSION

    def test_valid_file_is_checked_in_bulk(self, fixture_session_path, monkeypatch):
        # A per-element walk would call as_int once per frame (36 000 times).
        calls = 0
        as_int = telemetry.as_int

        def counting(value, where):
            nonlocal calls
            calls += 1
            return as_int(value, where)

        monkeypatch.setattr(telemetry, "as_int", counting)
        session = parse_session(fixture_session_path.read_bytes())
        assert len(session.frames) == 36_000
        assert type(session.frames) is tuple
        assert calls < 64

    def test_bad_frame_is_read_alone(self, fixture_session_path, monkeypatch):
        # Walking the frames would call as_int once per frame up to the bad one.
        doc = json.loads(fixture_session_path.read_bytes())
        doc["events"]["frames"][35_990] = 599_000.5
        read = []
        as_int = telemetry.as_int

        def counting(value, where):
            read.append(where)
            return as_int(value, where)

        monkeypatch.setattr(telemetry, "as_int", counting)
        with pytest.raises(SchemaError) as info:
            parse_session(to_bytes(doc))
        assert str(info.value) == "events.frames[35990]: expected integer, got float"
        assert [w for w in read if w.startswith("events.frames")] == ["events.frames[35990]"]


def _late_float(frames):
    frames[-10] += 0.5
    return SchemaError, f"events.frames[{len(frames) - 10}]: expected integer, got float"


def _late_swap(frames):
    n = len(frames) - 10
    frames[n], frames[n + 1] = frames[n + 1], frames[n]
    return ValidationError, f"frames not non-decreasing at t={frames[n + 1]}ms"


def _late_hitch(frames):
    n = len(frames) - 10
    frames[n:] = [t + 300 - (frames[n] - frames[n - 1]) for t in frames[n:]]
    return None


class TestBulkColumns:
    """A stream whose every row is well formed is checked a column at a time: no row is walked."""

    @pytest.mark.parametrize("stream", ["battery", "temperature", "touch", "scene_loads"])
    def test_valid_stream_walks_no_row(self, monkeypatch, stream):
        rows = {
            "battery": [[0, 100.0], [60000, 99.5]],
            "temperature": [[0, 28.0, "soc"], [60000, 35.5, "gpu"]],
            "touch": [[2000, 55.3], [4000, 60]],
            "scene_loads": [[5000, 9000], [9000, 9000]],
        }[stream]
        walked = []
        as_row = telemetry.as_row

        def recording_as_row(value, where, readers):
            walked.append(where)
            return as_row(value, where, readers)

        monkeypatch.setattr(telemetry, "as_row", recording_as_row)
        session = parse_session(to_bytes(make_doc(events={"frames": [0, 16], stream: rows})))
        assert [w for w in walked if w != "launch"] == []
        assert getattr(session, stream) == tuple(map(tuple, rows))

    # Built directly, a column's ints may lie past int64 beside ints within it: the
    # column check bounds both ends, and the walk names the row.
    @pytest.mark.parametrize("t,where", [(-(2**63) - 1, 0), (2**63, 1)])
    def test_int_past_int64_beside_one_within(self, reference_session, t, where):
        ts = [t, 0] if where == 0 else [0, t]
        battery = [(ts[0], 90.0), (ts[1], 90.0)]
        with pytest.raises(SchemaError) as info:
            replace(reference_session, battery=battery)
        assert str(info.value) == f"battery[{where}][0]: integer outside the int64 range"


class TestLateFaultWork:
    """A late fault or a long frame counts and walks one block, not the stream."""

    @pytest.mark.parametrize("change", [_late_float, _late_swap, _late_hitch])
    def test_one_block_counted_and_walked(
        self, fixture_session_path, reference_session, monkeypatch, change
    ):
        doc = json.loads(fixture_session_path.read_bytes())
        frames = doc["events"]["frames"]
        outcome = change(frames)
        # Every interval is taken once by the byte pass; one block again, one by one.
        taken = 0
        sub = telemetry.sub

        def counting_sub(a, b):
            nonlocal taken
            taken += 1
            return sub(a, b)

        read = []
        as_int = telemetry.as_int

        def counting_as_int(value, where):
            read.append(where)
            return as_int(value, where)

        monkeypatch.setattr(telemetry, "sub", counting_sub)
        monkeypatch.setattr(telemetry, "as_int", counting_as_int)
        data = to_bytes(doc)
        if outcome is None:
            session = parse_session(data)
        else:
            error, message = outcome
            with pytest.raises(error) as info:
                parse_session(data)
            assert type(info.value) is error and str(info.value) == message
        assert taken <= len(frames) - 1 + telemetry._FRAME_BLOCK
        assert len([w for w in read if w.startswith("events.frames")]) <= 1
        if outcome is None:
            assert session == replace(reference_session, frames=tuple(frames))
            brute = Counter(b - a for a, b in zip(frames, frames[1:]))
            assert session.frame_intervals == brute and max(brute) == 300


class TestFrameIntervals:
    """A session takes the histogram of its frame intervals once, parsed or built."""

    @settings(max_examples=60, deadline=None)
    @given(sessions(max_intervals=30))
    def test_parsed_built_and_brute_force_agree(self, session):
        brute = Counter(b - a for a, b in zip(session.frames, session.frames[1:]))
        assert parse_session(serialize_session(session)).frame_intervals == brute
        assert session.frame_intervals == brute
        assert replace(session, touch=()).frame_intervals == brute

    def test_measure_takes_the_histogram_once(self, fixture_session_path, monkeypatch):
        calls, handed = 0, []
        check, fps = telemetry._parse_frames, metrics.compute_fps_metrics

        def counting(frames, where):
            nonlocal calls
            calls += 1
            return check(frames, where)

        def recording(intervals):
            handed.append(intervals)
            return fps(intervals)

        monkeypatch.setattr(telemetry, "_parse_frames", counting)
        monkeypatch.setattr(metrics, "compute_fps_metrics", recording)
        session = parse_session(fixture_session_path.read_bytes())
        measure(session, default_config().curves)
        assert calls == 1
        assert len(handed) == 1 and handed[0] is session.frame_intervals

    def test_left_out_of_eq_and_repr(self, reference_session):
        assert "frame_intervals" not in repr(reference_session)
        twin = replace(reference_session)
        object.__setattr__(twin, "frame_intervals", Counter())
        assert twin == reference_session

    def test_built_session_with_unordered_frames(self, reference_session):
        with pytest.raises(ValidationError, match=r"^frames not non-decreasing at t=10ms$"):
            replace(reference_session, frames=(0, 20, 10, 30))

    # numpy integers: bytes() takes them, so (5, 21) was once accepted.
    @pytest.mark.parametrize(
        "frames,message",
        [
            ((np.int64(5), np.int64(21)), "frames[0]: expected integer, got int64"),
            ((0, np.int64(16), 400), "frames[1]: expected integer, got int64"),
            ((0, 16, np.uint8(32)), "frames[2]: expected integer, got uint8"),
        ],
    )
    def test_built_session_with_numpy_frames(self, reference_session, frames, message):
        with pytest.raises(SchemaError) as info:
            replace(reference_session, frames=frames)
        assert str(info.value) == message

    # Only the parser and the generator hand a histogram over, through the private entry.
    @staticmethod
    def _handed_over(session, frames, intervals):
        return SessionTelemetry._with_intervals(intervals, **{**asdict(session), "frames": frames})

    @pytest.mark.parametrize(
        "intervals",
        [
            Counter({10: 2}),  # one interval short
            Counter({10: 2, 11: 1}),  # right count, wrong span
        ],
    )
    def test_handed_over_histogram_is_checked(self, reference_session, intervals):
        frames = (0, 10, 20, 30)
        with pytest.raises(
            ValidationError, match=r"^frame interval histogram does not match frames$"
        ):
            self._handed_over(reference_session, frames, intervals)
        session = self._handed_over(reference_session, frames, Counter({10: 3}))
        assert session.frame_intervals == Counter({10: 3})

    def test_histogram_check_follows_frame_count(self, reference_session):
        with pytest.raises(ValidationError, match=r"^frames must contain at least 2 timestamps$"):
            self._handed_over(reference_session, (0,), Counter({5: 1}))

    # A histogram of int intervals once vouched for a float frame (0, 16.0, 32).
    def test_public_builds_always_count_the_frames(self, reference_session):
        with pytest.raises(TypeError, match="_intervals"):
            SessionTelemetry(**asdict(reference_session), _intervals=Counter({16: 2}))
        with pytest.raises(SchemaError, match=r"^frames\[1\]: expected integer, got float$"):
            replace(reference_session, frames=(0, 16.0, 32))


def _oracle_parse_frames(frames, where):
    """Reference frame check: a type pass, then the interval Counter, then the walk."""
    lo, hi = 1 - telemetry.FRAME_LIMIT_MS, telemetry.FRAME_LIMIT_MS - 1
    if set(map(type, frames)) <= {int}:
        intervals = Counter(b - a for a, b in zip(frames, frames[1:]))
        bounds = frames[:1] + frames[-1:] if min(intervals, default=0) >= 0 else frames
        if not bounds or (lo <= min(bounds) and max(bounds) <= hi):
            return intervals
    i = next(i for i, v in enumerate(frames) if type(v) is not int or not lo <= v <= hi)
    telemetry._as_frame(frames[i], f"{where}[{i}]")
    raise AssertionError(f"{where}[{i}] passed the walk")


_LIMIT = telemetry.FRAME_LIMIT_MS
_STARTS = st.one_of(
    st.integers(-3, 3),
    st.integers(_LIMIT - 600, _LIMIT + 1),
    st.integers(-_LIMIT - 1, -_LIMIT + 600),
)
_JUNK = st.sampled_from([True, False, 1.5, 16.0, -0.5, "16", None, [], {}])


@st.composite
def _frames_lists(draw):
    """Frame lists near the edges of the byte path: intervals in -3..300, junk entries."""
    if draw(st.booleans()):
        return draw(st.lists(st.one_of(_JUNK, st.integers(-3, 3)), max_size=3))
    frames = [draw(_STARTS)]
    for step in draw(st.lists(st.one_of(st.integers(-3, 300), st.sampled_from([0, 255, 256])))):
        frames.append(frames[-1] + step)
    for _ in range(draw(st.integers(0, 2))):
        i = 0 if draw(st.booleans()) else draw(st.integers(0, len(frames) - 1))
        # A float of a frame's own value keeps the values of its intervals.
        floats = st.just(float(frames[i])) if type(frames[i]) is int else st.nothing()
        frames[i] = draw(_JUNK | floats)
    return frames


def _outcome(make):
    try:
        session = make()
    except (SessionSyntaxError, SchemaError, ValidationError) as exc:
        return type(exc), str(exc)
    return session.frames, session.frame_intervals


# Block sizes small enough that a drawn frame list spans several blocks.
_BLOCKS = st.integers(2, 5)


class TestFrameCheckOracle:
    """The byte-path frame check decides every frame list as the reference check does."""

    @settings(max_examples=400, deadline=None)
    @given(_frames_lists(), _BLOCKS)
    # A float frame whose intervals equal int ones was once accepted.
    @example([0, 16, 32.0, 48], 4)
    @example([0, 0, 256, 256.0, 256], 4)
    # Faults at a block's first interval (3) and at its last (5).
    @example([0, 16, 32, 48, 40, 80, 96, 112, 128], 3)
    @example([0, 16, 32, 48, 64, 80, 70, 112, 128], 3)
    @example([0, 16, 32, 48, 64.5, 80, 96, 112, 128], 3)
    @example([0, 16, 32, 48, 64, 80, 96.5, 112, 128], 3)
    @example([0, 16, 32, 2**53, 2**53 + 16, 2**53 + 32, 2**53 + 48], 3)
    # A float frame only in a later block.
    @example([0, 16, 32, 48, 64, 80, 96.0, 112], 2)
    # The float frame in the last block, after int blocks of the same interval.
    @example([16, 32, 48, 64, 80, 96, 112.0], 2)
    # A bool in a block bytes took, after a block rejected for disorder.
    @example([5, 0, 0, True, 3], 2)
    # An out-of-range int in a block bytes took, before a later disorder.
    @example([2**53 - 16, 2**53, 2**53 + 16, 0], 2)
    # A frame that is not a number, after an out-of-range one.
    @example([0, 16, 32, 48, 2**53, "64", 80], 2)
    # A first interval that overflows: an int past the float range, then a float
    # (in a file, a literal orjson rejects).
    @example([10**400, 0.5, 16], 2)
    def test_same_outcome_as_the_oracle(self, frames, block):
        # Parsed, the frames are checked as "events.frames"; built directly, as "frames".
        data = to_bytes(make_doc(events={"frames": frames}))
        base = parse_session(to_bytes(make_doc()))
        for make in (
            partial(parse_session, data),
            partial(replace, base, frames=frames),
        ):
            with patch.object(telemetry, "_parse_frames", _oracle_parse_frames):
                expected = _outcome(make)
            with patch.object(telemetry, "_FRAME_BLOCK", block):
                assert _outcome(make) == expected

    # An int past the float range beside a float: their interval overflows, and the
    # walk names the int.
    @pytest.mark.parametrize("frames,where", [([10**400, 0.5, 16], 0), ([0, 16, -(10**400), 0.5], 2)])
    def test_interval_past_the_float_range(self, frames, where):
        with pytest.raises(SchemaError) as info:
            telemetry._parse_frames(frames, "frames")
        assert str(info.value) == f"frames[{where}]: integer outside the int64 range"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-3, 300), st.sampled_from([255, 256, -(2**70)]))),
        _BLOCKS,
    )
    def test_histogram_equals_the_counter(self, frames, block):
        brute = Counter(b - a for a, b in zip(frames, frames[1:]))
        far = [i for i, t in enumerate(frames) if abs(t) >= telemetry.FRAME_LIMIT_MS]
        with patch.object(telemetry, "_FRAME_BLOCK", block):
            if far:
                with pytest.raises(SchemaError) as info:
                    telemetry._parse_frames(frames, "frames")
                assert str(info.value) == f"frames[{far[0]}]: integer outside the int64 range"
            else:
                got = telemetry._parse_frames(frames, "frames")
                assert got == brute and set(map(type, got)) <= {int}


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(sessions(max_intervals=30))
    def test_parse_serialize_round_trip(self, session):
        assert parse_session(serialize_session(session)) == session

    def test_serialization_deterministic(self, reference_session):
        assert serialize_session(reference_session) == serialize_session(reference_session)


def _game_settings(**overrides):
    doc = make_doc()
    doc["game"].update(overrides)
    return parse_session(to_bytes(doc)).settings


class TestComparability:
    def test_identical_sessions_no_flags(self):
        group = [_game_settings() for _ in range(3)]
        assert validate_comparability(group) == ()

    def test_divergent_tier_flagged(self):
        group = [
            _game_settings(texture_tier=3),
            _game_settings(texture_tier=3),
            _game_settings(texture_tier=1),
        ]
        flags = validate_comparability(group)
        assert len(flags) == 1
        flag = flags[0]
        assert (flag.session_index, flag.field, flag.value, flag.modal) == (2, "texture_tier", 1, 3)

    def test_nine_device_corpus_one_mismatch(self):
        group = [_game_settings() for _ in range(9)]
        group[4] = _game_settings(game_id="other_game")
        flags = validate_comparability(group)
        assert len(flags) == 1
        assert flags[0].session_index == 4
        assert flags[0].field == "game_id"

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            validate_comparability([])

    # Flags come by session, then by field name, not in the order the fields are checked.
    def test_flags_ordered_by_session_then_field(self):
        group = [
            _game_settings(aa_tier=3),
            _game_settings(game_id="other", texture_tier=0, aa_tier=0),
            _game_settings(),
            _game_settings(),
        ]
        assert [(f.session_index, f.field) for f in validate_comparability(group)] == [
            (0, "aa_tier"), (1, "aa_tier"), (1, "game_id"), (1, "texture_tier")
        ]

    def test_modal_tie_breaks_toward_the_smaller_value(self):
        group = [_game_settings(texture_tier=2), _game_settings(texture_tier=1)]
        assert validate_comparability(group) == ((0, "texture_tier", 2, 1),)

    def test_does_not_mutate(self):
        group = [_game_settings(), _game_settings(texture_tier=0)]
        before = tuple(group)
        validate_comparability(group)
        assert tuple(group) == before

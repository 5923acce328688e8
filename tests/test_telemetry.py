import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpindex import telemetry
from gpindex.errors import (
    EmptyInputError,
    SchemaError,
    SessionSyntaxError,
    ValidationError,
)
from gpindex.report import serialize_session
from gpindex.telemetry import (
    SCHEMA_VERSION,
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

    def test_device_invariants(self):
        doc = make_doc()
        doc["device"]["device_id"] = ""
        with pytest.raises(ValidationError, match="device_id"):
            parse_session(to_bytes(doc))
        doc = make_doc()
        doc["device"]["display_ppi"] = -10
        with pytest.raises(ValidationError, match="display_ppi"):
            parse_session(to_bytes(doc))

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

    @pytest.mark.parametrize(
        "events,message",
        [
            (
                {"temperature": [[0, float("nan"), "soc"], [1000, 30.0, "soc"]]},
                "events.temperature[0][1]: expected finite number",
            ),
            ({"touch": [[2000, float("nan")]]}, "events.touch[0][1]: expected finite number"),
            ({"frames": [0, 16, 2**70]}, "events.frames[2]: integer outside the int64 range"),
            # From 2**53 ms on, timestamps are not all exact as floats, so
            # frame intervals taken in integers and in floats could differ.
            ({"frames": [0, 16, 2**53]}, "events.frames[2]: frame timestamp outside +/-2**53 ms"),
            ({"frames": [-(2**53), 16]}, "events.frames[0]: frame timestamp outside +/-2**53 ms"),
        ],
    )
    def test_event_values_out_of_domain(self, events, message):
        doc = make_doc()
        doc["events"].update(events)
        with pytest.raises(SchemaError, match=re.escape(message)):
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
        with pytest.raises(ValidationError, match=rf"non-finite .* at t={rows[index][0]}ms"):
            dataclasses.replace(reference_session, **{stream: rows})

    def test_infinite_display_ppi(self):
        doc = make_doc()
        doc["device"]["display_ppi"] = float("inf")
        with pytest.raises(SchemaError, match=r"device.display_ppi: expected finite number"):
            parse_session(to_bytes(doc))

    def test_frames_just_inside_2_pow_53_accepted(self):
        doc = make_doc()
        doc["events"]["frames"] = [1 - 2**53, 0, 2**53 - 1]
        assert parse_session(to_bytes(doc)).frames == (1 - 2**53, 0, 2**53 - 1)

    def test_deep_nesting(self):
        with pytest.raises(SessionSyntaxError, match="malformed session document"):
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
    ],
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


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(sessions(max_intervals=30))
    def test_parse_serialize_round_trip(self, session):
        assert parse_session(serialize_session(session)) == session

    def test_serialization_deterministic(self, reference_session):
        assert serialize_session(reference_session) == serialize_session(reference_session)


def _session_with_settings(**overrides):
    doc = make_doc()
    doc["game"].update(overrides)
    return parse_session(to_bytes(doc))


class TestComparability:
    def test_identical_sessions_no_flags(self):
        group = [_session_with_settings() for _ in range(3)]
        assert validate_comparability(group).ok

    def test_divergent_tier_flagged(self):
        group = [
            _session_with_settings(texture_tier=3),
            _session_with_settings(texture_tier=3),
            _session_with_settings(texture_tier=1),
        ]
        report = validate_comparability(group)
        assert len(report.flags) == 1
        flag = report.flags[0]
        assert (flag.session_index, flag.field, flag.value, flag.modal) == (2, "texture_tier", 1, 3)

    def test_nine_device_corpus_one_mismatch(self):
        group = [_session_with_settings() for _ in range(9)]
        group[4] = _session_with_settings(game_id="other_game")
        report = validate_comparability(group)
        assert len(report.flags) == 1
        assert report.flags[0].session_index == 4
        assert report.flags[0].field == "game_id"

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            validate_comparability([])

    def test_does_not_mutate(self):
        group = [_session_with_settings(), _session_with_settings(texture_tier=0)]
        before = tuple(group)
        validate_comparability(group)
        assert tuple(group) == before

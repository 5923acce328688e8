import csv
import io
import json
import math
import re
from enum import IntEnum
from importlib.resources import files

import numpy as np
import orjson
import pytest
from unittest.mock import patch

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gpindex import telemetry
from gpindex.config import load_config
from gpindex.errors import (
    DuplicateDeviceError,
    EmptyInputError,
    EngineError,
    MixedProfilesError,
    ModelError,
    SchemaError,
    SessionSyntaxError,
    ValidationError,
)
from gpindex.indices import MainIndex, ScoreCard
from gpindex.jsondoc import asdict, replace
from gpindex.report import (
    CSV_HEADER,
    INDEX_COLUMNS,
    REPORT_SCHEMA_VERSION,
    ComparisonRow,
    ComparisonTable,
    emit_plot_data,
    emit_report,
    rank_devices,
    round_display,
    serialize_session,
)
from gpindex.scoring import MappingCurve
from gpindex.synth import DeviceModel, load_manifest
from gpindex.telemetry import (
    FRAME_LIMIT_MS,
    DeviceMeta,
    GameSettings,
    SessionTelemetry,
    parse_session,
)
from tests.strategies import sessions


def parse_report(data):
    """Read a json report back into a ComparisonTable: the round-trip oracle for emit_report."""
    doc = json.loads(data.decode("utf-8"))
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    code_index = dict(INDEX_COLUMNS)
    rows = tuple(
        ComparisonRow(
            rank=row["rank"],
            device_id=row["device_id"],
            overall_exact=float(row["overall_exact"]),
            overall_display=row["overall_display"],
            index_display={code_index[code]: value for code, value in row["indices"].items()},
            flags=tuple(row["flags"]),
        )
        for row in doc["rows"]
    )
    return ComparisonTable(profile_name=doc["profile"], rows=rows)


def make_card(device_id, overall, profile="competitive", mains=None, flags=()):
    if mains is None:
        mains = {index: overall for index in MainIndex}
    return ScoreCard(
        device_id=device_id,
        profile_name=profile,
        sessions=(),
        median_overall=overall,
        median_main=mains,
        flags=tuple(flags),
    )


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(86.5, 87), (86.4999, 86), (0.5, 1), (0.4999, 0), (79.4999, 79), (79.5001, 80), (100.0, 100)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_display(value) == expected


class TestRankDevices:
    def test_tie_shares_rank_and_next_skips(self):
        table = rank_devices(
            [make_card("A", 86.2), make_card("B", 86.2), make_card("C", 71.0)]
        )
        assert [(r.device_id, r.rank, r.overall_display) for r in table.rows] == [
            ("A", 1, 86),
            ("B", 1, 86),
            ("C", 3, 71),
        ]

    def test_single_card(self):
        table = rank_devices([make_card("solo", 42.0)])
        assert table.rows[0].rank == 1

    def test_ranking_uses_exact_not_display(self):
        # both display as 79/80 but Y's exact score wins
        table = rank_devices([make_card("X", 79.4999), make_card("Y", 79.5001)])
        assert [(r.device_id, r.rank, r.overall_display) for r in table.rows] == [
            ("Y", 1, 80),
            ("X", 2, 79),
        ]

    def test_tied_exacts_break_by_device_id(self):
        table = rank_devices([make_card("zeta", 50.0), make_card("alpha", 50.0)])
        assert [r.device_id for r in table.rows] == ["alpha", "zeta"]
        assert [r.rank for r in table.rows] == [1, 1]

    def test_mixed_profiles_rejected(self):
        with pytest.raises(MixedProfilesError):
            rank_devices([make_card("A", 50.0), make_card("B", 50.0, profile="casual")])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            rank_devices([])

    def test_duplicate_device_rejected(self):
        with pytest.raises(DuplicateDeviceError, match="'A'"):
            rank_devices([make_card("A", 50.0), make_card("B", 40.0), make_card("A", 50.0)])
        with pytest.raises(MixedProfilesError):  # the profile check comes first
            rank_devices([make_card("A", 50.0), make_card("A", 50.0, profile="casual")])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=12, unique=True))
    def test_ranking_consistent_with_exact_scores(self, overalls):
        cards = [make_card(f"d{i:02d}", v) for i, v in enumerate(overalls)]
        rows = rank_devices(cards).rows
        for a, b in zip(rows, rows[1:]):
            assert a.overall_exact >= b.overall_exact
            assert (a.rank < b.rank) == (a.overall_exact > b.overall_exact)
            assert (a.rank == b.rank) == (a.overall_exact == b.overall_exact)


class TestEmitReport:
    def table(self):
        mains = {index: 80.0 for index in MainIndex}
        mains[MainIndex.SWIFTNESS] = None
        return rank_devices(
            [
                make_card("device_x", 86.25, mains=mains, flags=("overall: missing swiftness (weights renormalized)",)),
                make_card("device_y", 71.0),
            ]
        )

    def test_json_golden(self):
        golden = (
            b'{\n'
            b'  "schema_version": 1,\n'
            b'  "profile": "competitive",\n'
            b'  "rows": [\n'
            b'    {\n'
            b'      "rank": 1,\n'
            b'      "device_id": "device_x",\n'
            b'      "overall_exact": 86.2500,\n'
            b'      "overall_display": 86,\n'
            b'      "indices": {\n'
            b'        "vs": 80,\n'
            b'        "gq": 80,\n'
            b'        "ba": 80,\n'
            b'        "te": 80,\n'
            b'        "sw": null,\n'
            b'        "re": 80\n'
            b'      },\n'
            b'      "flags": [\n'
            b'        "overall: missing swiftness (weights renormalized)"\n'
            b'      ]\n'
            b'    },\n'
            b'    {\n'
            b'      "rank": 2,\n'
            b'      "device_id": "device_y",\n'
            b'      "overall_exact": 71.0000,\n'
            b'      "overall_display": 71,\n'
            b'      "indices": {\n'
            b'        "vs": 71,\n'
            b'        "gq": 71,\n'
            b'        "ba": 71,\n'
            b'        "te": 71,\n'
            b'        "sw": 71,\n'
            b'        "re": 71\n'
            b'      },\n'
            b'      "flags": []\n'
            b'    }\n'
            b'  ]\n'
            b'}\n'
        )
        assert emit_report(self.table(), "json") == golden

    def test_json_round_trip(self):
        table = self.table()
        parsed = parse_report(emit_report(table, "json"))
        assert parsed == table
        assert emit_report(parsed, "json") == emit_report(table, "json")

    def test_json_is_valid_json_with_4_decimals(self):
        payload = emit_report(self.table(), "json")
        doc = json.loads(payload)
        assert doc["rows"][0]["overall_exact"] == 86.25
        assert b'"overall_exact": 86.2500' in payload

    def test_csv_shape(self):
        payload = emit_report(self.table(), "csv").decode()
        lines = payload.splitlines()
        assert len(lines) == 3  # header + 2 devices
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("device_x,competitive,1,86,80,80,80,80,,80")
        assert payload.endswith("\n")

    def test_emission_is_canonical(self):
        a, b = self.table(), self.table()
        assert emit_report(a, "json") == emit_report(b, "json")
        assert emit_report(a, "csv") == emit_report(b, "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self.table(), "xml")

    # A bare "\r" in an id once split its row in two for csv readers.
    @pytest.mark.parametrize("device_id", ["dev\rX", "dev\r\nX", 'a,"b"\rc'])
    def test_csv_rows_read_back_whole(self, device_id):
        table = rank_devices([make_card(device_id, 50.0, profile="p\rq")])
        rows = list(csv.reader(io.StringIO(emit_report(table, "csv").decode(), newline="")))
        assert [row[:3] for row in rows[1:]] == [[device_id, "p\rq", "1"]]
        rows = list(csv.reader(io.StringIO(emit_plot_data([table]).decode(), newline="")))
        assert rows[1:] == [[device_id, "p\rq", "50"]]


class TestPlotData:
    def test_cardinality_9x2(self):
        competitive = rank_devices([make_card(f"device_{i}", 50.0 + i) for i in range(9)])
        casual = rank_devices(
            [make_card(f"device_{i}", 90.0 - i, profile="casual") for i in range(9)]
        )
        lines = emit_plot_data([competitive, casual]).decode().splitlines()
        assert lines[0] == "device_id,profile,overall_display"
        assert len(lines) == 1 + 18

    def test_single_device_single_profile(self):
        table = rank_devices([make_card("only", 66.6)])
        lines = emit_plot_data([table]).decode().splitlines()
        assert len(lines) == 2
        assert lines[1] == "only,competitive,67"

    def test_rows_grouped_by_device(self):
        competitive = rank_devices([make_card("b", 10.0), make_card("a", 20.0)])
        casual = rank_devices(
            [make_card("b", 30.0, profile="casual"), make_card("a", 5.0, profile="casual")]
        )
        lines = emit_plot_data([competitive, casual]).decode().splitlines()[1:]
        assert lines == [
            "a,competitive,20",
            "a,casual,5",
            "b,competitive,10",
            "b,casual,30",
        ]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            emit_plot_data([])


class TestSerializeSession:
    def test_every_stream_written_as_arrays(self):
        session = SessionTelemetry(
            schema_version=1,
            device=DeviceMeta("p", 4000, 401.5, (1080, 2400)),
            settings=GameSettings("g", 0.75, 3, 2, 1, 0),
            frames=[0, 16, 33],
            battery=[(0, 100.0), (16, 99.5)],
            temperature=[(0, 30.25, "soc")],
            touch=[(10, 41.0)],
            scene_loads=[(1, 2)],
            launch=(0, 5),
        )
        assert serialize_session(session) == (
            '{"schema_version":1,'
            '"device":{"device_id":"p","battery_capacity_mah":4000,"display_ppi":401.5,'
            '"display_resolution":[1080,2400]},'
            '"game":{"game_id":"g","render_scale":0.75,"texture_tier":3,"effects_tier":2,'
            '"aa_tier":1,"dynamic_range_tier":0},'
            '"events":{"launch":[0,5],"frames":[0,16,33],"battery":[[0,100.0],[16,99.5]],'
            '"temperature":[[0,30.25,"soc"]],"touch":[[10,41.0]],"scene_loads":[[1,2]]}}\n'
        ).encode()


def oracle_bytes(session):
    """The session-file format's definition: the whole document through json.dumps."""
    device = {k: v for k, v in asdict(session.device).items() if v is not None}
    events = {}
    if session.launch is not None:
        events["launch"] = session.launch
    events["frames"] = session.frames
    for name in ("battery", "temperature", "touch", "scene_loads"):
        if getattr(session, name):
            events[name] = getattr(session, name)
    doc = {
        "schema_version": session.schema_version,
        "device": device,
        "game": asdict(session.settings),
        "events": events,
    }
    return (json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n").encode()


# Strings json escapes, or that the frame splice must not take for the frames
# key: quotes, '%', a literal '"frames":[]', control and non-ASCII characters.
_tricky_text = st.text(min_size=1, max_size=8) | st.sampled_from(
    ['"frames":[]', "%d%s%%", "%", 'a"b\\c', "\r\n\t\x00", "ü東😀"]
)


@st.composite
def wide_frames(draw):
    """Ordered int frames far beyond the demo's: any start, ends at +/-(2**53 - 1)
    and intervals above 255 ms."""
    gaps = draw(st.lists(st.integers(0, 255) | st.integers(256, 2**40), min_size=1, max_size=30))
    if not any(gaps):
        gaps[-1] = draw(st.integers(1, 300))
    span = sum(gaps)
    start = draw(
        st.integers(-3, 1)
        | st.integers(1 - FRAME_LIMIT_MS, FRAME_LIMIT_MS - 1 - span)
        | st.integers(0, 8).map(lambda k: FRAME_LIMIT_MS - 1 - span - k)
        | st.integers(0, 8).map(lambda k: 1 - FRAME_LIMIT_MS + k)
    )
    frames = [start]
    for gap in gaps:
        frames.append(frames[-1] + gap)
    return tuple(frames)


# Values a frame list built in Python may hold besides valid ints: ints at and
# past +/-2**53 ms and past int64, floats (NaN and +/-inf included), bools,
# numpy integers, None and strings.
_odd_frames = st.one_of(
    st.sampled_from([2**53 - 1, 1 - 2**53, 2**53, -(2**53), 2**63, -(2**63) - 1, 2**70]),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.integers(-3, 300).map(np.int64) | st.integers(0, 255).map(np.uint8),
    st.none(),
    st.text(max_size=3),
)


@st.composite
def built_frames(draw):
    """Frame lists for a direct build: ordered wide frames or short mixed lists,
    with up to two entries swapped for an odd value or a float of their own."""
    if draw(st.booleans()):
        frames = list(draw(wide_frames()))
    else:
        frames = draw(st.lists(st.integers(-3, 300) | _odd_frames, max_size=6))
    for _ in range(draw(st.integers(0, 2)) if frames else 0):
        i = draw(st.integers(0, len(frames) - 1))
        own = st.just(float(frames[i])) if type(frames[i]) is int else st.nothing()
        frames[i] = draw(_odd_frames | own)
    return frames


@st.composite
def wide_sessions(draw):
    session = draw(sessions(max_intervals=8))
    return replace(
        session,
        device=replace(session.device, device_id=draw(_tricky_text)),
        settings=replace(session.settings, game_id=draw(_tricky_text)),
        frames=draw(wide_frames()),
        temperature=tuple(t._replace(sensor=draw(_tricky_text)) for t in session.temperature),
    )


class Millis(int):
    """An int subclass: json and %d both write its int value, never its repr."""

    def __repr__(self):
        return "millis"

    __str__ = __repr__


class Tick(IntEnum):
    """An int enum: json and orjson both write its int value."""

    START = 0
    NEXT = 16


_time = st.integers(0, 100_000)
_level = st.floats(0, 100)
# Each event stream's columns, drawn valid.
_ROW_COLUMNS = {
    "launch": (_time, _time),
    "battery": (_time, _level),
    "temperature": (_time, st.floats(-20, 120), st.sampled_from(["soc", "gpu"])),
    "touch": (_time, _level),
    "scene_loads": (_time, _time),
}
# What a file may hold instead: ints (bools and ints past int64 included),
# floats (NaN and infinities included), strings and null.
_json_values = st.one_of(
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 2**70, True, False]),
    st.floats(),
    st.text(max_size=4),
    st.none(),
)


@st.composite
def _json_row(draw, columns):
    """A row of ``columns``, some values from ``_json_values``, or an array of the wrong length."""
    if draw(st.integers(0, 9)) == 0:
        size = draw(st.sampled_from([n for n in range(5) if n != len(columns)]))
        return draw(st.lists(_json_values, min_size=size, max_size=size))
    return [draw(_json_values if draw(st.integers(0, 7)) == 0 else column) for column in columns]


@st.composite
def _json_events(draw):
    """Some of a session's launch and row streams, drawn as ``_json_row`` rows."""
    events = {}
    for name in draw(st.sets(st.sampled_from(sorted(_ROW_COLUMNS)), min_size=1)):
        columns = _ROW_COLUMNS[name]
        rows = _json_row(columns) if name == "launch" else st.lists(_json_row(columns), max_size=4)
        events[name] = draw(rows)
    return events


def _session(frames):
    return SessionTelemetry(
        schema_version=1,
        device=DeviceMeta("%d"),
        settings=GameSettings("g", 1.0, 0, 0, 0, 0),
        frames=frames,
    )


def _frames_document(frames, text):
    """The file of ``_session(frames)``, its frames written as ``text``, which is json's."""
    assert json.dumps({"frames": frames}, separators=(",", ":")).encode() == b"{%s}" % text
    return oracle_bytes(_session((0, 16, 33))).replace(b'"frames":[0,16,33]', text)


def _rows_document(stream, rows):
    """The file of ``_session((0, 16, 33))`` with ``rows`` as ``stream``, as json writes it."""
    doc = json.loads(oracle_bytes(_session((0, 16, 33))))
    doc["events"][stream] = rows
    return json.dumps(doc, separators=(",", ":")).encode()


class TestSerializeSessionOracle:
    # Block sizes of 2-5 intervals split the drawn frames into several blocks.
    @settings(max_examples=300, deadline=None)
    @given(wide_sessions(), st.integers(2, 5))
    # A long frame only in a later block, after blocks bytes took.
    @example(_session((0, 16, 32, 48, 64, 80, 400)), 2)
    def test_equals_whole_document_json(self, session, block):
        expected = oracle_bytes(session)
        with patch.object(telemetry, "_FRAME_BLOCK", block):
            session = replace(session)  # takes its histogram block by block
            assert serialize_session(session) == expected
            # The parser's histogram, handed over, gives the same bytes.
            assert serialize_session(parse_session(expected)) == expected

    # A session built directly either raises one engine error or is written
    # as json writes it and read back equal. Floats and bools, which %d
    # would write as 16 or 1, and ints past +/-2**53 ms were once accepted
    # and written to files the parser rejects.
    @settings(max_examples=400, deadline=None)
    @given(built_frames(), st.integers(2, 5))
    @example([False, True, 5], 2)
    @example([-5, 0, True, 300], 2)
    @example([0, 16.5, 33], 2)
    @example([5, 21.0, 37], 2)
    @example([-1e308, 0.0, 1e308], 2)
    @example([0, 2**60], 2)
    @example([-(2**70), 2**64, 2**64 + 1], 2)
    @example([0, "16"], 2)
    @example([0, None, 5], 2)
    # An int subclass: json and %d both write its int value.
    @example([0, Millis(16), 33], 2)
    @example([Millis(0), 16, 400], 2)
    @example([Tick.START, Tick.NEXT, 2**20], 2)
    def test_built_session_raises_or_round_trips(self, frames, block):
        with patch.object(telemetry, "_FRAME_BLOCK", block):
            try:
                session = _session(frames)
            except EngineError:
                return
        payload = serialize_session(session)
        assert payload == oracle_bytes(session)
        assert parse_session(payload) == session

    # The frames as json writes them in a file: a direct build and the parser
    # reading that file agree. Bools, floats and ints past +/-2**53 ms raise the
    # same SchemaError at the same index; an int subclass is written as its
    # int value and read back equal.
    @pytest.mark.parametrize(
        "frames,text",
        [
            ((False, True, 5), b'"frames":[false,true,5]'),
            ((0, 16.5, 33), b'"frames":[0,16.5,33]'),
            ((5, 21.0, 37), b'"frames":[5,21.0,37]'),
            ((-5, 0, True, 300), b'"frames":[-5,0,true,300]'),
            ((0, Millis(16), 33), b'"frames":[0,16,33]'),
            (5, b'"frames":5'),  # once a bare TypeError
        ],
    )
    def test_frames_written_as_json_writes_them(self, frames, text):
        document = _frames_document(frames, text)
        try:
            session = _session(frames)
        except SchemaError as built_error:
            with pytest.raises(SchemaError) as parsed_error:
                parse_session(document)
            assert str(parsed_error.value) == f"events.{built_error}"
        else:
            assert serialize_session(session) == document
            assert parse_session(document) == session

    # orjson reads an integer literal below -2**63 or past 2**64 - 1 as a
    # float, so the file's diagnostic names a float where the build's names
    # the int64 range; both once named the range.
    def test_frames_past_int64_are_read_as_floats(self):
        frames = (-(2**70), 2**64, 2**64 + 1)
        document = _frames_document(
            frames, b'"frames":[-1180591620717411303424,18446744073709551616,18446744073709551617]'
        )
        with pytest.raises(SchemaError, match=r"^frames\[0\]: integer outside the int64 range$"):
            _session(frames)
        with pytest.raises(SchemaError, match=r"^events.frames\[0\]: expected integer, got float$"):
            parse_session(document)

    # The rows and launch as json writes them in a file: a direct build and
    # the parser reading that file raise the same SchemaError. The first and
    # the stream that is not an array once escaped as a bare TypeError, the
    # non-finite values were a ValidationError of a build's own, and the
    # rest were accepted and written to files the parser rejects.
    @pytest.mark.parametrize(
        "stream,rows,message",
        [
            ("battery", ((0, "100"),), "battery[0][1]: expected number, got str"),
            ("launch", (0.5, 1.5), "launch[0]: expected integer, got float"),
            ("battery", ((0.5, 100.0),), "battery[0][0]: expected integer, got float"),
            ("temperature", ((0, 30.0, 5),), "temperature[0][2]: expected string, got int"),
            ("touch", ((True, 10.0),), "touch[0][0]: expected integer, got bool"),
            ("scene_loads", ((0, 2.5),), "scene_loads[0][1]: expected integer, got float"),
            ("battery", 5, "battery: expected array, got int"),
        ],
    )
    def test_rows_written_as_json_are_read_as_built(self, stream, rows, message):
        with pytest.raises(SchemaError) as built_error:
            replace(_session((0, 16, 33)), **{stream: rows})
        assert type(built_error.value) is SchemaError and str(built_error.value) == message
        with pytest.raises(SchemaError) as parsed_error:
            parse_session(_rows_document(stream, rows))
        assert str(parsed_error.value) == f"events.{message}"

    # Rows a build rejects and json writes as no JSON orjson reads: a lone
    # surrogate escape, the Infinity and NaN literals, a number past the
    # double range. The parser once named each as the build does.
    @pytest.mark.parametrize(
        "stream,rows,message",
        [
            (
                "temperature",
                ((0, 30.0, "soc\ud800"),),
                "temperature[0][2]: string holds a lone surrogate, which UTF-8 cannot encode",
            ),
            ("touch", ((0, math.inf),), "touch[0][1]: expected finite number"),
            ("temperature", ((0, math.nan, "soc"),), "temperature[0][1]: expected finite number"),
            ("battery", ((0, 10**400),), "battery[0][1]: expected finite number"),
        ],
    )
    def test_rows_json_writes_that_orjson_rejects(self, stream, rows, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            replace(_session((0, 16, 33)), **{stream: rows})
        with pytest.raises(SessionSyntaxError, match="^malformed session document: "):
            parse_session(_rows_document(stream, rows))

    # A build with an int subclass takes the walk, which keeps an int level as
    # written, as the parser's bulk check does: once the walk kept 100 and the
    # parser read 100.0, so the two wrote different files.
    def test_walked_rows_keep_reals_as_written(self):
        built = replace(_session((0, 16, 33)), battery=((0, 100), (Millis(5), 99)))
        payload = serialize_session(built)
        assert serialize_session(parse_session(payload)) == payload
        assert b'"battery":[[0,100],[5,99]]' in payload

    # Rows drawn from JSON values: a direct build from the values orjson reads
    # in the file json writes for them, and the parser reading that file,
    # build equal sessions, or raise the same class with the same message, the
    # parser's prefixed "events.". orjson reads an integer past uint64 or below
    # -2**63 as a float and rejects what is not JSON (NaN, infinities).
    # Non-finite values once raised a ValidationError of a build's own.
    @settings(max_examples=300, deadline=None)
    @given(_json_events())
    @example({"battery": [[0, 100], [16, 99.5]], "temperature": [[0, 30, "soc"]],
              "touch": [[5, 41]], "scene_loads": [[1, 2]], "launch": [0, 5]})
    @example({"temperature": [[0, math.nan, "soc"]]})
    @example({"touch": [[0, -math.inf]]})
    @example({"battery": [[0, 2**70]]})
    def test_built_rows_are_read_as_parsed(self, events):
        session = _session((0, 16, 33))
        doc = json.loads(oracle_bytes(session))
        doc["events"].update(events)
        payload = json.dumps(doc, separators=(",", ":")).encode()
        try:
            events = {name: orjson.loads(payload)["events"][name] for name in events}
        except orjson.JSONDecodeError:
            with pytest.raises(SessionSyntaxError, match="^malformed session document: "):
                parse_session(payload)
            return
        try:
            built = replace(session, **events)
        except EngineError as built_error:
            with pytest.raises(EngineError) as parsed_error:
                parse_session(payload)
            assert type(parsed_error.value) is type(built_error)
            prefix = "events." if type(built_error) is SchemaError else ""
            assert str(parsed_error.value) == prefix + str(built_error)
        else:
            parsed = parse_session(payload)
            assert parsed == built
            assert parse_session(serialize_session(built)) == built
            # Equal tuples are not enough: every row is its stream's NamedTuple.
            for name, row in telemetry._ROW_STREAMS.items():
                for session in (parsed, built):
                    assert all(type(entry) is row for entry in getattr(session, name))


# Valid fields of each record a session carries, and of the model that builds them.
_VALID_FIELDS = {
    DeviceMeta: {"device_id": "d", "battery_capacity_mah": 4000, "display_ppi": 500,
                 "display_resolution": (1080, 2400)},
    GameSettings: {"game_id": "g", "render_scale": 0.75, "texture_tier": 3, "effects_tier": 2,
                   "aa_tier": 1, "dynamic_range_tier": 0},
    DeviceModel: {"device_id": "m", "base_frame_time_ms": 16.0, "drain_rate_pct_per_hour": 10.0,
                  "temp_start_c": 25.0, "temp_peak_c": 35.0, "touch_latency_ms": 50.0,
                  "launch_s": 3.0, "seed": 1, "frame_jitter_sd_ms": 0.5,
                  "throttle_onset_s": 60.0, "throttle_factor": 1.5, "game_id": "g",
                  "render_scale": 1, "texture_tier": 2, "effects_tier": 3, "aa_tier": 0,
                  "dynamic_range_tier": 1, "display_ppi": 401.5, "battery_capacity_mah": 3000},
    MappingCurve: {"metric_id": "avg_fps", "breakpoints": ((0, 0), (60.5, 100))},
}

# What a direct build may be handed: ints (bools and values past int64
# included), floats (NaN and infinities included), None, strings, numpy
# scalars and tuples of the wrong length.
_wild_values = st.one_of(
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 2**70, True, False]),
    st.floats(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from([np.int64(3), np.float64(0.5), np.float32(0.5), np.bool_(True), np.uint8(2)]),
    st.tuples(st.integers(1, 4000)) | st.tuples(*[st.integers(1, 4000)] * 3),
)


@st.composite
def _wild_fields(draw, record):
    """``record``'s valid fields with up to three of them drawn from ``_wild_values``."""
    valid = _VALID_FIELDS[record]
    wild = draw(st.sets(st.sampled_from(sorted(valid)), max_size=3))
    return {**valid, **{name: draw(_wild_values) for name in sorted(wild)}}


class TestBuiltRecordsRoundTrip:
    # A record built directly either raises one engine error, or holds what
    # the parser reads: placed in a session, it is written as json writes it
    # and read back equal.
    @pytest.mark.parametrize("record", [DeviceMeta, GameSettings, DeviceModel])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    @example(data=None)  # the valid fields alone
    def test_built_record_raises_or_round_trips(self, record, data):
        fields = _VALID_FIELDS[record] if data is None else data.draw(_wild_fields(record))
        try:
            built = record(**fields)
        except EngineError as exc:
            assert type(exc) in (SchemaError, ModelError if record is DeviceModel else ValidationError)
            return
        device = built if record is DeviceMeta else DeviceMeta(**_VALID_FIELDS[DeviceMeta])
        game = built if record is GameSettings else GameSettings(**_VALID_FIELDS[GameSettings])
        if record is DeviceModel:
            device, game = built.device, built.settings
        session = SessionTelemetry(schema_version=1, device=device, settings=game, frames=(0, 16))
        payload = serialize_session(session)
        assert payload == oracle_bytes(session)
        assert parse_session(payload) == session


def _as_json_arrays(value):
    """``value`` with each tuple in it a list, as a JSON array is read."""
    return list(map(_as_json_arrays, value)) if isinstance(value, (list, tuple)) else value


def _same_json(held, drawn):
    """Whether ``held``, read from a document, is ``drawn``: the same types and values, NaN
    as NaN."""
    if type(held) is list is type(drawn):
        return len(held) == len(drawn) and all(map(_same_json, held, drawn))
    return type(held) is type(drawn) and (held == drawn or held != held and drawn != drawn)


def _held_as_json(value, loads):
    """Whether a document json.dumps writes holds ``value`` exactly, as ``loads`` reads it."""
    try:
        return _same_json(loads(json.dumps(value)), value)
    except (TypeError, ValueError):  # not JSON json.dumps writes, or not JSON loads reads
        return False


_SESSION_DOC = json.loads(oracle_bytes(_session((0, 16))))
_CONFIG_DOC = json.loads(files("gpindex.data").joinpath("default_config.json").read_bytes())

# Each record's path in its document, the document's decoder, the document
# holding the record's fields, and the record its loader makes of the bytes.
_IN_DOCUMENT = {
    DeviceMeta: (
        "device", orjson.loads, lambda f: {**_SESSION_DOC, "device": f},
        lambda data: parse_session(data).device,
    ),
    GameSettings: (
        "game", orjson.loads, lambda f: {**_SESSION_DOC, "game": f},
        lambda data: parse_session(data).settings,
    ),
    DeviceModel: (
        "devices[0].model", json.loads,
        lambda f: {"schema_version": 1,
                   "devices": [{"sessions": 1, "session_duration_s": 300, "model": f}]},
        lambda data: load_manifest(data)[0].model,
    ),
    MappingCurve: (
        "curves", json.loads,
        lambda f: {**_CONFIG_DOC, "curves": {**_CONFIG_DOC["curves"], "avg_fps": f["breakpoints"]}},
        lambda data: load_config(data).curves["avg_fps"],
    ),
}


class TestBuiltAgreesWithParsed:
    # A record built from drawn values, and its loader reading a document that
    # holds the same values as JSON, give equal records, or errors of one class
    # whose messages are equal after the document's path. Arrays are built as
    # the lists a document holds, and a null field is absent in a document, so
    # None is kept only where a field may hold it. Each record's constructor
    # is the one check of its fields.
    @pytest.mark.parametrize("record", list(_IN_DOCUMENT))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    @example(data=None)  # the valid fields alone
    def test_built_and_parsed_agree(self, record, data):
        path, loads, document, load = _IN_DOCUMENT[record]
        fields = dict(_VALID_FIELDS[record] if data is None else data.draw(_wild_fields(record)))
        if record is MappingCurve:
            assume(fields["metric_id"] == "avg_fps")  # the document's key
            if data is not None and data.draw(st.booleans()):  # wild values inside the pairs
                pairs = st.lists(st.tuples(_wild_values, _wild_values), max_size=3)
                fields["breakpoints"] = data.draw(pairs)
        fields = {name: _as_json_arrays(value) for name, value in fields.items()}
        for name, value in fields.items():
            assume(value is not None or record.__annotations__[name].endswith(" | None"))
            assume(_held_as_json(value, loads))
        payload = json.dumps(document(fields)).encode()
        try:
            built = record(**fields)
        except EngineError as exc:
            with pytest.raises(EngineError) as info:
                load(payload)
            # load_config raises ConfigError from the error it met.
            parsed = info.value.__cause__ if record is MappingCurve else info.value
            assert type(parsed) is type(exc)
            prefix = f"{path}." if type(exc) is SchemaError else ""
            assert str(parsed) == prefix + str(exc)
        else:
            assert load(payload) == built

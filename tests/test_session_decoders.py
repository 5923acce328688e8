"""orjson and json give every session document the same outcome, and every session the same bytes.

``parse_session`` decodes with orjson where it is installed and keeps
its outcome only where orjson's value is json's; each input here is
parsed both ways, the second with ``import orjson`` failing, and must
give the same session bytes, or the same error class and message, and
the same warnings. ``serialize_session`` writes the frames with orjson
where it is installed; each session here is written both ways too.
"""

import json
import re
import warnings
from enum import IntEnum

import pytest
from hypothesis import HealthCheck, example, given, settings

from gpindex import telemetry
from gpindex.errors import EngineError
from gpindex.jsondoc import fast_json, replace
from gpindex.report import serialize_session
from gpindex.telemetry import UnknownKeyWarning, parse_session
from tests.conftest import orjson_hidden
from tests.strategies import one_field_mutations, sessions
from tests.test_jsondoc import _arbitrary
from tests.test_telemetry import make_doc, to_bytes

orjson = pytest.importorskip("orjson", exc_type=ImportError)


def _outcome(data):
    """The bytes ``parse_session`` makes of ``data``, or its error, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            session = parse_session(data)
        except EngineError as exc:
            result = type(exc), str(exc)
        else:
            result = serialize_session(session)
    return result, [(w.category, str(w.message), w.filename) for w in caught]


def assert_decoders_agree(data):
    assert fast_json() is orjson
    fast = _outcome(data)
    with orjson_hidden():
        assert _outcome(data) == fast


def _doc_bytes(events=None, **top):
    doc = make_doc(**top)
    doc["events"].update(events or {})
    return to_bytes(doc)


def _nested(depth):
    return "[" * depth + "]" * depth


_VALID = _doc_bytes()
_GAME = b'"game": {'


class TestDecodersAgree:
    @settings(max_examples=200, deadline=None)
    @given(data=_arbitrary)
    def test_arbitrary_bytes(self, data):
        assert_decoders_agree(data)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=one_field_mutations(
            sessions(max_intervals=8).map(lambda s: json.loads(serialize_session(s)))
        )
    )
    # orjson reads these integers as floats: a real keeps json's int, an int field its message.
    @example(_doc_bytes({"touch": [[0, 2**64]]}))
    @example(_doc_bytes({"touch": [[0, -(2**63) - 1]]}))
    @example(_doc_bytes({"frames": [0, -(2**63) - 1]}))
    @example(_VALID.replace(b'"device_id": "phone1"', b'"device_id": "phone1", "x": 1e19'))
    @example(_VALID.replace(_GAME, b'"game": {"aa_tier": 18446744073709551616, '))
    @example(_VALID.replace(b'"texture_tier": 3', b'"texture_tier": -9223372036854775809'))
    # json fails past about 1,000 levels, orjson far deeper.
    @example(_VALID.replace(_GAME, f'"x": {_nested(2000)}, "game": {{'.encode()))
    @example(_VALID.replace(_GAME, f'"x": {_nested(995)}, "game": {{'.encode()))
    @example(_VALID.replace(b"[0, 16]", f"[0, 16, {_nested(2000)}]".encode()))
    # Literals json reads and orjson rejects.
    @example(_doc_bytes({"touch": [[0, float("nan")]]}))
    @example(_doc_bytes({"battery": [[0, float("inf")]]}))
    @example(_VALID.replace(b'"render_scale": 1.0', b'"render_scale": 1e400'))
    @example(_VALID.replace(b'"phone1"', b'"\\ud800"'))
    @example(_VALID.replace(b'"phone1"', b'"ph\\udc00"'))
    # A duplicate key, a byte order mark, invalid UTF-8.
    @example(_VALID.replace(_GAME, b'"device": {"device_id": "p2"}, "game": {'))
    @example(b"\xef\xbb\xbf" + _VALID)
    @example(_VALID.replace(b'"phone1"', b'"\xff"'))
    # A float frame, read by orjson and json alike.
    @example(_doc_bytes({"frames": [0, 16.0, 32]}))
    # Unknown keys, each warned once.
    @example(_doc_bytes({"frames": [0, 16], "extra": 1}, extra_top=2))
    def test_one_field_mutation(self, data):
        assert_decoders_agree(data)


def _json_decodes(monkeypatch):
    """The calls ``parse_session`` makes to json's decoder, as a list that fills."""
    calls = []
    decode = telemetry.decode

    def counting(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(telemetry, "decode", counting)
    return calls


class TestFastPath:
    def test_valid_file_is_decoded_by_orjson_alone(self, fixture_session_path, monkeypatch):
        calls = _json_decodes(monkeypatch)
        assert len(parse_session(fixture_session_path.read_bytes()).frames) == 36_000
        assert calls == []

    @pytest.mark.parametrize(
        "data,error",
        [
            # Out of order and charging fail in the constructor, after the frame check.
            (_doc_bytes({"frames": [0, 16, 8]}), "frames not non-decreasing at t=8ms"),
            (_doc_bytes({"battery": [[0, 50.0], [9, 75.0]]}), "battery increased by >0.5pp"),
            (_doc_bytes({"frames": [0, 16.5]}), "events.frames[1]: expected integer, got float"),
        ],
        ids=["disorder", "charging", "float_frame"],
    )
    def test_failing_file_keeps_orjsons_error(self, data, error, monkeypatch):
        calls = _json_decodes(monkeypatch)
        with pytest.raises(EngineError, match="^" + re.escape(error)):
            parse_session(data)
        assert calls == []

    @pytest.mark.parametrize(
        "data",
        [
            _doc_bytes({"touch": [[0, 2**64]]}),
            _VALID.replace(_GAME, f'"x": {_nested(40)}, "game": {{'.encode()),
            _doc_bytes({"touch": [[0, float("nan")]]}),
        ],
        ids=["integer_past_uint64", "nested_40_deep", "nan"],
    )
    def test_json_decodes_where_orjson_may_differ(self, data, monkeypatch):
        calls = _json_decodes(monkeypatch)
        assert_decoders_agree(data)
        assert len(calls) == 2  # once in each of the two runs

    def test_a_fallback_warns_once_per_key(self):
        data = _doc_bytes({"touch": [[0, 2**64]], "replay": 1}, extra_top=2)
        with pytest.warns(UnknownKeyWarning) as record:
            session = parse_session(data)
        assert session.touch[0].latency_ms == 2**64
        assert [str(w.message) for w in record] == [
            "ignoring unknown key 'extra_top'",
            "ignoring unknown key 'events.replay'",
        ]
        assert [w.filename for w in record] == [__file__] * 2


class _Ms(int):
    """An int subclass whose repr is not its digits."""

    def __repr__(self):
        return f"_Ms({int(self)})"


class _Tick(IntEnum):
    START = 0
    NEXT = 16


_BASE = parse_session(_VALID)


class TestWritersAgree:
    @settings(max_examples=200, deadline=None)
    @given(session=sessions())
    @example(replace(_BASE, frames=tuple(map(_Ms, (0, 16, 33, 2**40)))))
    @example(replace(_BASE, frames=(_Tick.START, _Tick.NEXT, 2**20)))
    @example(replace(_BASE, frames=(-(2**53 - 1), 0, 2**53 - 1)))
    @example(replace(_BASE, settings=replace(_BASE.settings, game_id='50%d "frames":[] %s')))
    @example(replace(_BASE, frames=(0, 16)))
    def test_frames_written_alike(self, session):
        assert fast_json() is orjson
        fast = serialize_session(session)
        with orjson_hidden():
            assert serialize_session(session) == fast
        assert parse_session(fast) == session

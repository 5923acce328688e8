import dataclasses
import json
import math
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gpindex
from gpindex.config import load_config
from gpindex.errors import (
    ConfigError,
    ModelError,
    SchemaError,
    SessionSyntaxError,
    ValidationError,
)
from gpindex import telemetry
from gpindex.jsondoc import as_int, as_pair, as_real, decode, reader, require
from gpindex.report import serialize_session
from gpindex.synth import DeviceModel, load_manifest
from gpindex.telemetry import DeviceMeta, GameSettings, parse_session
from tests.strategies import hostile_values, one_field_mutations, sessions


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

    @pytest.mark.parametrize("value", [2**63, 10**400, 1.0, True])
    def test_as_int_rejects(self, value):
        with pytest.raises(SchemaError, match=r"^f: "):
            as_int(value, "f")

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

    def test_as_real_keeps_the_value_as_given(self):
        assert type(as_real(500, "f")) is int
        assert as_real(2**70, "f") == 2**70

    def test_as_pair_reads_each_element(self):
        assert as_pair([1, 2.5], "p", as_real) == (1, 2.5)
        with pytest.raises(SchemaError, match=r"^p: expected a 2-element array$"):
            as_pair([1, 2, 3], "p", as_real)
        with pytest.raises(SchemaError, match=r"^p\[1\]: expected integer, got float$"):
            as_pair([1, 2.5], "p", as_int)


# Every field is read by its declared type: an annotation no reader takes
# fails here (or, for an event row, at import), never as a KeyError mid-read.
@pytest.mark.parametrize("record", [DeviceMeta, GameSettings, DeviceModel])
def test_every_record_field_has_a_reader(record):
    assert all(callable(reader(f.type)) for f in dataclasses.fields(record) if f.init)


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


@pytest.mark.filterwarnings("ignore::gpindex.telemetry.UnknownKeyWarning")
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

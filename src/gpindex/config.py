"""Engine configuration: the full scoring policy as reviewable data.

One JSON file declares a mapping curve for every metric id and every
persona profile (sub-metric weights per main index plus main-index
weights). Nothing about how scores come out of the engine is hard-coded;
overriding the file overrides the policy.
"""

from __future__ import annotations

from importlib.resources import files
from typing import Any

from .errors import ConfigError, EngineError, SchemaError
from .indices import IndexProfile, MainIndex
from .jsondoc import Record, as_obj, as_real, decode, is_file_name, require, require_version, shown
from .metrics import METRIC_IDS
from .scoring import MappingCurve

CONFIG_SCHEMA_VERSION = 1

_INDEX_BY_VALUE = {index.value: index for index in MainIndex}


class EngineConfig(Record):
    curves: dict[str, MappingCurve]
    profiles: dict[str, IndexProfile]


def load_config(data: bytes) -> EngineConfig:
    """Parse and validate a config document; any problem raises ConfigError."""
    try:
        return _read_config(decode(data, SchemaError, "config"))
    except EngineError as exc:
        raise ConfigError(shown(str(exc))) from exc  # a document's text starts no line


def _non_empty_obj(root: dict, key: str) -> dict:
    obj = as_obj(require(root, key, ""), key)
    if not obj:
        raise SchemaError(f"{key}: expected a non-empty object")
    return obj


def _index(index_id: str, where: str) -> MainIndex:
    if index_id not in _INDEX_BY_VALUE:
        raise SchemaError(f"{where}: unknown index '{index_id}'")
    return _INDEX_BY_VALUE[index_id]


def _read_config(doc: Any) -> EngineConfig:
    root = as_obj(doc, "top level")
    require_version(root, CONFIG_SCHEMA_VERSION)

    curves: dict[str, MappingCurve] = {}
    for metric_id, breakpoints in _non_empty_obj(root, "curves").items():
        if metric_id not in METRIC_IDS:
            raise SchemaError(f"curves.{metric_id}: unknown metric")
        try:
            curves[metric_id] = MappingCurve(metric_id, breakpoints)
        except SchemaError as exc:
            raise SchemaError(f"curves.{exc}") from exc
    # Every session is mapped on every metric, weighted by a profile or not.
    for metric_id in METRIC_IDS:
        if metric_id not in curves:
            raise SchemaError(f"curves: no curve for metric '{metric_id}'")

    profiles: dict[str, IndexProfile] = {}
    for name, body in _non_empty_obj(root, "profiles").items():
        # compare writes each profile's report to a file named by the profile.
        if not is_file_name(name):
            raise SchemaError(f"profiles: profile name {name!r} must name one file")
        where = f"profiles.{name}"
        body = as_obj(body, where)
        at = f"{where}.main_weights"
        main_weights = {
            _index(index_id, at): as_real(weight, f"{at}.{index_id}")
            for index_id, weight in as_obj(require(body, "main_weights", where), at).items()
        }
        at = f"{where}.sub_weights"
        sub_weights = {}
        for index_id, weights in as_obj(body.get("sub_weights", {}), at).items():
            group = f"{at}.{index_id}"
            sub_weights[_index(index_id, at)] = {
                m: as_real(weight, f"{group}.{m}") for m, weight in as_obj(weights, group).items()
            }
        profiles[name] = IndexProfile(name, main_weights, sub_weights)

    return EngineConfig(curves, profiles)


def load_config_file(path: str) -> EngineConfig:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config(data)


def default_config() -> EngineConfig:
    """The packaged default curves and persona profiles."""
    return load_config(files("gpindex.data").joinpath("default_config.json").read_bytes())

"""Engine configuration: the full scoring policy as reviewable data.

One JSON file declares every mapping curve (keyed by metric id) and every
persona profile (sub-metric weights per main index plus main-index
weights). Nothing about how scores come out of the engine is hard-coded;
overriding the file overrides the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files
from typing import Any

from .errors import ConfigError, EngineError, SchemaError
from .indices import IndexProfile, MainIndex
from .jsondoc import as_list, as_obj, as_pair, as_real, decode, require, require_version
from .metrics import METRIC_IDS
from .scoring import MappingCurve

CONFIG_SCHEMA_VERSION = 1

_INDEX_BY_VALUE = {index.value: index for index in MainIndex}


@dataclass(frozen=True)
class EngineConfig:
    schema_version: int
    curves: dict[str, MappingCurve]
    profiles: dict[str, IndexProfile]


def load_config(data: bytes) -> EngineConfig:
    """Parse and validate a config document; any problem raises ConfigError."""
    try:
        return _read_config(decode(data, SchemaError, "config"))
    except EngineError as exc:
        raise ConfigError(str(exc)) from exc


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
        where = f"curves.{metric_id}"
        if metric_id not in METRIC_IDS:
            raise SchemaError(f"{where}: unknown metric")
        points = enumerate(as_list(breakpoints, where))
        curves[metric_id] = MappingCurve(
            metric_id, tuple(as_pair(p, f"{where}[{i}]", as_real) for i, p in points)
        )

    profiles: dict[str, IndexProfile] = {}
    for name, body in _non_empty_obj(root, "profiles").items():
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

    for name, profile in profiles.items():
        for weights in profile.sub_weights.values():
            for metric_id in weights:
                if metric_id not in curves:
                    raise SchemaError(
                        f"profiles.{name}: metric '{metric_id}' has no curve in config"
                    )

    return EngineConfig(CONFIG_SCHEMA_VERSION, curves, profiles)


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

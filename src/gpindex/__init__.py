"""gpindex: a deterministic Game Performance Index engine.

Converts recorded mobile-gameplay session telemetry into bounded,
persona-weighted 0-100 performance scores and ranked device-comparison
reports. The pipeline:

    session file -> SessionTelemetry -> MetricSet -> sub-index scores
    (once per session) -> six main indices -> overall score (per profile)
    -> median across sessions -> ranked comparison table

Everything is pure and seeded: identical inputs produce bit-identical
scores and reports on every platform.
"""

from .config import EngineConfig, default_config, load_config, load_config_file
from .errors import (
    AllIndicesAbsentError,
    ConfigError,
    CurveError,
    DegenerateInputError,
    DuplicateDeviceError,
    EmptyInputError,
    EngineError,
    InsufficientSamplesError,
    MixedDevicesError,
    MixedProfilesError,
    ModelError,
    SchemaError,
    SessionSyntaxError,
    ValidationError,
    WeightError,
)
from .indices import (
    IndexProfile,
    MainIndex,
    ScoreCard,
    SessionScores,
    aggregate_sessions,
    score_device,
    score_main_index,
    score_overall,
    score_profiles,
)
from .metrics import MetricSet, extract_metrics
from .report import (
    ComparisonRow,
    ComparisonTable,
    emit_plot_data,
    emit_report,
    rank_devices,
    serialize_session,
)
from .scoring import MappingCurve, SubIndexScore, map_metric
from .synth import DeviceModel, SplitMix64, generate_corpus, generate_session, load_manifest
from .telemetry import (
    ComparabilityReport,
    DeviceMeta,
    GameSettings,
    SessionTelemetry,
    parse_session,
    validate_comparability,
)

__version__ = "0.1.0"

__all__ = [
    "AllIndicesAbsentError",
    "ComparabilityReport",
    "ComparisonRow",
    "ComparisonTable",
    "ConfigError",
    "CurveError",
    "DegenerateInputError",
    "DeviceMeta",
    "DeviceModel",
    "DuplicateDeviceError",
    "EmptyInputError",
    "EngineConfig",
    "EngineError",
    "GameSettings",
    "IndexProfile",
    "InsufficientSamplesError",
    "MainIndex",
    "MappingCurve",
    "MetricSet",
    "MixedDevicesError",
    "MixedProfilesError",
    "ModelError",
    "SchemaError",
    "ScoreCard",
    "SessionScores",
    "SessionSyntaxError",
    "SessionTelemetry",
    "SplitMix64",
    "SubIndexScore",
    "ValidationError",
    "WeightError",
    "aggregate_sessions",
    "default_config",
    "emit_plot_data",
    "emit_report",
    "extract_metrics",
    "generate_corpus",
    "generate_session",
    "load_config",
    "load_config_file",
    "load_manifest",
    "map_metric",
    "parse_session",
    "rank_devices",
    "score_device",
    "score_main_index",
    "score_overall",
    "score_profiles",
    "serialize_session",
    "validate_comparability",
]
